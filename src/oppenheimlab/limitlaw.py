"""Index-1 totally skewed stable limit laws.

StableLimitLaw(c, delta) is the law with characteristic function
xi(t) = exp(-(pi/2) c |t| - i c t log|t| - i delta t).  The CDF comes from
Gil-Pelaez inversion (with a rotated-contour evaluation where the real-axis
integrand oscillates too much), and sampling uses the classical index-1
Chambers-Mallows-Stuck transform; the two routes are independent, so their
agreement cross-validates both.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from .errors import AccuracyError, DomainError
from .specfun import EULER_GAMMA

_QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=3000)


@dataclass(frozen=True)
class StableLimitLaw:
    """Law with log-characteristic -(pi/2)c|t| - i c t log|t| - i delta t."""

    c: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.delta)):
            raise DomainError("c and delta must be finite")
        if self.c < 0:
            raise DomainError("scale c must be nonnegative")


def levy_cf_law() -> StableLimitLaw:
    """The continued-fraction digit-average limit law: c = 1/log 2 and
    drift gamma/log 2."""
    return StableLimitLaw(c=1.0 / math.log(2.0),
                          delta=EULER_GAMMA / math.log(2.0))


def char_fn(law: StableLimitLaw, t):
    """xi(t); t may be a scalar or an array.  t log|t| is 0 at t = 0."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    safe = np.where(at == 0.0, 1.0, at)
    tlog = np.where(at == 0.0, 0.0, t * np.log(safe))
    out = np.exp(-(math.pi / 2.0) * law.c * at
                 - 1j * (law.c * tlog + law.delta * t))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gil-Pelaez inversion
# ---------------------------------------------------------------------------

def _truncation_point(c: float) -> float:
    """T with exp(-(pi/2) c T)/(pi T) < 1e-12."""
    t = 1.0
    for _ in range(4):
        t = (27.7 + math.log(math.pi * t)) / (math.pi / 2.0 * c)
    return t


def _cdf_realaxis(c: float, z: float) -> float:
    """F at x with z = x + delta, by Gil-Pelaez on the real axis:
    F = 1/2 + (1/pi) int_0^inf exp(-(pi/2)c t) sin(z t + c t log t)/t dt."""
    t0 = 1e-6
    head = z * t0 + c * t0 * (math.log(t0) - 1.0)

    def integrand(t):
        return math.exp(-(math.pi / 2.0) * c * t) * \
            math.sin(z * t + c * t * math.log(t)) / t

    big_t = _truncation_point(c)
    with warnings.catch_warnings():
        # quad's extrapolation flags roundoff on the t log t phase; the
        # returned estimate is still well inside the table's needs
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, t0, big_t, **_QUAD_KW)
    if err > 5e-6:
        raise AccuracyError("Gil-Pelaez body quadrature missed tolerance",
                            err)
    return 0.5 + (head + val) / math.pi


def _cdf_rotated(c: float, z: float) -> float:
    """F via the contour t = s exp(-i psi), valid for z = x + delta >= 0:
    F = 1/2 + psi/pi - (1/pi) Im int_0^inf (exp(E(s e^{-i psi})) - 1)/s ds
    with E(t) = -(pi/2)c t - i z t - i c t log t.  The psi/pi term is the arc
    contribution of the subtracted 1/t pole; the rotated integrand does not
    oscillate and decays at rate ~ z sin(psi)."""
    psi = math.pi / 4.0
    rot = complex(math.cos(psi), -math.sin(psi))

    def big_e(s):
        t = s * rot
        return (-(math.pi / 2.0) * c - 1j * z) * t - 1j * c * t * np.log(t)

    s0 = 1e-10
    # series head: int_0^{s0} E(t)/s ds, exact to O(s0^2)
    head = rot * ((-(math.pi / 2.0) * c - 1j * z - c * psi) * s0
                  - 1j * c * (s0 * math.log(s0) - s0))
    rate = (z + c) * math.sin(psi) + (math.pi / 2.0) * c * math.cos(psi)
    s_max = max(4.0, 60.0 / rate)

    # substitute s = e^w so the feature near the origin keeps a fixed width
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val_im, err = integrate.quad(
            lambda w: (np.exp(big_e(math.exp(w))) - 1.0).imag,
            math.log(s0), math.log(s_max), **_QUAD_KW)
    if err > 1e-6:
        raise AccuracyError("rotated-contour quadrature missed tolerance",
                            err)
    return 0.5 + psi / math.pi - (head.imag + val_im) / math.pi


def _cdf_exact(c: float, z: float) -> float:
    value = _cdf_rotated(c, z) if z >= 1.0 else _cdf_realaxis(c, z)
    return min(max(value, 0.0), 1.0)


class _CdfTable:
    """Cached monotone interpolation of one law's CDF in z = x + delta."""

    def __init__(self, c: float):
        self.c = c
        # left clamp point: walk down until the mass below is negligible
        z = 0.0
        while _cdf_exact(c, z) > 1e-11 and z > -80.0 * max(c, 0.05):
            z -= max(c, 0.25)
        self.z_lo = z
        self.z_hi = 1e4
        body = np.concatenate([
            np.linspace(self.z_lo, 2.0, 260),
            np.geomspace(2.2, self.z_hi, 300),
        ])
        values = np.array([_cdf_exact(c, zz) for zz in body])
        values = np.maximum.accumulate(values)
        self.interp = PchipInterpolator(body, values, extrapolate=False)
        # right-tail model: z (1 - F(z)) = c + (a log z + b)/z
        zt = np.geomspace(2e3, 1e5, 8)
        gt = np.array([zz * (1.0 - _cdf_exact(c, zz)) for zz in zt])
        basis = np.column_stack([np.log(zt) / zt, 1.0 / zt])
        self.tail_ab, *_ = np.linalg.lstsq(basis, gt - c, rcond=None)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = np.empty(z.shape)
        lo = z <= self.z_lo
        hi = z >= self.z_hi
        mid = ~(lo | hi)
        out[lo] = 0.0
        zh = np.where(hi, z, 2.0 * self.z_hi)
        a, b = self.tail_ab
        out[hi] = 1.0 - (self.c + (a * np.log(zh[hi]) + b) / zh[hi]) / zh[hi]
        out[mid] = self.interp(z[mid])
        return np.clip(out, 0.0, 1.0)


_TABLES: dict = {}
_TABLE_LOCK = threading.Lock()


def _table(c: float) -> _CdfTable:
    key = round(c, 14)
    with _TABLE_LOCK:
        if key not in _TABLES:
            _TABLES[key] = _CdfTable(c)
        return _TABLES[key]


def cdf(law: StableLimitLaw, x: float) -> float:
    """F(x) by characteristic-function inversion (cached per scale)."""
    if law.c == 0.0:
        return 0.0 if x < -law.delta else 1.0
    return float(_table(law.c)(x + law.delta))


def cdf_many(law: StableLimitLaw, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if law.c == 0.0:
        return (x >= -law.delta).astype(float)
    return _table(law.c)(x + law.delta)


def cdf_exact(law: StableLimitLaw, x: float) -> float:
    """Uncached single-point inversion (slower; used for cross-checks)."""
    if law.c == 0.0:
        return 0.0 if x < -law.delta else 1.0
    return _cdf_exact(law.c, x + law.delta)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_many(law: StableLimitLaw, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """Index-1 totally skewed stable draws matching char_fn.

    Chambers-Mallows-Stuck base draw X ~ exp(-|t|(1 + i(2/pi)sign(t)log|t|)),
    then the index-1 scaling law: gamma_s X + (2/pi) gamma_s log(gamma_s) - delta
    has the target characteristic function with gamma_s = c pi/2.
    """
    if law.c <= 0.0:
        raise DomainError("sampling requires c > 0")
    half_pi = math.pi / 2.0
    theta = rng.uniform(-half_pi, half_pi, size)
    w = rng.exponential(1.0, size)
    x = ((half_pi + theta) * np.tan(theta)
         - np.log((half_pi * w * np.cos(theta)) / (half_pi + theta))) / half_pi
    gamma_s = law.c * half_pi
    return gamma_s * x + (2.0 / math.pi) * gamma_s * math.log(gamma_s) \
        - law.delta


def sample(law: StableLimitLaw, rng: np.random.Generator) -> float:
    return float(sample_many(law, rng, 1)[0])


def ks_distance(samples, law: StableLimitLaw) -> float:
    """sup-gap between the empirical CDF of the samples and the law's CDF,
    taking both one-sided gaps at each sample point."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise DomainError("samples must be nonempty")
    if not np.isfinite(xs[0]) or not np.isfinite(xs[-1]):  # nan sorts last
        raise DomainError("samples must be finite")
    n = xs.size
    f = cdf_many(law, xs)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
