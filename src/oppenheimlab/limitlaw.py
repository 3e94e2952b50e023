"""Index-1 totally skewed stable limit laws.

StableLimitLaw(c, delta) is the law with characteristic function
xi(t) = exp(-(pi/2) c |t| - i c t log|t| - i delta t), written S(c, delta)
below.  Every law's CDF is read off one interpolation table of S(1, 0)
through the index-1 scaling identity; the table comes from Gil-Pelaez
inversion (with a rotated-contour evaluation where the real-axis integrand
oscillates too much).  Sampling uses the classical index-1
Chambers-Mallows-Stuck transform; the two routes are independent, so their
agreement cross-validates both.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from .errors import AccuracyError, DomainError
from .specfun import EULER_GAMMA

_QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=3000)
# real-axis cutoff T of S(1, 0): exp(-(pi/2) T)/(pi T) < 1e-12
_T_MAX = 20.279027704797283


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
# Gil-Pelaez inversion of the standard law S(1, 0)
# ---------------------------------------------------------------------------

def _cdf_realaxis(z: float) -> float:
    """F(z) by Gil-Pelaez on the real axis:
    F = 1/2 + (1/pi) int_0^inf exp(-(pi/2) t) sin(z t + t log t)/t dt."""
    t0 = 1e-6
    head = z * t0 + t0 * (math.log(t0) - 1.0)

    def integrand(t):
        return math.exp(-(math.pi / 2.0) * t) * \
            math.sin(z * t + t * math.log(t)) / t

    with warnings.catch_warnings():
        # quad's extrapolation flags roundoff on the t log t phase; the
        # returned estimate is still well inside the table's needs
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, t0, _T_MAX, **_QUAD_KW)
    if err > 5e-6:
        raise AccuracyError("Gil-Pelaez body quadrature missed tolerance",
                            err)
    return 0.5 + (head + val) / math.pi


def _cdf_rotated(z: float) -> float:
    """F(z) via the contour t = s exp(-i psi), valid for z >= 0:
    F = 1/2 + psi/pi - (1/pi) Im int_0^inf (exp(E(s e^{-i psi})) - 1)/s ds
    with E(t) = -(pi/2) t - i z t - i t log t.  The psi/pi term is the arc
    contribution of the subtracted 1/t pole; the rotated integrand does not
    oscillate and decays at rate ~ z sin(psi)."""
    psi = math.pi / 4.0
    rot = complex(math.cos(psi), -math.sin(psi))

    def big_e(s):
        t = s * rot
        return (-(math.pi / 2.0) - 1j * z) * t - 1j * t * np.log(t)

    s0 = 1e-10
    # series head: int_0^{s0} E(t)/s ds, exact to O(s0^2)
    head = rot * ((-(math.pi / 2.0) - 1j * z - psi) * s0
                  - 1j * (s0 * math.log(s0) - s0))
    rate = (z + 1.0) * math.sin(psi) + (math.pi / 2.0) * math.cos(psi)
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


def _cdf_exact(z: float) -> float:
    """F(z) of S(1, 0) by direct inversion."""
    if math.isinf(z):
        return float(z > 0.0)
    value = _cdf_rotated(z) if z >= 1.0 else _cdf_realaxis(z)
    return min(max(value, 0.0), 1.0)


class _CdfTable:
    """Monotone interpolation of the CDF of S(1, 0) on [z_lo, z_hi] with a
    fitted right tail beyond; F(z_lo) < 1e-11, so F is 0 below z_lo."""

    z_lo, z_hi = -5.0, 1e4

    def __init__(self):
        # the geometric part starts at the linear part's last node: a gap
        # between the two would leave one wide interval at z ~ 2
        body = np.concatenate([np.linspace(self.z_lo, 2.0, 260),
                               np.geomspace(2.0, self.z_hi, 301)[1:]])
        values = np.maximum.accumulate([_cdf_exact(zz) for zz in body])
        self.interp = PchipInterpolator(body, values, extrapolate=False)
        # right-tail model: z (1 - F(z)) = 1 + (a log z + b)/z
        zt = np.geomspace(2e3, 1e5, 8)
        gt = np.array([zz * (1.0 - _cdf_exact(zz)) for zz in zt])
        basis = np.column_stack([np.log(zt) / zt, 1.0 / zt])
        self.tail_ab, *_ = np.linalg.lstsq(basis, gt - 1.0, rcond=None)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        hi = z >= self.z_hi
        mid = (z > self.z_lo) & ~hi
        # the cap keeps z = inf out of inf/inf (F is 1.0 well before 1e300)
        zh = np.minimum(z[hi], 1e300)
        a, b = self.tail_ab
        out[hi] = 1.0 - (1.0 + (a * np.log(zh) + b) / zh) / zh
        out[mid] = self.interp(z[mid])
        return np.clip(out, 0.0, 1.0)


@functools.cache
def _table() -> _CdfTable:
    """The one table, built on first use; every law maps onto it."""
    return _CdfTable()


def table_error() -> float:
    """Worst |table - direct inversion| at the midpoints of the table's
    intervals: the interpolation error every law's ``cdf`` inherits."""
    table = _table()
    mid = 0.5 * (table.interp.x[1:] + table.interp.x[:-1])
    return float(np.max(np.abs(table(mid) - [_cdf_exact(z) for z in mid])))


def _at_scale(law: StableLimitLaw, x, standard_cdf) -> np.ndarray:
    """F(x) as standard_cdf, the CDF of S(1, 0), at z = (x + delta)/c - log c:
    X ~ S(c, delta) gives X/c ~ S(1, delta/c - log c) (Samorodnitsky & Taqqu
    1994, Prop. 1.2.3, at index 1).  Adding delta first keeps x = -delta from
    giving inf - inf at tiny c.  A nan x raises DomainError."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("x must not be nan")
    if law.c == 0.0:
        return (x >= -law.delta).astype(float)
    with np.errstate(over="ignore"):  # beyond the float range z is +-inf
        z = (x + law.delta) / law.c - math.log(law.c)
    return standard_cdf(z)


def cdf(law: StableLimitLaw, x: float) -> float:
    """F(x) from the one table; x = -inf gives 0 and x = inf gives 1."""
    return float(_at_scale(law, x, lambda z: _table()(z)))


def cdf_many(law: StableLimitLaw, x) -> np.ndarray:
    return _at_scale(law, x, lambda z: _table()(z))


def cdf_exact(law: StableLimitLaw, x: float) -> float:
    """Direct inversion without the table (slower; for cross-checks)."""
    return float(_at_scale(law, x, _cdf_exact))


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
