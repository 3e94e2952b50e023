"""Index-1 totally skewed stable limit laws.

StableLimitLaw(c, delta) is the law with characteristic function
xi(t) = exp(-(pi/2) c |t| - i c t log|t| - i delta t), written S(c, delta)
below.  Every law's CDF is read off S(1, 0) through the index-1 scaling
identity: one table, shipped as ``cdf_table.json`` (scipy's CubicSpline
through the direct route's logits, from ``tools/make_cdf_table.py``), and a
two-term closed form above it.  The direct route, a reference that no run
calls, is Zolotarev's integral (Zolotarev 1986, sec. 2.2; Nolan 1997,
Thm 1) for S(1, 0) = Nolan's S(1, 1, pi/2, 0; 1): with
pi x/2 = z - log(pi/2),

    F(z) = (1/pi) int_{-pi/2}^{pi/2} exp(-exp(-pi x/2) V(theta)) dtheta,
    V(theta) = (2/pi) ((pi/2 + theta)/cos theta) exp((pi/2 + theta) tan theta).

The integrand falls from at most 1 to 0 without oscillating, with one
feature where exp(-pi x/2) V = 1, and 1 - exp(-.) gives 1 - F, so both
tails are relatively accurate.  ``cdf_reference.json`` (mpmath real-axis
Gil-Pelaez, from ``tools/make_cdf_reference.py``) certifies it.  Sampling
uses the index-1 Chambers-Mallows-Stuck transform, an independent route.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blocks import run_blocks
from .errors import AccuracyError, DomainError
from .specfun import EULER_GAMMA

# table nodes: F(-5) ~ 1e-25 and 1 - F(1e10) ~ 1e-10; the geometric part
# starts at the linear part's last node, so no wide interval sits at z = 2
_NODES = np.concatenate([np.linspace(-5.0, 2.0, 200),
                         np.geomspace(2.0, 1e10, 361)[1:]])
_S_MAX = 60.0  # each side of theta* is integrated down to exp(-60) from it
_Y_MAX = 300.0  # exp(-exp(y)) is exactly 0 in float well before y = 300
_EXP_ZERO = 746.0  # exp(-x) is exactly 0 in float from x = 746 on


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
    """xi(t); t may be a scalar or an array.  xi is exactly 0 where its
    modulus exp(-(pi/2) c |t|) is 0 in float.  t log|t| is 0 at t = 0 and
    for c = 0; where it overflows (|t| > 1e305, so c < 1e-297), c t log|t|
    is (c t) log|t|.  DomainError at a nan t, and where |xi| > 0 and the
    phase c t log|t| + delta t is not finite in float."""
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise DomainError("t must not be nan")
    with np.errstate(over="ignore"):
        live = law.c * np.abs(t) < _EXP_ZERO / (math.pi / 2.0)
        t = np.where(live, t, 0.0)
        at = np.abs(t)
        log_at = np.log(np.where((at == 0.0) | (law.c == 0.0), 1.0, at))
        tlog = np.where(at == 0.0, 0.0, t * log_at)
        ctlog = np.where(np.isinf(tlog), law.c * t * log_at, law.c * tlog)
        phase = ctlog + law.delta * t
    if not np.all(np.isfinite(phase)):
        raise DomainError(f"the phase of xi overflows for {law} at t = "
                          f"{float(t[~np.isfinite(phase)].flat[0])!r}")
    out = np.where(live, np.exp(-(math.pi / 2.0) * law.c * at - 1j * phase),
                   0.0)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Zolotarev's integral for the standard law S(1, 0)
# ---------------------------------------------------------------------------

def _log_v(eps, u):
    """log V at theta = eps - pi/2 = pi/2 - u.  The sine and cosine come from
    t = tan(m/2) at the smaller distance m to an end, so neither end loses
    digits: sin m = 2t/(1 + t^2), and cos(eps)/sin m = +-cot m =
    +-(1 - t)(1 + t)/(2t), negative above theta = 0.  numpy's float64 tan
    is vectorised and its sin and cos are not: on a (16, 560) array one tan
    costs about a seventh of one sin."""
    t = np.tan(0.5 * np.minimum(eps, u))
    inv = 0.5 / t
    cot = np.copysign((1.0 - t) * (1.0 + t) * inv, u - eps)
    return (math.log(2.0 / math.pi) + np.log(eps * (1.0 + t * t) * inv)
            - eps * cot)


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes (as a column) and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x[:, None] + 1.0), 0.5 * w


# the integrands vary fastest near s = 0, so one panel [0, 0.25] comes first
# and 31 geometric panels follow (starting them at 0.1 misses 1e-11)
_PANELS = np.concatenate([[0.0], np.geomspace(0.25, _S_MAX, 32)])
_RULE = _gauss_legendre(16)  # the value on each panel
_CHECK = _gauss_legendre(12)  # its companion: |value - companion| bounds error


def _certified_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(F, 1 - F) of S(1, 0) at the finite points z, by a fixed panel rule,
    and the worst error estimate, which certifies them.

    theta* comes from bisection in log(pi/2 - theta) for all points at once
    (-pi/2 in the far left tail).  Each side of theta* is integrated in s at
    distance (side length) exp(-s) from it, with the lengths factored out
    and F's integrand above theta* divided by its value there, so every
    integrand is at most 1 and the tolerances hold in both tails.  Each
    integrand of each rule on each panel is one (nodes, points) array.  The
    sum over panels of |16-point - 12-point Gauss-Legendre| estimates the
    error of every integral that reaches the output, and AccuracyError is
    raised when the worst estimate misses 1e-11."""
    target = z - math.log(math.pi / 2.0)
    lo = np.full(z.shape, math.log(1e-300))
    hi = np.full(z.shape, math.log(math.pi) - 1e-15)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = _log_v(math.pi - np.exp(mid), np.exp(mid)) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    u_star = np.exp(hi)
    e_star = math.pi - u_star
    y_star = np.minimum(_log_v(e_star, u_star) - target, _Y_MAX)
    n = z.size
    ey_star = np.exp(y_star)

    def integrands(s):
        """F below and above theta*, then 1 - F below and above it, at the
        column of nodes s: four (nodes, points) arrays."""
        w, v = np.exp(-s), -np.expm1(-s)
        y_lo = _log_v(e_star * v, u_star + e_star * w) - target
        y_hi = _log_v(e_star + u_star * w, u_star * v) - target  # >= y*
        ey_lo, ey_hi = (np.exp(np.minimum(y, _Y_MAX)) for y in (y_lo, y_hi))
        scaled = np.exp(-ey_star * np.expm1(np.clip(y_hi - y_star, 0.0,
                                                    _Y_MAX)))
        return (w * np.exp(-ey_lo), w * scaled, -w * np.expm1(-ey_lo),
                -w * np.expm1(-ey_hi))

    res, err = np.zeros(4 * n), np.zeros(4 * n)
    for a, b in zip(_PANELS[:-1], _PANELS[1:]):
        value, check = (np.concatenate([(b - a) * w @ f for f in
                                        integrands(a + (b - a) * x)])
                        for x, w in (_RULE, _CHECK))
        res += value
        err += np.abs(value - check)
    # far in the left tail exp(-exp(y*)) is 0 in float, and F's integral
    # above theta* reaches no output
    weight_hi = np.exp(-ey_star)
    err[n:2 * n][weight_hi == 0.0] = 0.0
    cdf_lo, cdf_hi, sf_lo, sf_hi = res.reshape(4, -1)
    worst = float(np.max(err, initial=0.0))
    if not worst <= 1e-11:
        raise AccuracyError("Zolotarev quadrature missed tolerance", worst)
    cdf = e_star * cdf_lo + u_star * weight_hi * cdf_hi
    return (cdf / math.pi, (e_star * sf_lo + u_star * sf_hi) / math.pi,
            worst)


def _cdf_direct(z) -> np.ndarray:
    """F of S(1, 0) from the smaller of F and 1 - F (z = +-1e300 stands in
    for +-inf, where F is already 1 or 0 in float)."""
    z = np.clip(np.asarray(z, dtype=float), -1e300, 1e300)
    cdf, sf, _ = _certified_pair(z.ravel())
    return np.where(cdf <= sf, cdf, 1.0 - sf).reshape(z.shape)


# From this many sorted points on, one search per knot and one slice per
# interval beat one search and four gathers per point: on sorted stable
# draws (2-core x86-64, numpy 2.4) the two cost the same near 1e5 points,
# and at 2e6 points the slices take a sixth of the time
_SLICED_POINTS = 100_000


def _spline_eval(x: np.ndarray, c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The cubic spline with knots x and (4, len(x) - 1) coefficients c,
    highest power first, at the points p in [x[0], x[-1]], as scipy's PPoly
    evaluates it: p in interval i where x[i] <= p < x[i+1], the last knot
    in the last interval, and c3 + c2 h + c1 h^2 + c0 h^3 with running
    powers of h = p - x[i]."""
    if p.size >= _SLICED_POINTS and np.all(p[1:] >= p[:-1]):
        out = np.empty(p.shape)
        bounds = [0, *np.searchsorted(p, x[1:-1]).tolist(), p.size]
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                h = p[lo:hi] - x[i]
                h2 = h * h
                out[lo:hi] = c[3, i] + c[2, i] * h + c[1, i] * h2 \
                    + c[0, i] * (h2 * h)
        return out
    i = np.searchsorted(x[1:-1], p, side="right")
    h = p - x[i]
    h2 = h * h
    return c[3, i] + c[2, i] * h + c[1, i] * h2 + c[0, i] * (h2 * h)


@functools.cache
def _table() -> functools.partial:
    """The one table, read on first use: logit F = log F - log(1 - F) of
    S(1, 0) as the not-a-knot cubic spline in asinh z through the nodes, so
    both tails stay relative.  ``cdf_table.json``, which
    ``tools/make_cdf_table.py`` writes with scipy's CubicSpline from the
    direct route, holds its (4, 559) coefficients as the hex of their
    little-endian float64 bytes, so they keep their exact bits.  It is
    ``_spline_eval`` bound to the knots asinh(nodes) and those coefficients."""
    coef = json.loads(Path(__file__).with_name("cdf_table.json")
                      .read_text())["coefficients"]
    return functools.partial(_spline_eval, np.arcsinh(_NODES), np.frombuffer(
        bytes.fromhex(coef), "<f8").reshape(4, -1))


def _cdf_tail(z) -> np.ndarray:
    """F of S(1, 0) from 1 - F(z) = 1/z + (log z + gamma - 1)/z^2, whose
    remainder O(log^2 z/z^3) is far below F's last bit from z = 1e10 on."""
    z = np.minimum(z, 1e300)
    return 1.0 - (1.0 + (np.log(z) + EULER_GAMMA - 1.0) / z) / z


def _cdf_table(z) -> np.ndarray:
    """F of S(1, 0): 0 below the table, ``_cdf_tail`` above it.  The
    table is read at every point clipped into its range, and the logistic
    1/(1 + exp(-logit)) runs in place, so no gather, scatter or temporary
    of the points' size outlives the spline's output."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.clip(flat, _NODES[0], _NODES[-1])
    out = _table()(np.arcsinh(out, out=out))
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    out[flat < _NODES[0]] = 0.0
    hi = flat > _NODES[-1]
    out[hi] = _cdf_tail(flat[hi])
    return out.reshape(z.shape)


def table_error() -> float:
    """Worst |table - direct route| at the midpoints of the table's
    intervals: the interpolation error every law's ``cdf`` inherits."""
    mid = 0.5 * (_NODES[1:] + _NODES[:-1])
    return float(np.max(np.abs(_cdf_table(mid) - _cdf_direct(mid))))


def reference_error() -> tuple[float, float]:
    """(worst absolute error of F, worst relative error of min(F, 1 - F))
    of the direct route against the committed mpmath reference."""
    ref = json.loads(Path(__file__).with_name("cdf_reference.json")
                     .read_text())
    cdf, sf, _ = _certified_pair(np.array(ref["z"], dtype=float))
    left = np.array(ref["F"]) <= np.array(ref["sf"])
    mine, small = np.where(left, cdf, sf), np.where(left, ref["F"], ref["sf"])
    return (float(np.max(np.abs(cdf - ref["F"]))),
            float(np.max(np.abs(mine - small) / small)))


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
    return float(_at_scale(law, x, _cdf_table))


def cdf_many(law: StableLimitLaw, x) -> np.ndarray:
    return _at_scale(law, x, _cdf_table)


def cdf_exact(law: StableLimitLaw, x: float) -> float:
    """The direct route without the table (slower; for cross-checks)."""
    return float(_at_scale(law, x, _cdf_direct))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

# Draws, and the live blocks of a KS pass, run through chunks of this many
# points.  A full chunk of sorted points is at least _SLICED_POINTS long, so
# the spline reads it one interval slice at a time; at 2**16 every chunk took
# the per-point gather path and the KS pass was slower than one whole-array
# pass
_CHUNK = 2**17
_KS_BLOCK = 64  # the points of a block whose gaps a KS pass bounds
_KS_MARGIN = 1e-12  # what F's rounding may take from that bound


def sample_many(law: StableLimitLaw, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """Index-1 totally skewed stable draws matching char_fn.

    Chambers-Mallows-Stuck base draw X ~ exp(-|t|(1 + i(2/pi)sign(t)log|t|))
    from theta uniform on (-pi/2, pi/2) and W standard exponential,
    X = ((pi/2 + theta) t - log((pi/2) W / ((pi/2 + theta) sqrt(1 + t^2))))
    / (pi/2) with t = tan theta: cos theta = 1/sqrt(1 + t^2) there, and
    numpy's float64 tan is vectorised while its cos is not.  Then the
    index-1 scaling law: gamma_s X + (2/pi) gamma_s log(gamma_s) - delta
    has the target characteristic function with gamma_s = c pi/2.  theta
    and W are drawn whole on the calling thread, then each chunk is mapped
    into its own slice of W's buffer, on the threads of ``run_blocks``, so
    a call holds two arrays of ``size`` doubles and two of ``_CHUNK`` per
    thread.  DomainError unless ``size`` is an integer >= 0 (not a bool).
    """
    if law.c <= 0.0:
        raise DomainError("sampling requires c > 0")
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) \
            or size < 0:
        raise DomainError(f"size must be an integer >= 0, not {size!r}")
    half_pi = math.pi / 2.0
    theta = rng.uniform(-half_pi, half_pi, size)
    w = rng.exponential(1.0, size)
    gamma_s = law.c * half_pi
    drift = (2.0 / math.pi) * gamma_s * math.log(gamma_s)

    def map_chunk(lo):
        th, out = theta[lo:lo + _CHUNK], w[lo:lo + _CHUNK]
        x = np.tan(th)
        th += half_pi  # pi/2 + theta from here on
        den = x * x  # becomes (pi/2 + theta) sqrt(1 + t^2)
        den += 1.0
        np.sqrt(den, out=den)
        den *= th
        out *= half_pi
        out /= den
        np.log(out, out=out)
        x *= th
        np.subtract(x, out, out=out)
        out /= half_pi  # the base draw X
        out *= gamma_s
        out += drift
        out -= law.delta

    run_blocks(map_chunk, iter(range(0, size, _CHUNK)), size > _CHUNK)
    return w


def ks_distance(samples, law: StableLimitLaw) -> float:
    """sup-gap between the empirical CDF of the samples (all values of an
    array of any shape) and the law's CDF, taking both one-sided gaps at
    each sample point.  The samples are sorted once and cut into blocks of
    ``_KS_BLOCK`` points a..b.  F does not decrease, so no gap in a block
    exceeds max((b + 1)/n - F(x_a), F(x_b) - a/n); F is read at every point
    only of the blocks whose bound plus ``_KS_MARGIN`` reaches ``best``, the
    largest gap at the blocks' ends (0 for a lone block, always read), up
    to ``_CHUNK`` points at a time.  The table's logit spline increases on
    every interval (a test checks its slopes), so computed F falls only by
    its rounding, about 1e-16, and the table meets 0 at z = -5 (F ~ 1e-25)
    and the closed-form tail at z = 1e10 in the same bits: the margin
    covers both, and the result has the bits of the largest gap over all
    points.  A pass holds its input, the sorted copy, F at the blocks'
    ends and at most one chunk."""
    xs = np.sort(np.asarray(samples, dtype=float), axis=None)
    if xs.size == 0:
        raise DomainError("samples must be nonempty")
    if not np.isfinite(xs[0]) or not np.isfinite(xs[-1]):  # nan sorts last
        raise DomainError("samples must be finite")
    n = xs.size

    def read(i):  # F at the sorted points i and the largest gap there
        f = cdf_many(law, xs[i])
        return f, max(((i + 1) / n - f).max(), (f - i / n).max())

    first = np.arange(0, n, _KS_BLOCK)
    live, best = first, 0.0
    if first.size > 1:
        last = np.minimum(first + _KS_BLOCK, n) - 1
        (fa, gap_a), (fb, gap_b) = read(first), read(last)
        best = max(gap_a, gap_b)
        bound = np.maximum((last + 1) / n - fa, fb - first / n)
        live = first[bound + _KS_MARGIN >= best]
    offsets = np.arange(_KS_BLOCK)
    for lo in range(0, live.size, _CHUNK // _KS_BLOCK):
        # the last block's indices past n - 1 repeat its last point
        best = max(best, read(np.minimum(
            live[lo:lo + _CHUNK // _KS_BLOCK, None] + offsets, n - 1))[1])
    return float(max(0.0, best))
