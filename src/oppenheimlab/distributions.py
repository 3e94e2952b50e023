"""Indexed families {F_n} of distribution functions on [0,1].

Provides the built-in families used throughout the package (uniform, the two
Moebius-type families, and the discrete inverse-ceiling family), numeric
checkers for the small-t linearity and uniform-integrability conditions, the
constants b and c = 1 - alpha*gamma + b attached to each member, and the
characteristic-function components A(t), B(t) of the reciprocal variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate, special

from .errors import AccuracyError, ConditionCheckError, DomainError
from .specfun import EULER_GAMMA, QUAD_TOL, fourier_integral, gauss_2f1_unit

DISCRETE_KINDS = {"discrete_beta"}


def make_sequence(seq, domain=None) -> Callable:
    """Turn a sequence tag into a vectorised index function (1-based).

    The function maps an index to a float and an index array to a float
    array of the same shape, except that a constant returns its one float
    for any argument and broadcasts.  Accepted forms: a number,
    "constant:c", "linear:n" (optionally scaled as "linear:0.5"), "loglog"
    (log log n, and 1 for n < 3), an explicit list (extended by its last
    value), or a callable, which must accept index arrays itself.

    Every value must be finite and, if ``domain`` is given as a pair
    (rule, vectorised predicate), satisfy the predicate; else DomainError
    names the rule.  A number or a list is checked when it is parsed, the
    other forms each time they are evaluated, so no member outside the
    domain is ever used.
    """
    rule, inside = domain or ("sequence values must be finite", None)

    def checked(values):
        v = np.asarray(values, dtype=float)
        ok = np.isfinite(v) & (True if inside is None else inside(v))
        if not np.all(ok):
            raise DomainError(f"{rule}, got {float(v[~ok].flat[0])}")
        return values

    if isinstance(seq, bool):
        raise DomainError(f"a sequence tag cannot be a bool, got {seq!r}")
    if callable(seq):
        return lambda n: checked(seq(n))
    if isinstance(seq, (int, float)):
        v = checked(float(seq))
        return lambda n: v
    if isinstance(seq, str):
        tag, _, arg = seq.partition(":")
        if tag == "constant":
            v = checked(float(arg) if arg else 1.0)
            return lambda n: v
        if tag == "linear":
            scale = float(arg) if arg and arg != "n" else 1.0
            return lambda n: checked(scale * n)
        if tag == "loglog":  # math.log per index; [()] gives an index a float
            loglog = np.vectorize(lambda k: math.log(math.log(k)) if k >= 3
                                  else 1.0, otypes=[float])
            return lambda n: checked(loglog(n)[()])
        raise DomainError(f"unknown sequence tag {seq!r}")
    table = checked(np.asarray(list(seq), dtype=float))
    if table.ndim != 1 or table.size == 0:
        raise DomainError(f"a sequence list must be flat, nonempty: {seq!r}")
    return lambda n: table[np.minimum(n, table.size) - 1]


def member_values(seq: Callable, ks: np.ndarray) -> np.ndarray:
    """seq evaluated on an index array, as a float array of its shape (a
    sequence that returns one scalar for every index broadcasts)."""
    return np.broadcast_to(np.asarray(seq(ks), dtype=float), np.shape(ks))


def discrete_digits(beta, v):
    """The digit Z = floor(b + (1-b)/v) + 1 of the discrete-beta family for v
    in (0, 1], the Oppenheim rule floor(1/r) + 1 at b = 0; beta and v
    broadcast."""
    return np.floor(beta + (1.0 - beta) / v) + 1.0


@dataclass(frozen=True)
class DistributionFamily:
    """An indexed family of distribution functions on [0, 1] with F_n(0) = 0.

    ``cdf`` and ``density`` are indexed by n >= 1.  ``alpha``, ``beta``,
    ``param`` and ``support_max`` also accept index arrays, and
    ``sampler(ks, v)`` maps uniforms v in (0, 1] to draws: of member ks if it
    is an index, or of member ks[j] from v[..., j] if it is an index array
    (ks and v broadcast, so v may be a block of rows).  ``param`` maps n to
    the number that fixes member n, so equal values mean equal laws.
    Continuous kinds carry a density and the supremum of their support; the
    discrete kind carries its atom layout instead.
    """

    kind: str
    cdf: Callable[[int, float], float]
    alpha: Callable
    sampler: Callable[..., np.ndarray]
    density: Optional[Callable[[int, float], float]] = None
    support_max: Callable = lambda n: 1.0
    beta: Optional[Callable] = None  # discrete_beta only
    param: Optional[Callable] = None  # None: members differ by index only

    def is_discrete(self) -> bool:
        return self.kind in DISCRETE_KINDS

    def reciprocals(self, ks, v) -> np.ndarray:
        """Draws of Y = 1/U from uniforms v, indexed as ``sampler``.  The
        discrete kind returns its integer digits exactly, which 1/(1/Z) would
        round."""
        if self.is_discrete():
            return discrete_digits(self.beta(ks), v)
        return 1.0 / self.sampler(ks, v)


@dataclass(frozen=True)
class FamilyConstants:
    """The constants attached to one family member."""

    b: float
    c: float


def uniform_family() -> DistributionFamily:
    one = make_sequence(1.0)
    return DistributionFamily(
        kind="uniform",
        cdf=lambda n, t: min(max(t, 0.0), 1.0),
        alpha=one,
        sampler=lambda ks, v: v,
        density=lambda n, u: 1.0 if 0.0 <= u <= 1.0 else 0.0,
        support_max=one,
        param=one,
    )


def _mobius_family(kind: str, c_n, domain, edge, core,
                   sampler) -> DistributionFamily:
    """F_n(t) = c t / core(c, t) below edge(c), clamped to 1 afterwards,
    with c = c_n in ``domain`` (see ``make_sequence``); ``sampler(c, v)``
    maps uniforms to draws."""
    cseq = make_sequence(c_n, domain)

    def cdf(n, t):
        c = cseq(n)
        if t <= 0.0:
            return 0.0
        return 1.0 if t >= edge(c) else c * t / core(c, t)

    def density(n, u):
        c = cseq(n)
        return c / core(c, u) ** 2 if 0.0 <= u < edge(c) else 0.0

    return DistributionFamily(
        kind=kind, cdf=cdf, alpha=cseq,
        sampler=lambda ks, v: sampler(cseq(ks), v), density=density,
        support_max=lambda n: edge(cseq(n)), param=cseq,
    )


def mobius_clamped_family(c_n="constant:1") -> DistributionFamily:
    """F_n(t) = c t / (1 - c t) below 1/(2c), clamped to 1 afterwards; a
    distribution function on [0, 1] for c >= 1/2."""
    return _mobius_family("mobius_clamped", c_n,
                          ("mobius_clamped needs finite c_n >= 1/2",
                           lambda c: c >= 0.5),
                          lambda c: 1.0 / (2.0 * c),
                          lambda c, t: 1.0 - c * t,
                          lambda c, v: v / (c * (1.0 + v)))


def mobius_remark2_family(c_n="constant:1") -> DistributionFamily:
    """F_n(t) = c t / (1 - t) below 1/(1+c), clamped to 1 afterwards; a
    distribution function for c > 0."""
    return _mobius_family("mobius_remark2", c_n,
                          ("mobius_remark2 needs finite c_n > 0",
                           lambda c: c > 0.0),
                          lambda c: 1.0 / (1.0 + c),
                          lambda c, t: 1.0 - t, lambda c, v: v / (c + v))


def discrete_beta_family(beta_n="constant:0") -> DistributionFamily:
    """Atoms at 1/k (k >= 2) with masses p_{k-1} - p_k, p_k = (1-b)/(k-b).

    The reciprocal of a draw is the digit variable Z with
    P(Z = k) = p_{k-1} - p_k; beta = 0 recovers the classical digit law
    P(Z = k) = 1/(k(k-1)).
    """
    bseq = make_sequence(beta_n, ("discrete_beta needs 0 <= beta_n < 1",
                                  lambda b: (b >= 0.0) & (b < 1.0)))

    def cdf(n, t):
        b = bseq(n)
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        k = math.ceil(1.0 / t)
        if k < 2:
            return 1.0
        return (1.0 - b) / (k - 1.0 - b)

    def sampler(ks, v):
        return 1.0 / discrete_digits(bseq(ks), v)

    def alpha(n):
        return 1.0 - bseq(n)

    return DistributionFamily(
        kind="discrete_beta", cdf=cdf, alpha=alpha, sampler=sampler,
        beta=bseq, support_max=lambda n: 0.5, param=bseq,
    )


_FACTORIES = {
    "uniform": uniform_family,
    "mobius_clamped": mobius_clamped_family,
    "mobius_remark2": mobius_remark2_family,
    "discrete_beta": discrete_beta_family,
}


def from_config(what: str, cfg, factories: dict, default_kind=None):
    """What a config mapping ({"kind": ..., ...}) names: the factory of its
    kind called with the mapping's other keys, so an unknown key is an
    error.  ``what`` names the setting in messages."""
    if not isinstance(cfg, dict):
        raise DomainError(f"{what} must be a mapping, got {cfg!r}")
    args = dict(cfg)
    kind = args.pop("kind", default_kind)
    if kind not in factories:
        raise DomainError(f"unknown {what} kind {kind!r}")
    try:
        return factories[kind](**args)
    except TypeError as exc:  # a missing, unknown or non-numeric setting
        raise DomainError(f"{kind} {what}: {exc}") from None


def family_from_config(cfg: dict) -> DistributionFamily:
    """Build a built-in family from a config mapping (see ``from_config``)."""
    return from_config("family", cfg, _FACTORIES)


def discrete_beta_pmf(beta: float, k: int) -> float:
    """P(Z = k) = p_{beta,k-1} - p_{beta,k} with p_{beta,k} = (1-beta)/(k-beta)."""
    if not 0.0 <= beta < 1.0:
        raise DomainError("beta must lie in [0, 1)")
    if k < 2:
        raise DomainError("k must be >= 2")
    return (1.0 - beta) / (k - 1.0 - beta) - (1.0 - beta) / (k - beta)


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionProfile:
    """Supremum profile of a condition over indices n <= n_max."""

    rows: tuple  # ((t, sup-value), ...) in the grid's order
    alpha_divergent: bool

    def passes(self, tol: float) -> bool:
        """Below tol at the smallest t and nonincreasing in trend."""
        values = np.array([v for _, v in self.rows])
        ts = np.array([t for t, _ in self.rows])
        order = np.argsort(-ts)
        values = values[order]
        if self.alpha_divergent:
            return False
        if values[-1] >= tol:
            return False
        slope = np.polyfit(np.arange(len(values)), values, 1)[0]
        return bool(slope <= 1e-12)


def _validate_grid(t_grid) -> np.ndarray:
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0 or not np.all((ts > 0.0) & (ts <= 1.0)):
        raise DomainError("t_grid must be a nonempty grid in (0, 1]")
    return ts


def _alpha_divergent(family: DistributionFamily, n_max: int) -> bool:
    """Whether alpha_1..alpha_{n_max} are monotone with a large spread."""
    if n_max < 8:
        return False
    alphas = member_values(family.alpha, np.arange(1, n_max + 1))
    ratio = alphas.max() / max(alphas.min(), 1e-300)
    increasing = np.all(np.diff(alphas) >= 0) and alphas[-1] > alphas[0]
    decreasing = np.all(np.diff(alphas) <= 0) and alphas[-1] < alphas[0]
    return bool(ratio > 100.0 and (increasing or decreasing))


def _sup_profile(family: DistributionFamily, n_max: int, t_grid,
                 value) -> ConditionProfile:
    """Table of (t, sup_{n<=n_max} value(n, t))."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    rows = tuple((float(t), float(max(value(n, float(t))
                                      for n in range(1, n_max + 1))))
                 for t in _validate_grid(t_grid))
    return ConditionProfile(rows, _alpha_divergent(family, n_max))


def condition_i_profile(family: DistributionFamily, n_max: int,
                        t_grid) -> ConditionProfile:
    """Table of (t, sup_{n<=n_max} |F_n(t)/t - alpha_n|)."""
    return _sup_profile(family, n_max, t_grid, lambda n, t: abs(
        family.cdf(n, t) / t - family.alpha(n)))


def _cond_ii_integral(family: DistributionFamily, n: int, t: float) -> float:
    """int_0^t (1/u) |F_n(u)/u - alpha_n| du for one member."""
    a = family.alpha(n)
    if family.is_discrete():
        b = family.beta(n)
        k0 = math.ceil(1.0 / t)
        if k0 < 2:
            k0 = 2
            t = 0.5
        # on [1/k, 1/(k-1)) the cdf is constant p_{k-1} and F/u - alpha >= 0;
        # full-interval pieces telescope through the digamma function
        p = (1.0 - b) / (k0 - 1.0 - b)
        partial = p * (k0 - 1.0 / t) - a * math.log(t * k0)
        full = (1.0 - b) * (math.log(k0) - special.psi(k0 - b))
        return partial + full
    # continuous: substitute u = exp(-s)
    s0 = -math.log(t)
    val, err = integrate.quad(
        lambda s: abs(family.cdf(n, math.exp(-s)) / math.exp(-s) - a),
        s0, s0 + 60.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=500,
    )
    if err > 1e3 * QUAD_TOL:
        raise AccuracyError("condition (ii) quadrature missed tolerance", err)
    return val


def condition_ii_profile(family: DistributionFamily, n_max: int,
                         t_grid) -> ConditionProfile:
    """Table of (t, sup_{n<=n_max} int_0^t (1/u)|F_n(u)/u - alpha_n| du)."""
    return _sup_profile(family, n_max, t_grid,
                        lambda n, t: _cond_ii_integral(family, n, t))


def check_conditions(family: DistributionFamily) -> bool:
    """Cheap numeric pass/fail of conditions (i) and (ii) for built-ins: both
    suprema over members n <= 16 fall below 0.05 at t = 0.001."""
    grid = (0.1, 0.03, 0.01, 0.003, 0.001)
    return (condition_i_profile(family, 16, grid).passes(0.05)
            and condition_ii_profile(family, 16, grid).passes(0.05))


# ---------------------------------------------------------------------------
# Constants and characteristic components
# ---------------------------------------------------------------------------

def family_constants(family: DistributionFamily, n: int) -> FamilyConstants:
    """b = int_0^1 (1/u)(F_n(u)/u - alpha_n) du and c = 1 - alpha*gamma + b."""
    a = family.alpha(n)
    t_probe = 1e-6
    if abs(family.cdf(n, t_probe) / t_probe - a) > 0.2 * max(a, 1.0):
        raise ConditionCheckError(
            f"member {n} fails the small-t linearity probe")
    if family.is_discrete():
        b = -(1.0 - family.beta(n)) * special.psi(1.0 - family.beta(n))
    else:
        b, err = integrate.quad(
            lambda s: family.cdf(n, math.exp(-s)) / math.exp(-s) - a,
            0.0, 60.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=500,
        )
        if err > 1e3 * QUAD_TOL:
            raise AccuracyError("b-quadrature missed tolerance", err)
    c = 1.0 - a * EULER_GAMMA + b
    return FamilyConstants(b=float(b), c=float(c))


def _discrete_char(family: DistributionFamily, n: int, t: float) -> complex:
    """E[exp(i t Z)] with Z the digit variable, via the generating function
    h(z) = z (1-beta) 2F1-integral, so no quadrature against the step CDF."""
    b = family.beta(n)
    z = complex(math.cos(t), math.sin(t))
    h = z * gauss_2f1_unit(b, z)
    return z + (z - 1.0) * h


def char_components(family: DistributionFamily, n: int,
                    t: float) -> tuple[float, float]:
    """A(t) = int (cos(t/u) - 1) dF_n(u), B(t) = int sin(t/u) dF_n(u)."""
    if t == 0.0:
        return 0.0, 0.0
    sign = 1.0 if t > 0 else -1.0
    t = abs(t)
    if family.is_discrete():
        psi_t = _discrete_char(family, n, t)
        return float(psi_t.real - 1.0), float(sign * psi_t.imag)

    # with v = t/u: A = -1 + t int cos(v) f(t/v)/v^2 dv (the -1/v^2 part
    # integrates to the total mass exactly), B = t int sin(v) f(t/v)/v^2 dv,
    # both over [t/umax, infinity)
    v0 = t / family.support_max(n)

    def f_over_v2(v):
        return family.density(n, t / v) / v**2

    cos_int, err_c = fourier_integral(f_over_v2, v0, "cos")
    sin_int, err_s = fourier_integral(f_over_v2, v0, "sin")
    if max(err_c, err_s) > 1e3 * QUAD_TOL:
        raise AccuracyError("char_components quadrature missed tolerance",
                            max(err_c, err_s))
    return float(-1.0 + t * cos_int), float(sign * t * sin_int)


@dataclass(frozen=True)
class PropositionProfile:
    rows: tuple  # ((t, value), ...)
    fitted_limit: float


def proposition_2_4_profile(family: DistributionFamily, n: int,
                            t_grid) -> PropositionProfile:
    """Profile of B_n(t)/t + alpha_n log t on a descending grid in (0, 1),
    with its fitted small-t limit (which approaches c_{F_n})."""
    ts = _validate_grid(t_grid)
    if np.any(ts >= 1.0):
        raise DomainError("grid must lie in (0, 1)")
    a = family.alpha(n)
    rows = []
    for t in ts:
        _, b_val = char_components(family, n, float(t))
        rows.append((float(t), float(b_val / t + a * math.log(t))))
    # logarithmic-rate fit: value(t) ~ limit + p*t + q*t*log(t) + r*t^2
    tv = np.array([r[0] for r in rows])
    vv = np.array([r[1] for r in rows])
    basis = np.column_stack([np.ones_like(tv), tv, tv * np.log(tv), tv**2])
    ncols = min(basis.shape[1], len(tv))
    coef, *_ = np.linalg.lstsq(basis[:, :ncols], vv, rcond=None)
    return PropositionProfile(tuple(rows), float(coef[0]))
