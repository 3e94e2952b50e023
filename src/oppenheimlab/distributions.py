"""Indexed families {F_n} of distribution functions on [0,1].

Provides the built-in families used throughout the package (uniform, the two
Moebius-type families, and the discrete inverse-ceiling family), the constant
b of c = 1 - alpha*gamma + b attached to each continuous member, and the
characteristic-function components A(t), B(t) of the reciprocal variable.
Every continuous member is the law of U = 1/Y with Y = s + c/V and V uniform,
so its b and characteristic function are closed forms in (s, c); their
quadratures are kept as independent cross-checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from .errors import DomainError
from .specfun import gauss_2f1_unit, quad

DISCRETE_KINDS = {"discrete_beta"}


def parse_real(value) -> Optional[float]:
    """value as a float if it is a real number (numpy's too; not a bool) or
    a numeric string, as YAML 1.1 loads 2e0 and 5e-1; else None."""
    try:
        if isinstance(value, str) or (isinstance(value, numbers.Real)
                                      and not isinstance(value, bool)):
            return float(value)
    except ValueError:  # a string that is not a number
        pass
    return None


def make_sequence(seq, domain=None) -> Callable:
    """Turn a sequence tag into a vectorised index function (1-based).

    The function maps an index to a float and an index array to a float
    array of the same shape, except that a constant returns its one float
    for any argument and broadcasts.  Accepted forms: a number,
    "constant:c", "linear:n" (optionally scaled as "linear:0.5"), "loglog"
    (log log n, and 1 for n < 3), or an explicit list (extended by its
    last value).  Anything else raises DomainError.

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

    if isinstance(seq, (bool, np.bool_)):
        raise DomainError(f"a sequence tag cannot be a bool, got {seq!r}")
    v = parse_real(seq)
    if v is not None:
        checked(v)
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
    try:
        table = np.asarray(list(seq), dtype=float)
    except (TypeError, ValueError) as exc:  # a callable, say
        raise DomainError(f"not a sequence tag: {seq!r}") from exc
    checked(table)
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

    ``alpha``, ``beta``, ``shift`` and ``support_max`` accept an index
    n >= 1 or an index array; ``cdf`` and ``density`` an index.
    ``sampler(ks, v)`` maps uniforms v in (0, 1] to draws: of member ks if it
    is an index, or of member ks[j] from v[..., j] if it is an index array
    (ks and v broadcast, so v may be a block of rows).  Continuous kinds
    carry the shift s of ``shift_scale``, from which their CDF, density and
    support edge follow; the discrete kind carries its beta instead, which
    fixes its atoms (see ``discrete_beta_family``).
    """

    kind: str
    alpha: Callable
    sampler: Callable[..., np.ndarray]
    beta: Optional[Callable] = None  # discrete_beta only
    shift: Optional[Callable] = None  # continuous kinds only

    def is_discrete(self) -> bool:
        return self.kind in DISCRETE_KINDS

    def reciprocals(self, ks, v) -> np.ndarray:
        """Draws of Y = 1/U from uniforms v, indexed as ``sampler``.  The
        discrete kind returns its integer digits exactly, which 1/(1/Z) would
        round."""
        if self.is_discrete():
            return discrete_digits(self.beta(ks), v)
        return 1.0 / self.sampler(ks, v)

    def _shift(self) -> Callable:
        if self.shift is None:
            raise DomainError(f"the {self.kind} family has no (s, c) form")
        return self.shift

    def shift_scale(self, ks) -> tuple[np.ndarray, np.ndarray]:
        """(s, c) of continuous members ks, as arrays of their shape: member
        k is the law of 1/Y with Y = s_k + c_k/V and V uniform on (0, 1]."""
        return member_values(self._shift(), ks), member_values(self.alpha, ks)

    def support_max(self, ks):
        """The support edge 1/(s + c) of continuous members ks."""
        return 1.0 / (self._shift()(ks) + self.alpha(ks))

    def cdf(self, n: int, t: float) -> float:
        """F_n(t) = c t / (1 - s t) below the support edge, 1 from it on."""
        s, c = self._shift()(n), self.alpha(n)
        if t <= 0.0:
            return 0.0
        return 1.0 if t >= 1.0 / (s + c) else c * t / (1.0 - s * t)

    def density(self, n: int, u: float) -> float:
        """f_n(u) = c / (1 - s u)^2 on [0, 1/(s + c)), else 0."""
        s, c = self._shift()(n), self.alpha(n)
        return c / (1.0 - s * u) ** 2 if 0.0 <= u < 1.0 / (s + c) else 0.0


def _continuous_family(kind: str, c_n, domain, shift,
                       sampler) -> DistributionFamily:
    """The law of U = 1/Y with Y = s + c/V and V uniform on (0, 1], where
    c = c_n lies in ``domain`` (see ``make_sequence``) and s = shift(c).
    ``sampler(c, v)`` maps uniforms to draws of U."""
    cseq = make_sequence(c_n, domain)
    return DistributionFamily(
        kind=kind, alpha=cseq, sampler=lambda ks, v: sampler(cseq(ks), v),
        shift=lambda n: shift(cseq(n)))


def uniform_family() -> DistributionFamily:
    """U uniform on [0, 1]: (s, c) = (0, 1)."""
    return _continuous_family("uniform", 1.0, None, lambda c: 0.0,
                              lambda c, v: v)


def mobius_clamped_family(c_n="constant:1") -> DistributionFamily:
    """F_n(t) = c t / (1 - c t) below 1/(2c), clamped to 1 afterwards: a
    distribution function on [0, 1] for c >= 1/2, with (s, c) = (c, c)."""
    return _continuous_family("mobius_clamped", c_n,
                              ("mobius_clamped needs finite c_n >= 1/2",
                               lambda c: c >= 0.5),
                              lambda c: c, lambda c, v: v / (c * (1.0 + v)))


def mobius_remark2_family(c_n="constant:1") -> DistributionFamily:
    """F_n(t) = c t / (1 - t) below 1/(1+c), clamped to 1 afterwards: a
    distribution function for c > 0, with (s, c) = (1, c)."""
    return _continuous_family("mobius_remark2", c_n,
                              ("mobius_remark2 needs finite c_n > 0",
                               lambda c: c > 0.0),
                              lambda c: 1.0, lambda c, v: v / (c + v))


def discrete_beta_family(beta_n="constant:0") -> DistributionFamily:
    """Atoms at 1/k (k >= 2) with masses p_{k-1} - p_k, p_k = (1-b)/(k-b).

    The reciprocal of a draw is the digit variable Z with
    P(Z = k) = p_{k-1} - p_k; beta = 0 recovers the classical digit law
    P(Z = k) = 1/(k(k-1)).
    """
    bseq = make_sequence(beta_n, ("discrete_beta needs 0 <= beta_n < 1",
                                  lambda b: (b >= 0.0) & (b < 1.0)))
    return DistributionFamily(
        kind="discrete_beta", alpha=lambda n: 1.0 - bseq(n),
        sampler=lambda ks, v: 1.0 / discrete_digits(bseq(ks), v), beta=bseq)


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
    except TypeError as exc:  # a missing or unknown setting
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
# Closed forms of the continuous kinds, with their quadrature references
# ---------------------------------------------------------------------------

def centering_b(family: DistributionFamily, ks) -> np.ndarray:
    """b_k = int_0^1 (1/u)(F_k(u)/u - alpha_k) du of continuous members ks,
    in closed form: s + c - 1 - c log c (see ``shift_scale``)."""
    s, c = family.shift_scale(ks)
    return s + c - 1.0 - c * np.log(c)


def centering_b_quad(family: DistributionFamily, n: int) -> float:
    """b of continuous member n by quadrature of its CDF, the independent
    cross-check of ``centering_b``.

    With u = exp(-x), b = int_0^inf (F_n(u)/u - alpha_n) dx.  The integral
    is split at the support edge x = -log(umax), where F_n reaches 1 with a
    kink that one quadrature over both sides misses.
    """
    a = family.alpha(n)
    edge = -math.log(family.support_max(n))
    return float(sum(  # each side gets half the sum's 1e3 slack
        quad(lambda x: family.cdf(n, math.exp(-x)) * math.exp(x) - a, lo, hi,
             "centering_b", 500)
        for lo, hi in ((0.0, edge), (edge, edge + 60.0))))


def reciprocal_char(family: DistributionFamily, ks, t) -> np.ndarray:
    """E exp(i t Y_k) of continuous members ks, with Y_k = s + c/V (see
    ``shift_scale``): exp(ist) psi(ct), where for x >= 0
    psi(x) = E exp(ix/V) = cos x - x(pi/2 - Si x) + i(sin x - x Ci x) and
    psi(-x) is its conjugate.  ks and t broadcast."""
    s, c = family.shift_scale(ks)
    t = np.asarray(t, dtype=float)
    x = c * np.abs(t)
    si, ci = special.sici(x)
    # x Ci x -> 0 as x -> 0, where Ci is -inf
    x_ci = np.multiply(x, ci, out=np.zeros_like(x), where=x > 0.0)
    psi = np.cos(x) - x * (math.pi / 2.0 - si) + 1j * (np.sin(x) - x_ci)
    return np.exp(1j * s * t) * np.where(t < 0.0, np.conj(psi), psi)


def char_components_quad(family: DistributionFamily, n: int,
                         t: float) -> tuple[float, float]:
    """(A(t), B(t)) of continuous member n by QUADPACK's Fourier rules over
    its density, the independent cross-check of ``char_components``."""
    if t == 0.0:
        return 0.0, 0.0
    sign = 1.0 if t > 0 else -1.0
    t = abs(t)
    # with v = t/u: A = -1 + t int cos(v) f(t/v)/v^2 dv (the -1/v^2 part
    # integrates to the total mass exactly), B = t int sin(v) f(t/v)/v^2 dv,
    # both over [t/umax, infinity)
    v0 = t / family.support_max(n)

    def f_over_v2(v):
        return family.density(n, t / v) / v**2

    cos_int, sin_int = (quad(f_over_v2, v0, math.inf, "char_components",
                             1e3, weight=weight) for weight in ("cos", "sin"))
    return float(-1.0 + t * cos_int), float(sign * t * sin_int)


def char_components(family: DistributionFamily, n: int,
                    t: float) -> tuple[float, float]:
    """A(t) = int (cos(t/u) - 1) dF_n(u), B(t) = int sin(t/u) dF_n(u): the
    closed form ``reciprocal_char`` for a continuous kind, the generating
    function through ``gauss_2f1_unit`` for the discrete kind."""
    if not family.is_discrete():
        psi_t = complex(reciprocal_char(family, n, t))
    elif t == 0.0:
        return 0.0, 0.0
    else:
        # E exp(itZ) = z + (z - 1) z 2F1(1, 1-beta; 2-beta; z) at
        # z = exp(i|t|): no quadrature against the atoms
        z = complex(math.cos(abs(t)), math.sin(abs(t)))
        psi_t = z + (z - 1.0) * (z * gauss_2f1_unit(family.beta(n), z))
        psi_t = psi_t if t > 0 else psi_t.conjugate()
    return float(psi_t.real - 1.0), float(psi_t.imag)


@dataclass(frozen=True)
class PropositionProfile:
    rows: tuple  # ((t, value), ...)
    fitted_limit: float


def proposition_2_4_profile(family: DistributionFamily, n: int,
                            t_grid) -> PropositionProfile:
    """Profile of B_n(t)/t + alpha_n log t on a descending grid in (0, 1),
    with its fitted small-t limit (which approaches c_{F_n})."""
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0 or not np.all((ts > 0.0) & (ts < 1.0)):
        raise DomainError("t_grid must be a nonempty grid in (0, 1)")
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
