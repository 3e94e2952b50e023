"""Series-expansion digit codecs and random digit-sequence samplers.

Deterministic extraction works on exact rationals (Fraction) so that the
partial series plus the exact tail reproduces the input bit-for-bit.  Random
sampling follows the general digit scheme driven by a distribution family,
with fast vectorized digit chains for the classical kinds used in the Monte
Carlo experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import DistributionFamily, uniform_family
from .errors import DomainError, SchemeError

KINDS = ("luroth", "engel", "sylvester", "continued_fraction",
         "oppenheim_general")


@dataclass(frozen=True)
class DigitSequence:
    """Digits of one expansion realization.

    ``remainder`` is the exact state after the last emitted digit (None for
    sampled sequences); ``terminated`` marks expansions that ended because the
    remainder hit zero, rather than being truncated at ``count``.
    """

    kind: str
    digits: tuple
    origin: str  # "deterministic" or "sampled"
    x: Optional[Fraction] = None
    remainder: Optional[Fraction] = None
    terminated: bool = False
    seed_info: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown expansion kind {self.kind!r}")
        if self.kind == "luroth" and any(d < 2 for d in self.digits):
            raise DomainError("luroth digits must be >= 2")
        if self.kind == "engel" and any(
                b < a for a, b in zip(self.digits, self.digits[1:])):
            raise DomainError("engel digits must be nondecreasing")
        if self.kind == "sylvester" and any(
                b < a * a - a + 1
                for a, b in zip(self.digits, self.digits[1:])):
            raise DomainError("sylvester digit growth invariant violated")

    def resum(self) -> Fraction:
        """Exact value of the partial series plus the remainder tail."""
        if self.origin != "deterministic":
            raise DomainError("resum requires a deterministic extraction")
        if self.kind not in _CODECS:
            raise DomainError(f"resum not defined for kind {self.kind!r}")
        inverse = _CODECS[self.kind][2]
        value = self.remainder if self.remainder is not None else Fraction(0)
        for d in reversed(self.digits):
            value = inverse(value, d)
        return value


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def _oppenheim_digit(r: Fraction) -> int:
    """d = k iff r lies in (1/k, 1/(k-1)]: the left-open convention keeps
    every Oppenheim remainder in (0, 1], so the recurrence is total."""
    return (1 / r).__floor__() + 1


# kind -> (digit rule, remainder map r -> r', its inverse r' -> r)
_CODECS = {
    "luroth": (_oppenheim_digit,
               lambda r, d: d * (d - 1) * r - (d - 1),
               lambda r, d: (r + d - 1) / (d * (d - 1))),
    "engel": (_oppenheim_digit,
              lambda r, d: d * r - 1,
              lambda r, d: (r + 1) / d),
    "sylvester": (_oppenheim_digit,
                  lambda r, d: r - Fraction(1, d),
                  lambda r, d: r + Fraction(1, d)),
    # Gauss map on (0, 1)
    "continued_fraction": (lambda r: (1 / r).__floor__(),
                           lambda r, d: 1 / r - d,
                           lambda r, d: 1 / (d + r)),
}


def extract_digits(kind: str, x, count: int) -> DigitSequence:
    """The first ``count`` digits of x and the exact remainder after them.

    The expansion stops early, ``terminated``, when the remainder hits zero
    (only continued fractions of rationals do).
    """
    if kind not in _CODECS:
        raise DomainError(f"no deterministic extractor for kind {kind!r}")
    digit, step, _ = _CODECS[kind]
    x = _as_fraction(x)
    if kind == "continued_fraction" and not 0 < x < 1:
        raise DomainError("continued_fraction digits require x in (0, 1)")
    if not 0 < x <= 1:
        raise DomainError(f"{kind} digits require x in (0, 1]")
    if count < 1:
        raise DomainError("count must be >= 1")
    digits, r = [], x
    while len(digits) < count and r != 0:
        d = digit(r)
        digits.append(d)
        r = step(r, d)
    return DigitSequence(kind, tuple(digits), "deterministic", x=x,
                         remainder=r, terminated=len(digits) < count)


# ---------------------------------------------------------------------------
# General digit scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OppenheimScheme:
    """General digit scheme with level maps phi_j and history functional q_n.

    delta_j(h, k, q) = phi_j(h)(1+q) / (k + phi_j(h) q) is the conditional
    survival function driving the digit draw; it is strictly decreasing in k
    whenever phi_j(h) > 0.
    """

    phi: Callable[[int, int], float]
    q: Callable[[int, tuple], float]
    digit_family: DistributionFamily = field(default_factory=uniform_family)
    name: str = "custom"


def engel_scheme(family: Optional[DistributionFamily] = None) -> OppenheimScheme:
    return OppenheimScheme(phi=lambda j, h: float(h),
                           q=lambda n, hist: 0.0,
                           digit_family=family or uniform_family(),
                           name="engel")


def sylvester_scheme(family: Optional[DistributionFamily] = None) -> OppenheimScheme:
    return OppenheimScheme(phi=lambda j, h: float(h * (h - 1)),
                           q=lambda n, hist: 0.0,
                           digit_family=family or uniform_family(),
                           name="sylvester")


def delta(phi_h: float, k: int, q: float) -> float:
    """delta(h, k, q) with phi_h = phi_j(h)."""
    if phi_h <= 0.0:
        raise SchemeError(
            "phi = 0 makes delta degenerate; sample digits directly from "
            "their marginal law instead")
    return phi_h * (1.0 + q) / (k + phi_h * q)


def sample_oppenheim(scheme: OppenheimScheme, n: int,
                     rng: np.random.Generator,
                     theta1: int = 1) -> tuple[DigitSequence, list]:
    """Sample digits Theta_1..Theta_{n+1} and the ratios R_1..R_n.

    Level j: given Theta_j = h and Q_j = q, draw U from the family's member j
    and set Theta_{j+1} to the unique k with delta(h,k+1,q) < U <= delta(h,k,q)
    (closed form k = floor(phi(h)(1+q)/U - phi(h) q), with a boundary
    adjustment); R_j = 1/delta(Theta_j, Theta_{j+1}, Q_j).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    digits = [int(theta1)]
    ratios_out = []
    for j in range(1, n + 1):
        h = digits[-1]
        phi_h = scheme.phi(j, h)
        if phi_h <= 0.0:
            raise SchemeError(
                "phi = 0 at a reachable digit; use the direct digit sampler")
        qv = scheme.q(j, tuple(digits))
        u = float(scheme.digit_family.sampler(j, rng, 1)[0])
        k_min = max(1, math.ceil(phi_h))
        k = max(k_min, math.floor(phi_h * (1.0 + qv) / u - phi_h * qv))
        if k < 2**53:
            # boundary adjustment: enforce delta(k+1) < u <= delta(k);
            # beyond float resolution neighbouring k are indistinguishable
            while k > k_min and delta(phi_h, k, qv) < u:
                k -= 1
            while delta(phi_h, k + 1, qv) >= u:
                k += 1
        digits.append(int(k))
        ratios_out.append(1.0 / delta(phi_h, k, qv))
    seq = DigitSequence("oppenheim_general", tuple(digits), "sampled",
                        seed_info=scheme.name)
    return seq, ratios_out


# chain state phi(D): given D_k, the next digit is D_{k+1} = floor(phi/U) + 1
# for U uniform on (0, 1], and the ratio variable is R_k = (D_{k+1} - 1)/phi
_PHI = {
    "luroth": lambda d: 1,
    "engel": lambda d: d - 1,
    "sylvester": lambda d: d * (d - 1),
}


def ratios(kind: str, digits: Sequence[int]) -> list:
    """Ratio variables R_k = (D_{k+1} - 1)/phi(D_k) of a digit sequence, as
    exact rationals.

    luroth: R_k = D_{k+1} - 1; engel: (D_{k+1} - 1)/(D_k - 1);
    sylvester: (D_{k+1} - 1)/(D_k (D_k - 1)).
    """
    if kind not in _PHI:
        raise DomainError(f"no ratio law for kind {kind!r}")
    out = []
    for a, b in zip(digits, digits[1:]):
        s = _PHI[kind](a)
        if s == 0:
            raise SchemeError(f"{kind} ratio degenerate at digit {a}")
        out.append(Fraction(b - 1, s))
    return out


# ---------------------------------------------------------------------------
# Vectorized digit chains for Monte Carlo experiments
# ---------------------------------------------------------------------------

# beyond this state size the floor correction in the digit chain is below
# float resolution and the ratio draw is exactly 1/U
_EXACT_STATE_LIMIT = 1e12


def ratio_path(kind: str, u: np.ndarray) -> np.ndarray:
    """(m, n) ratios R_1..R_n of m digit chains driven by an (m, n + 1)
    array of uniforms in (0, 1], one chain per row.

    Lüroth ratios are i.i.d. floor(1/U) over the first n columns.  The
    Engel and Sylvester chains start at D_1 = floor(1/u_0) + 1 and step
    D_{k+1} = floor(phi(D_k)/u_k) + 1 with exact floors while phi(D_k) is
    below the exact-arithmetic window; beyond it the floor is below float
    resolution, so the rest of the row is 1/u.  Each column touches only
    the rows still inside the window.
    """
    if kind == "luroth":
        r = 1.0 / u[:, :-1]
        return np.floor(r, out=r)
    if kind not in _PHI:
        raise DomainError(f"no ratio chain for kind {kind!r}")
    phi = _PHI[kind]
    out = 1.0 / u[:, 1:]
    rows = np.arange(u.shape[0])
    d = np.floor(1.0 / u[:, 0]) + 1.0
    for k in range(out.shape[1]):
        s = phi(d)
        live = s < _EXACT_STATE_LIMIT
        rows, s = rows[live], s[live]
        if rows.size == 0:
            break
        f = np.floor(s / u[rows, k + 1])
        out[rows, k] = f / s
        d = f + 1.0
    return out
