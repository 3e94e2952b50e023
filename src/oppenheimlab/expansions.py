"""Series-expansion digit codecs and the vectorised ratio-chain kernel.

Deterministic extraction works on exact rationals (Fraction) so that the
partial series plus the exact tail reproduces the input bit-for-bit.  Random
Oppenheim chains are walked by one vectorised kernel, ``ratio_path``, on
draws of the digit family's members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class DigitSequence:
    """Digits of one exact extraction.

    ``remainder`` is the exact state after the last emitted digit;
    ``terminated`` marks expansions that ended because the remainder hit
    zero, rather than being truncated at ``count``.
    """

    kind: str
    digits: tuple
    x: Optional[Fraction] = None
    remainder: Optional[Fraction] = None
    terminated: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown expansion kind {self.kind!r}")
        phi = _PHI.get(self.kind)
        # as the codec keeps them: each state phi(D_k), and phi(D_0) = 1 for
        # x <= 1, bounds the next digit, D_{k+1} - 1 >= phi(D_k) (R_k >= 1),
        # and the remainder r after D_n, r phi(D_n) <= 1
        states = [1, *map(phi, self.digits)] if phi else None
        if states and (any(b - 1 < s for s, b in zip(states, self.digits))
                       or not 0 <= (self.remainder or 0) * states[-1] <= 1):
            raise DomainError(f"{self.kind} digits need D_(k+1) - 1 >= "
                              "phi(D_k) with phi(D_0) = 1, and a remainder "
                              "0 <= r <= 1/phi(D_n)")

    def resum(self) -> Fraction:
        """Exact value of the partial series plus the remainder tail."""
        inverse = _CODECS[self.kind][2]
        value = self.remainder if self.remainder is not None else Fraction(0)
        for d in reversed(self.digits):
            value = inverse(value, d)
        return value


def _as_fraction(x) -> Fraction:
    """x as an exact rational: a Fraction, an int, a float, or a string
    such as "0.4" or "7/16"."""
    if not isinstance(x, (Fraction, int, float, str)):
        raise DomainError(f"cannot interpret {x!r} as an exact rational")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"cannot parse number {x!r}") from exc


def _oppenheim_digit(r: Fraction) -> int:
    """d = k iff r lies in (1/k, 1/(k-1)]: the left-open convention keeps
    every Oppenheim remainder in (0, 1], so the recurrence is total."""
    return (1 / r).__floor__() + 1


# chain state phi(D) of each Oppenheim kind: the remainder after digit D is
# U/phi(D) for a U in (0, 1], the draw of the digit family's member in a
# random chain (uniform for the classical expansions), so the next digit is
# floor(phi(D)/U) + 1 and R_k = (D_{k+1} - 1)/phi(D_k).  phi fixes the
# codec, the digit invariant and the chain: a new kind is one entry here.
_PHI = {
    "luroth": lambda d: 1,
    "engel": lambda d: d - 1,
    "sylvester": lambda d: d * (d - 1),
}


def _oppenheim_codec(phi):
    """The _CODECS entry of the Oppenheim kind with chain state phi:
    r' = (d - 1)(d r - 1)/phi(d) and r = (phi(d) r'/(d - 1) + 1)/d."""
    return (_oppenheim_digit,
            lambda r, d: (d - 1) * (d * r - 1) / phi(d),
            lambda r, d: (phi(d) * r / (d - 1) + 1) / d)


# kind -> (digit rule, remainder map r -> r', its inverse r' -> r)
_CODECS = {
    **{kind: _oppenheim_codec(phi) for kind, phi in _PHI.items()},
    # Gauss map on (0, 1)
    "continued_fraction": (lambda r: (1 / r).__floor__(),
                           lambda r, d: 1 / r - d,
                           lambda r, d: 1 / (d + r)),
}
KINDS = tuple(_CODECS)
OPPENHEIM_KINDS = tuple(_PHI)


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
    return DigitSequence(kind, tuple(digits), x=x, remainder=r,
                         terminated=len(digits) < count)


def ratios(kind: str, digits: Sequence[int]) -> list:
    """Ratio variables R_k = (D_{k+1} - 1)/phi(D_k) of a digit sequence, as
    exact rationals; DomainError unless the digits keep the invariant of
    ``DigitSequence`` (so every phi(D_k) > 0 and R_k >= 1)."""
    if kind not in _PHI:
        raise DomainError(f"no ratio law for kind {kind!r}")
    digits = DigitSequence(kind, tuple(digits)).digits
    return [Fraction(b - 1, _PHI[kind](a)) for a, b in zip(digits, digits[1:])]


# ---------------------------------------------------------------------------
# Vectorized digit chains for Monte Carlo experiments
# ---------------------------------------------------------------------------

# beyond this state size the floor correction in the digit chain is below
# float resolution and the ratio draw is exactly 1/U
_EXACT_STATE_LIMIT = 1e12


def ratio_path(kind: str, u: np.ndarray, return_live: bool = False):
    """(m, n) ratios R_1..R_n of m digit chains driven by an (m, n + 1)
    array of draws in (0, 1], one chain per row.

    Column 0 holds the uniform of the first digit, D_1 = floor(1/u_0) + 1,
    and column k >= 1 the draw U_k of the digit family's member k, which
    steps D_{k+1} = floor(phi(D_k)/U_k) + 1; for the uniform family the
    draws are the uniforms themselves.  Lüroth ratios are i.i.d.
    floor(1/U_k).  The Engel and Sylvester floors are exact while phi(D_k)
    is below the exact-arithmetic window; beyond it the floor is below
    float resolution, so the rest of the row is 1/U.  Each column touches
    only the rows still inside the window.

    With ``return_live`` it returns (ratios, live), where the boolean mask
    ``live`` marks the rows whose state phi(D_{n+1}) is still inside the
    window after the last column (none for Lüroth, which has no state):
    only those rows need the exact floor if their chain is walked further.
    """
    if kind == "luroth":
        r = 1.0 / u[:, 1:]
        np.floor(r, out=r)
        return (r, np.zeros(u.shape[0], dtype=bool)) if return_live else r
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
    if not return_live:
        return out
    live = np.zeros(u.shape[0], dtype=bool)
    if rows.size:  # d is the state of these rows after the last column
        live[rows[phi(d) < _EXACT_STATE_LIMIT]] = True
    return out, live
