"""Triangular weight arrays a_{k,n} (among them the effective weights of
iterated alpha-weighted means), normalizers rho_n, and numeric checkers for
the weight conditions of the exact weak law and the distributional limit
theorem, which also report the derived limits kappa and ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import make_sequence, parse_integer, parse_real
from .errors import DomainError


@dataclass(frozen=True)
class WeightScheme:
    """A triangular array of positive weights with its normalizer rho_n."""

    a_row: Callable[[int], np.ndarray]  # n -> (a_{1,n}, ..., a_{n,n})
    rho: Callable[[int], float]


def _rho(tag) -> Callable:
    """rho_n from a sequence tag (see ``make_sequence``); the weak-law
    statistic divides by rho_n log n, so every rho_n must be positive."""
    return make_sequence(tag, ("rho_n must be finite and > 0",
                               lambda r: r > 0.0))


def _alpha(alpha, what: str) -> float:
    """alpha (see ``parse_real``) as a float, which must be finite, < 1."""
    a = parse_real(alpha)
    if a is None or not -math.inf < a < 1.0:
        raise DomainError(f"{what} requires a finite alpha < 1, got {alpha!r}")
    return a


def cesaro_scheme(rho="constant") -> WeightScheme:
    return WeightScheme(lambda n: np.full(n, 1.0 / n), _rho(rho))


def power_alpha_scheme(alpha: float, rho="constant") -> WeightScheme:
    """a_{k,n} = k^(-alpha) / sum_{j<=n} j^(-alpha), alpha < 1."""
    alpha = _alpha(alpha, "power_alpha")

    def a_row(n):
        w = (np.arange(1, n + 1, dtype=float) / n) ** (-alpha)  # <= n: finite
        return w / w.sum()

    return WeightScheme(a_row, _rho(rho))


def iterated_scheme(alpha: float, r: int, rho="constant") -> WeightScheme:
    """Effective weights of the r-iterated alpha-weighted mean.

    One mean step is (M x)_m = sum_{k<=m} w_k x_k / cw_m with w_k = k^(-alpha)
    and cw its partial sums, so row n of M^r is e_n pushed r times through
    the transpose map v -> w * revcumsum(v / cw).  A step is unchanged by
    scaling w, and w_k = (k/n)^(-alpha) <= n cannot overflow.  Where a
    partial sum cw_m underflows to 0, so did every weight w_k with k <= m,
    and v_m / cw_m is taken as 0.
    """
    alpha = _alpha(alpha, "iterated scheme")
    r = parse_integer("r", r)
    if r < 0:
        raise DomainError("r must be >= 0")

    def a_row(n):
        w = (np.arange(1, n + 1, dtype=float) / n) ** (-alpha)
        cw = np.cumsum(w)
        row = np.zeros(n)
        row[-1] = 1.0
        for _ in range(r):
            ratio = np.divide(row, cw, where=cw > 0.0, out=np.zeros(n))
            row = w * np.cumsum(ratio[::-1])[::-1]
        return row

    return WeightScheme(a_row, _rho(rho))


def weights_row(scheme: WeightScheme, n: int) -> np.ndarray:
    if n < 1:
        raise DomainError("n must be >= 1")
    row = np.asarray(scheme.a_row(n), dtype=float)
    if row.size != n:
        raise DomainError("weight row has wrong length")
    return row


# ---------------------------------------------------------------------------
# Profiles, extrapolation, and condition checkers
# ---------------------------------------------------------------------------

# the condition profiles start at n = 10, and a trend needs a second point
MIN_CHECK_N = 11


def index_row(values, n: int) -> np.ndarray:
    """values_1..values_n as a float array.

    ``values`` is an array whose first n entries are values_1..values_n, or a
    callable k -> values_k, which is called once for each k.
    """
    if callable(values):
        return np.array([values(k) for k in range(1, n + 1)], dtype=float)
    row = np.asarray(values, dtype=float)
    if row.ndim != 1 or row.size < n:
        raise DomainError(f"need a row of at least {n} values")
    return row[:n]


def richardson_log_limit(n_values: Sequence[int],
                         values: Sequence[float]) -> float:
    """Extrapolated limit of a profile converging like ell + poly(1/log n),
    using the last three grid points (or the last two of a two-point grid)."""
    ns = list(n_values)[-3:]
    vs = list(values)[-3:]
    x = np.array([1.0 / math.log(n) for n in ns])
    v = np.array(vs, dtype=float)
    coef = np.polyfit(x, v, len(ns) - 1)
    return float(coef[-1])


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts for a weight scheme.

    Each entry maps a condition name to (profile rows, verdict) where the
    verdict is "pass", "fail", or "inconclusive"; ``passed`` is True only if
    every condition passed.
    """

    conditions: dict
    passed: bool
    ell: Optional[float] = None
    kappa: Optional[float] = None

    def verdict(self, name: str) -> str:
        return self.conditions[name][1]


def _trend_verdict(values, target: str, tol: float = 1e-9) -> str:
    """"pass" if the profile meets the target ("bounded", "zero", "limit";
    "diverges": ends above its start and still rises at its last step;
    "no_growth": ends no higher than it starts), "fail" if it clearly does
    not, else "inconclusive".  ``tol`` is relative to the profile's scale,
    max(1, max |v|), so that the rounding noise of a large profile does not
    cross it, and to max |v| alone for "diverges", whose verdict no
    constant factor may change; a profile with a non-finite value fails,
    as it has no trend to read."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        return "fail"
    scale = float(np.abs(v).max())
    if target == "diverges":
        tol *= scale
        if v[-1] <= v[0] + tol:
            return "fail"
        return "pass" if v[-1] > v[-2] + tol else "inconclusive"
    tol *= max(1.0, scale)
    if target == "no_growth":
        if v[-1] <= v[0] + tol / 1000:
            return "pass"
        return "fail" if v[-1] > 2 * v[0] else "inconclusive"
    if target == "zero":
        if abs(v[-1]) < max(10 * tol, abs(v[0]) * 0.5) and \
                abs(v[-1]) <= abs(v[0]) + tol:
            return "pass"
        # no progress toward zero across a geometric grid is decisive
        return "fail" if abs(v[-1]) >= abs(v[0]) - tol else "inconclusive"
    diffs = np.abs(np.diff(v))
    shrinking = diffs.size < 2 or diffs[-1] <= diffs[0] + tol
    if target == "bounded":
        if v[-1] <= v[0] * 2 + 1.0 and shrinking:
            return "pass"
        growth = np.polyfit(np.log([n for n in range(1, v.size + 1)]), v, 1)[0]
        return "fail" if growth > 0.1 else "inconclusive"
    if target == "limit":
        return "pass" if shrinking else "inconclusive"
    raise DomainError(f"unknown trend target {target!r}")


def _rho_log(scheme: WeightScheme, n: int) -> float:
    return scheme.rho(n) * math.log(n)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x of x >= 0, with 0 log 0 = 0 (a weight that underflowed)."""
    return x * np.log(x, where=x > 0, out=np.zeros_like(x))


# The weight conditions as (name, trend target, measure) rows: measure(
# scheme, n, a, v) is the profile at n, from the weight row a and the first
# n entries v of the checker's per-index row (alpha_k for Theorem 3.2,
# c_{1,k} for Theorem 4.1).
_THEOREM_3_2 = (
    ("limit_ell", "limit", lambda s, n, a, v:
     -float(np.sum(_xlogx(v * a))) / _rho_log(s, n)),
    ("absolute_bounded", "bounded", lambda s, n, a, v:
     float(np.sum(np.abs(_xlogx(v * a)))) / _rho_log(s, n)),
    ("alpha_sum_bounded", "bounded", lambda s, n, a, v: float(
        (v * a).sum())),
    ("rho_log_diverges", "diverges", lambda s, n, a, v: _rho_log(s, n)),
    ("max_weight_bounded", "no_growth", lambda s, n, a, v: float(a.max())),
)
_THEOREM_4_1 = (
    ("kappa_limit", "limit", lambda s, n, a, v: float(a.sum())),
    ("max_weight_to_zero", "zero", lambda s, n, a, v: float(a.max())),
    ("ell_limit", "limit", lambda s, n, a, v: float(np.sum(a * v))),
)


def _condition_report(table, scheme: WeightScheme, values,
                      n_max: int) -> ConditionReport:
    """The (n, value) rows and verdict of every condition of ``table`` on
    the geometric n-grid up to n_max.  ``values`` is a per-index row (see
    ``index_row``) covering k <= n_max.  A measure of finite values and
    weights that is not finite in float has no profile to read: it raises
    DomainError, naming the condition and n, and numpy's overflow warnings
    on the way there are silenced."""
    grid = _geometric_grid(n_max)
    v_all = index_row(values, grid[-1])
    rows = [[] for _ in table]
    for n in grid:
        a, v = weights_row(scheme, n), v_all[:n]
        finite = np.isfinite(a).all() and np.isfinite(v).all()
        for profile, (name, _, measure) in zip(rows, table):
            with np.errstate(over="ignore", invalid="ignore"):
                value = measure(scheme, n, a, v)  # checked below
            if finite and not math.isfinite(value):
                raise DomainError(f"the {name} measure at n = {n} is not "
                                  f"finite in float ({value})")
            profile.append((n, value))
    conds = {name: (tuple(profile),
                    _trend_verdict([value for _, value in profile], target))
             for profile, (name, target, _) in zip(rows, table)}
    return ConditionReport(conds, all(verdict == "pass"
                                      for _, verdict in conds.values()))


def check_theorem_3_2_conditions(scheme: WeightScheme,
                                 alphas,
                                 n_max: int) -> ConditionReport:
    """Checks the exact-weak-law weight conditions on a geometric n-grid:
    the normalized entropy-like sum has a limit -ell, its absolute version is
    bounded, sum_k alpha_k a_{k,n} is bounded, rho_n log n -> infinity, and
    sup_n max_k a_{k,n} < infinity (the extra corollary condition).
    ``alphas`` is a per-index row (see ``index_row``) covering k <= n_max."""
    report = _condition_report(_THEOREM_3_2, scheme, alphas, n_max)
    return replace(report, ell=richardson_log_limit(*zip(
        *report.conditions["limit_ell"][0]))) if report.passed else report


def check_theorem_4_1_conditions(scheme: WeightScheme,
                                 c1,
                                 n_max: int) -> ConditionReport:
    """Checks the distributional-limit weight conditions: sum_k a_{k,n} has a
    limit kappa, m_n -> 0, and sum_k a_{k,n} c_{1,k} has a limit ell.
    ``c1`` is a per-index row (see ``index_row``) covering k <= n_max."""
    report = _condition_report(_THEOREM_4_1, scheme, c1, n_max)
    last = {name: rows[-1][1] for name, (rows, _) in report.conditions.items()}
    return replace(report, ell=last["ell_limit"], kappa=last[
        "kappa_limit"]) if report.passed else report


def _geometric_grid(n_max: int) -> list:
    """Six log-spaced indices from 10 to n_max, at least two of them."""
    if n_max < MIN_CHECK_N:
        raise DomainError(f"n_max must be >= {MIN_CHECK_N}")
    lo, hi = math.log(10), math.log(n_max)
    return sorted({int(round(math.exp(lo + (hi - lo) * i / 5)))
                   for i in range(6)})
