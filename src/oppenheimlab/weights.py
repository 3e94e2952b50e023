"""Triangular weight arrays a_{k,n}, normalizers rho_n, iterated
alpha-weighted means, and numeric checkers for the weight conditions of the
exact weak law and the distributional limit theorem, which also report the
derived limits kappa and ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import make_sequence
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


def cesaro_scheme(rho="constant") -> WeightScheme:
    return WeightScheme(lambda n: np.full(n, 1.0 / n), _rho(rho))


def power_alpha_scheme(alpha: float, rho="constant") -> WeightScheme:
    """a_{k,n} = k^(-alpha) / sum_{j<=n} j^(-alpha), alpha < 1."""
    if not -math.inf < alpha < 1.0:
        raise DomainError("power_alpha requires a finite alpha < 1")

    def a_row(n):
        w = np.arange(1, n + 1, dtype=float) ** (-alpha)
        return w / w.sum()

    return WeightScheme(a_row, _rho(rho))


def iterated_scheme(alpha: float, r: int, rho="constant") -> WeightScheme:
    """Effective weights of the r-iterated alpha-weighted mean.

    One mean step is (M x)_m = sum_{k<=m} w_k x_k / cw_m with w_k = k^(-alpha)
    and cw its partial sums, so row n of M^r is e_n pushed r times through
    the transpose map v -> w * revcumsum(v / cw).
    """
    if not -math.inf < alpha < 1.0:
        raise DomainError("iterated scheme requires a finite alpha < 1")
    if r < 0:
        raise DomainError("r must be >= 0")

    def a_row(n):
        w = np.arange(1, n + 1, dtype=float) ** (-alpha)
        cw = np.cumsum(w)
        row = np.zeros(n)
        row[-1] = 1.0
        for _ in range(r):
            row = w * np.cumsum((row / cw)[::-1])[::-1]
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
    using the last three grid points (fewer points fall back gracefully)."""
    ns = list(n_values)[-3:]
    vs = list(values)[-3:]
    x = np.array([1.0 / math.log(n) for n in ns])
    v = np.array(vs, dtype=float)
    if len(ns) == 1:
        return float(v[0])
    coef = np.polyfit(x, v, len(ns) - 1)
    return float(coef[-1])


def iterated_mean(values: Sequence[float], alpha: float,
                  r: int) -> np.ndarray:
    """r-iterated alpha-weighted means: order r+1 averages order r with
    weights w_k = k^(-alpha)."""
    if not -math.inf < alpha < 1.0:
        raise DomainError("iterated_mean requires a finite alpha < 1")
    if r < 0:
        raise DomainError("r must be >= 0")
    out = np.asarray(values, dtype=float)
    if out.size == 0:
        raise DomainError("values must be nonempty")
    w = np.arange(1, out.size + 1, dtype=float) ** (-alpha)
    cw = np.cumsum(w)
    for _ in range(r):
        out = np.cumsum(w * out) / cw
    return out


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
    """"pass" if the profile converges per the target ("bounded", "zero",
    "limit"), "fail" if it clearly diverges, else "inconclusive"."""
    v = np.asarray(values, dtype=float)
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
        if shrinking:
            return "pass"
        return "inconclusive"
    raise DomainError(f"unknown trend target {target!r}")


def check_theorem_3_2_conditions(scheme: WeightScheme,
                                 alphas,
                                 n_max: int) -> ConditionReport:
    """Checks the exact-weak-law weight conditions on a geometric n-grid:
    the normalized entropy-like sum has a limit -ell, its absolute version is
    bounded, sum_k alpha_k a_{k,n} is bounded, rho_n log n -> infinity, and
    sup_n max_k a_{k,n} < infinity (the extra corollary condition).
    ``alphas`` is a per-index row (see ``index_row``) covering k <= n_max."""
    grid = _geometric_grid(n_max)
    al_all = index_row(alphas, grid[-1])
    conds = {}

    ell_rows, abs_rows, sum_rows, rholog_rows, mw_rows = [], [], [], [], []
    for n in grid:
        a = weights_row(scheme, n)
        x = al_all[:n] * a
        denom = scheme.rho(n) * math.log(n)
        ell_rows.append((n, -float(np.sum(x * np.log(x))) / denom))
        abs_rows.append((n, float(np.sum(x * np.abs(np.log(x)))) / denom))
        sum_rows.append((n, float(x.sum())))
        rholog_rows.append((n, denom))
        mw_rows.append((n, float(a.max())))

    conds["limit_ell"] = (tuple(ell_rows),
                          _trend_verdict([r[1] for r in ell_rows], "limit"))
    conds["absolute_bounded"] = (
        tuple(abs_rows), _trend_verdict([r[1] for r in abs_rows], "bounded"))
    conds["alpha_sum_bounded"] = (
        tuple(sum_rows), _trend_verdict([r[1] for r in sum_rows], "bounded"))
    rl = [r[1] for r in rholog_rows]
    conds["rho_log_diverges"] = (
        tuple(rholog_rows),
        "pass" if rl[-1] > rl[0] and rl[-1] > 2.0 else "fail")
    mw = [r[1] for r in mw_rows]
    conds["max_weight_bounded"] = (
        tuple(mw_rows),
        "pass" if mw[-1] <= mw[0] + 1e-12 else
        ("fail" if mw[-1] > 2 * mw[0] else "inconclusive"))

    passed = all(v == "pass" for _, v in conds.values())
    ell = richardson_log_limit([r[0] for r in ell_rows],
                               [r[1] for r in ell_rows]) if passed else None
    return ConditionReport(conds, passed, ell=ell)


def check_theorem_4_1_conditions(scheme: WeightScheme,
                                 c1,
                                 n_max: int) -> ConditionReport:
    """Checks the distributional-limit weight conditions: sum_k a_{k,n} has a
    limit kappa, m_n -> 0, and sum_k a_{k,n} c_{1,k} has a limit ell.
    ``c1`` is a per-index row (see ``index_row``) covering k <= n_max."""
    grid = _geometric_grid(n_max)
    c1_all = index_row(c1, grid[-1])
    conds = {}

    k_rows, m_rows, l_rows = [], [], []
    for n in grid:
        a = weights_row(scheme, n)
        k_rows.append((n, float(a.sum())))
        m_rows.append((n, float(a.max())))
        l_rows.append((n, float(np.sum(a * c1_all[:n]))))

    conds["kappa_limit"] = (tuple(k_rows),
                            _trend_verdict([r[1] for r in k_rows], "limit"))
    conds["max_weight_to_zero"] = (
        tuple(m_rows), _trend_verdict([r[1] for r in m_rows], "zero"))
    conds["ell_limit"] = (tuple(l_rows),
                          _trend_verdict([r[1] for r in l_rows], "limit"))

    passed = all(v == "pass" for _, v in conds.values())
    return ConditionReport(
        conds, passed,
        ell=l_rows[-1][1] if passed else None,
        kappa=k_rows[-1][1] if passed else None)


def _geometric_grid(n_max: int) -> list:
    """Six log-spaced indices from 10 to n_max."""
    if n_max < 10:
        raise DomainError("n_max must be >= 10")
    lo, hi = math.log(10), math.log(n_max)
    ns = sorted({int(round(math.exp(lo + (hi - lo) * i / 5)))
                 for i in range(6)})
    return [max(n, 10) for n in ns]
