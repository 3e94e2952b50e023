"""Weight arrays, normalizers, iterated-mean weights, and condition
checkers."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oppenheimlab.distributions import make_sequence
from oppenheimlab import weights
from oppenheimlab.errors import DomainError
from oppenheimlab.weights import (
    WeightScheme,
    cesaro_scheme,
    check_theorem_3_2_conditions,
    check_theorem_4_1_conditions,
    index_row,
    iterated_scheme,
    power_alpha_scheme,
    richardson_log_limit,
    weights_row,
)


def _iterated_mean(x, alpha, r):
    """r passes of the running means sum_{k<=m} w_k x_k / sum_{k<=m} w_k,
    w_k = k^(-alpha), over every m."""
    w = np.arange(1, x.size + 1, dtype=float) ** (-alpha)
    for _ in range(r):
        x = np.cumsum(w * x) / np.cumsum(w)
    return x


class TestMakeRho:
    """rho_n tags, parsed by ``make_sequence`` like every sequence tag."""

    def test_constant(self):
        assert make_sequence("constant")(100) == 1.0
        assert make_sequence("constant:2.5")(7) == 2.5
        assert make_sequence(3)(9) == 3.0

    def test_loglog(self):
        r = make_sequence("loglog")
        assert r(2) == 1.0
        assert r(1000) == math.log(math.log(1000))
        assert np.array_equal(r(np.array([2, 1000])), [1.0, r(1000)])

    def test_unknown(self):
        with pytest.raises(DomainError):
            make_sequence("sqrt")

    def test_scheme_rho_is_the_parsed_tag(self):
        for tag in ("constant", "constant:2.5", 3, "loglog"):
            for n in (2, 3, 1000):
                assert cesaro_scheme(tag).rho(n) == make_sequence(tag)(n)
        # a list is a per-n table, extended by its last value
        assert [cesaro_scheme([2.0, 3.0]).rho(n) for n in (1, 2, 9)] == \
            [2.0, 3.0, 3.0]

    @pytest.mark.parametrize("rho", [0, -1, "constant:0", "linear:-1",
                                     [1.0, 0.0], float("nan"), True])
    def test_nonpositive_rho_rejected(self, rho):
        with pytest.raises(DomainError):
            cesaro_scheme(rho).rho(3)

    @pytest.mark.parametrize("alpha", [1.0, float("nan"), float("-inf")])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            power_alpha_scheme(alpha)


class TestSchemes:
    def test_cesaro_row(self):
        row = weights_row(cesaro_scheme(), 5)
        assert np.allclose(row, 0.2)
        assert row.sum() == pytest.approx(1.0)

    def test_power_alpha_normalized(self):
        sch = power_alpha_scheme(0.5)
        row = weights_row(sch, 50)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        k = np.arange(1, 51, dtype=float)
        assert np.allclose(row, k**-0.5 / np.sum(k**-0.5))

    def test_power_alpha_domain(self):
        with pytest.raises(DomainError):
            power_alpha_scheme(1.0)

    def test_iterated_r1_equals_power(self):
        # one iteration of the alpha-weighted mean is the power_alpha row
        a = 0.3
        row_it = weights_row(iterated_scheme(a, 1), 20)
        row_pw = weights_row(power_alpha_scheme(a), 20)
        assert np.allclose(row_it, row_pw)

    def test_iterated_r0_identity(self):
        row = weights_row(iterated_scheme(0.3, 0), 7)
        assert np.allclose(row, np.eye(7)[-1])

    @pytest.mark.parametrize("r", [1.5, True, -1, "2"])
    def test_iterated_order_must_be_an_integer(self, r):
        # rejected when the scheme is made, not in range()
        with pytest.raises(DomainError, match="^r must be"):
            iterated_scheme(0.5, r)

    def test_iterated_rows_are_convex_weights(self):
        row = weights_row(iterated_scheme(0.5, 3), 40)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(row > 0)

    def test_iterated_matches_iterated_mean(self):
        # applying the row to data reproduces r weighted means in a row
        xs = np.random.default_rng(0).normal(size=30)
        direct = _iterated_mean(xs, 0.4, 2)
        sch = iterated_scheme(0.4, 2)
        for n in (5, 17, 30):
            assert float(weights_row(sch, n) @ xs[:n]) == pytest.approx(
                direct[n - 1], abs=1e-12)

    def test_iterated_row_at_large_n(self):
        # one row of the transpose recurrence, far beyond an n x n table
        xs = np.random.default_rng(1).normal(size=10**5)
        row = weights_row(iterated_scheme(0.4, 3), xs.size)
        assert float(row @ xs) == pytest.approx(
            _iterated_mean(xs, 0.4, 3)[-1], abs=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    def test_iterated_row_at_very_negative_alpha(self, r):
        # k^150 overflows beyond k = 113; the row must stay finite weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = weights_row(iterated_scheme(-150, r), 200)
        assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        if r == 1:
            assert np.allclose(row, weights_row(power_alpha_scheme(-150), 200),
                               rtol=1e-14, atol=0.0)

    def test_iterated_row_unchanged_at_moderate_alpha(self):
        # the transpose map on the unscaled weights k^(-alpha)
        n = 200
        w = np.arange(1, n + 1, dtype=float) ** 2.0
        reference = w * np.cumsum((np.eye(n)[-1] / np.cumsum(w))[::-1])[::-1]
        row = weights_row(iterated_scheme(-2.0, 1), n)
        assert np.max(np.abs(row / reference - 1.0)) <= 1e-15

    def test_iterated_mean_at_very_negative_alpha(self):
        xs = np.linspace(1.0, 2.0, 200)
        sch = iterated_scheme(-150, 1)
        # exact means at a few m, in rational arithmetic
        for m in (1, 2, 3, 150, 200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                row = weights_row(sch, m)
            w = [Fraction(k) ** 150 for k in range(1, m + 1)]
            exact = sum(wk * Fraction(x) for wk, x in zip(w, xs)) / sum(w)
            assert float(row @ xs[:m]) == pytest.approx(float(exact),
                                                        rel=1e-14)

    def test_iterated_mean_unchanged_at_moderate_alpha(self):
        # the row's means at every m against the unscaled weights k^2
        xs = np.linspace(1.0, 2.0, 200)
        w = np.arange(1, xs.size + 1, dtype=float) ** 2.0
        reference = np.cumsum(w * xs) / np.cumsum(w)
        sch = iterated_scheme(-2.0, 1)
        out = np.array([weights_row(sch, m) @ xs[:m]
                        for m in range(1, xs.size + 1)])
        assert np.max(np.abs(out / reference - 1.0)) <= 1e-15

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_iterated_row_at_alpha_minus_1e6_is_the_last_unit_vector(self, r):
        # every weight but the last underflows at each scale; the row
        # neither warns nor raises, and puts all its mass on k = n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = weights_row(iterated_scheme(-1e6, r), 200)
        assert np.array_equal(row, np.eye(200)[-1])

    def test_weights_row_validation(self):
        with pytest.raises(DomainError):
            weights_row(cesaro_scheme(), 0)


class TestProfiles:
    def test_richardson_recovers_constant(self):
        ns = [100, 1000, 10000, 100000]
        vals = [2.0 + 3.0 / math.log(n) for n in ns]
        assert richardson_log_limit(ns, vals) == pytest.approx(2.0, abs=1e-9)

    def test_iterated_mean_alpha0_is_cesaro(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        out = [weights_row(iterated_scheme(0.0, 1), n) @ xs[:n]
               for n in range(1, 5)]
        assert np.allclose(out, np.cumsum(xs) / np.arange(1, 5))


class TestConditionCheckers:
    def test_cesaro_passes_3_2(self):
        rep = check_theorem_3_2_conditions(cesaro_scheme(), lambda k: 1.0,
                                           100_000)
        assert rep.passed
        assert rep.ell == pytest.approx(1.0, abs=1e-6)
        # x_k = 1/n: -sum (1/n) log(1/n) / log n = 1 at every grid point
        for _, v in rep.conditions["limit_ell"][0]:
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_power_alpha_passes_3_2(self):
        rep = check_theorem_3_2_conditions(power_alpha_scheme(0.5),
                                           lambda k: 1.0, 100_000)
        assert rep.passed
        # entropy of the normalized k^(-1/2) row: -sum a log a =
        # log n + log 2 - 1 + o(1), so the normalized limit is ell = 1
        assert rep.ell == pytest.approx(1.0, abs=0.05)

    def test_steep_power_alpha_profiles_are_finite(self):
        # k^300 overflows from k = 11 on: the row is built from (k/n)^300,
        # and the weights that underflow to 0 add 0 log 0 = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = weights_row(power_alpha_scheme(-300), 200)
            rep = check_theorem_3_2_conditions(power_alpha_scheme(-300),
                                               np.ones(200), 200)
        assert row.sum() == pytest.approx(1.0) and row[0] == 0.0
        assert all(math.isfinite(value) for rows, _ in
                   rep.conditions.values() for _, value in rows)
        # the entropy profile still rises at n = 200
        assert {name: rep.verdict(name) for name in rep.conditions} == {
            "limit_ell": "inconclusive", "absolute_bounded": "inconclusive",
            "alpha_sum_bounded": "pass", "rho_log_diverges": "pass",
            "max_weight_bounded": "pass"}

    def test_constant_row_fails_4_1(self):
        # a_{k,n} = 1 for all k: max weight does not vanish
        sch = WeightScheme(np.ones, make_sequence("constant"))
        rep = check_theorem_4_1_conditions(sch, lambda k: 1.0, 1000)
        assert not rep.passed
        assert rep.verdict("max_weight_to_zero") == "fail"

    def test_cesaro_passes_4_1(self):
        rep = check_theorem_4_1_conditions(cesaro_scheme(), lambda k: 1.0,
                                           100_000)
        assert rep.passed
        assert rep.kappa == pytest.approx(1.0, abs=1e-12)
        assert rep.ell == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [1000, 100_000])
    @pytest.mark.parametrize("scheme", [cesaro_scheme(),
                                        power_alpha_scheme(0.5)],
                             ids=["cesaro", "power_alpha-0.5"])
    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3, 1e8, 1e300])
    def test_verdicts_do_not_depend_on_the_scale(self, alpha, scheme, n_max):
        # the rounding noise of sum_k alpha a_{k,n} grows with alpha; at
        # alpha = 1e8 and n_max = 1000 it crossed absolute tolerances
        alphas = np.full(n_max, alpha)
        rep32 = check_theorem_3_2_conditions(scheme, alphas, n_max)
        rep41 = check_theorem_4_1_conditions(scheme, alphas, n_max)
        assert rep32.passed and rep41.passed
        assert rep41.ell == pytest.approx(alpha, rel=1e-12)
        # rho_n log n diverges for any constant rho: at rho = 0.1 it stayed
        # below an absolute 2 up to n = 1000 and failed
        for rho in (0.1, 1e-3):
            assert check_theorem_3_2_conditions(
                replace(scheme, rho=lambda n: rho), alphas, n_max).passed

    def test_measure_beyond_float_range_raises(self):
        # finite alphas and weights whose measure overflows have no profile
        # to read: DomainError, not a "fail" verdict
        scheme = cesaro_scheme(rho=1e-12)
        with pytest.raises(DomainError, match="limit_ell measure at n = 10 "
                           "is not finite in float"):
            check_theorem_3_2_conditions(scheme, np.full(1000, 1e300), 1000)
        # alpha a log(alpha a) overflows inside the measure: the DomainError
        # comes without numpy's overflow warning (an error under pytest)
        with pytest.raises(DomainError, match="limit_ell measure at n = 10 "
                           "is not finite in float"):
            check_theorem_3_2_conditions(cesaro_scheme(),
                                         np.full(1000, 1e308), 1000)
        # a non-finite alpha is the input's, and its profile fails
        alphas = np.ones(1000)
        alphas[500] = math.inf
        rep = check_theorem_3_2_conditions(scheme, alphas, 1000)
        assert not rep.passed and rep.verdict("limit_ell") == "fail"

    @pytest.mark.parametrize("target", ["bounded", "zero", "limit",
                                        "no_growth", "diverges"])
    def test_non_finite_profiles_never_pass(self, target):
        inf, nan = math.inf, math.nan
        for profile in ([inf, 1.0, 1.0], [1.0, inf, 1.0], [1.0, 1.0, inf],
                        [inf, inf, inf], [-inf, -inf, -inf],
                        [1.0, nan, 1.0], [nan, nan, nan]):
            assert weights._trend_verdict(profile, target) != "pass"

    @pytest.mark.parametrize("profile, verdict", [
        ([1.0, 2.0, 3.0], "pass"), ([1.0, 3.0, 3.0], "inconclusive"),
        ([1.0, 3.0, 2.0], "inconclusive"), ([2.0, 3.0, 2.0], "fail"),
        ([3.0, 2.0, 1.0], "fail")],
        ids=["rising", "level_at_the_end", "falling_at_the_end",
             "back_at_the_start", "falling"])
    def test_diverges_reads_only_the_shape(self, profile, verdict):
        # fail unless the end is above the start, pass only if the last
        # step still rises; no constant factor changes the verdict
        for factor in (1e-300, 1e-3, 1.0, 1e3, 1e300):
            assert weights._trend_verdict(np.multiply(profile, factor),
                                          "diverges") == verdict

    def test_condition_names_in_order(self):
        rep32 = check_theorem_3_2_conditions(cesaro_scheme(), np.ones(1000),
                                             1000)
        rep41 = check_theorem_4_1_conditions(cesaro_scheme(), np.ones(1000),
                                             1000)
        assert list(rep32.conditions) == [
            "limit_ell", "absolute_bounded", "alpha_sum_bounded",
            "rho_log_diverges", "max_weight_bounded"]
        assert list(rep41.conditions) == [
            "kappa_limit", "max_weight_to_zero", "ell_limit"]
        assert rep32.kappa is None
        ns = [n for n, _ in rep32.conditions["limit_ell"][0]]
        assert ns == [n for n, _ in rep41.conditions["ell_limit"][0]]
        assert ns[0] == 10 and ns[-1] == 1000 and len(ns) == 6

    def test_normalizer_and_max_weight_verdicts(self):
        def last_weight(top):  # a_{k,n} = 1/n, but a_{n,n} = top(n)
            def a_row(n):
                row = np.full(n, 1.0 / n)
                row[-1] = top(n)
                return row
            return WeightScheme(a_row, make_sequence("constant"))

        verdicts = [check_theorem_3_2_conditions(
            last_weight(top), np.ones(1000), 1000).verdict(
                "max_weight_bounded")
            for top in (lambda n: 0.5, lambda n: 1.0 + math.log(n) / 10,
                        math.log)]
        assert verdicts == ["pass", "inconclusive", "fail"]
        # rho_n = 1/log n holds rho_n log n at 1
        flat = WeightScheme(lambda n: np.full(n, 1.0 / n),
                            lambda n: 1.0 / math.log(n))
        rep = check_theorem_3_2_conditions(flat, np.ones(1000), 1000)
        assert rep.verdict("rho_log_diverges") == "fail"
        assert not rep.passed and rep.ell is None
        # slow growth still diverges, also on a grid ending at n = 100,
        # where rho_n log n only doubles from n = 10 for a constant rho
        for rho in (lambda n: 0.1, lambda n: 1e-12,
                    lambda n: 1.0 / math.log(math.log(n))):
            rep = check_theorem_3_2_conditions(replace(flat, rho=rho),
                                               np.ones(100), 100)
            assert rep.verdict("rho_log_diverges") == "pass"

    def test_n_max_validation(self):
        with pytest.raises(DomainError):
            check_theorem_3_2_conditions(cesaro_scheme(), lambda k: 1.0, 5)

    def test_array_rows_match_per_k_callable(self):
        # a precomputed row and a per-k callable give identical reports
        seq = make_sequence([0.9, 0.7, 0.5])
        row = seq(np.arange(1, 1001))
        sch = power_alpha_scheme(0.5)

        def per_k(n):
            return np.array([seq(k) for k in range(1, n + 1)])

        for check in (check_theorem_3_2_conditions,
                      check_theorem_4_1_conditions):
            assert check(sch, row, 1000) == check(sch, seq, 1000)
        rep41 = check_theorem_4_1_conditions(sch, row, 1000)
        for n, value in rep41.conditions["ell_limit"][0]:
            assert value == float(np.sum(weights_row(sch, n) * per_k(n)))

    def test_short_row_rejected(self):
        with pytest.raises(DomainError):
            check_theorem_4_1_conditions(cesaro_scheme(), np.ones(50), 100)
        with pytest.raises(DomainError):
            index_row(np.ones((2, 50)), 10)
