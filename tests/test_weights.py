"""Weight arrays, normalizers, iterated means, and condition checkers."""

import math

import numpy as np
import pytest

from oppenheimlab.distributions import make_sequence
from oppenheimlab.errors import DomainError
from oppenheimlab.weights import (
    WeightScheme,
    cesaro_scheme,
    check_theorem_3_2_conditions,
    check_theorem_4_1_conditions,
    iterated_mean,
    index_row,
    iterated_scheme,
    power_alpha_scheme,
    richardson_log_limit,
    weights_row,
)


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

    def test_iterated_rows_are_convex_weights(self):
        row = weights_row(iterated_scheme(0.5, 3), 40)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(row > 0)

    def test_iterated_matches_iterated_mean(self):
        # applying the row to data reproduces the recursive means
        rng = np.random.default_rng(0)
        xs = rng.normal(size=30)
        direct = iterated_mean(xs, 0.4, 2)
        sch = iterated_scheme(0.4, 2)
        for n in (5, 17, 30):
            assert float(weights_row(sch, n) @ xs[:n]) == pytest.approx(
                direct[n - 1], abs=1e-12)

    def test_iterated_row_at_large_n(self):
        # one row of the transpose recurrence, far beyond an n x n table
        xs = np.random.default_rng(1).normal(size=10**5)
        row = weights_row(iterated_scheme(0.4, 3), xs.size)
        assert float(row @ xs) == pytest.approx(
            iterated_mean(xs, 0.4, 3)[-1], abs=1e-12)

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
        out = iterated_mean(xs, 0.0, 1)
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
