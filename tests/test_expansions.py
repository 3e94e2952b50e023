"""Digit codecs and sampling chains for the series expansions."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppenheimlab.errors import DomainError, SchemeError
from oppenheimlab.expansions import (
    DigitSequence,
    delta,
    engel_scheme,
    extract_digits,
    ratio_path,
    ratios,
    sample_oppenheim,
    sylvester_scheme,
)

rationals_01 = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
).map(lambda f: f if f <= 1 else 1 / f).filter(lambda f: 0 < f <= 1)


class TestKnownExpansions:
    def test_luroth_known(self):
        # 1/3: first digit floor(3)+1 = 4, remainder 4*3*(1/3) - 3 = 1,
        # then digit 2 forever (x = 1 fixed point of the digit-2 branch)
        seq = extract_digits("luroth", Fraction(1, 3), 5)
        assert seq.digits == (4, 2, 2, 2, 2)

    def test_engel_known_e_minus_2(self):
        # x with Engel digits 2,3,4,...: x = sum 1/(2*3*...*k) = e - 2
        x = (Fraction(1, 2) + Fraction(1, 6) + Fraction(1, 24)
             + Fraction(1, 120) + Fraction(1, 720) + Fraction(1, 5040))
        seq = extract_digits("engel", x, 4)
        assert seq.digits == (2, 3, 4, 5)

    def test_sylvester_known(self):
        # 1 = 1/2 + 1/3 + 1/7 + 1/42; the left-open digit convention picks
        # q = floor(1/r) + 1 even at exact reciprocals, so the expansion of
        # the remainder 1/42 continues with digit 43 (greedy, nonterminating)
        x = Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 7) + Fraction(1, 42)
        seq = extract_digits("sylvester", x, 4)
        assert seq.digits == (2, 3, 7, 43)
        assert seq.resum() == 1

    def test_cf_golden_ratio_like(self):
        # 1/phi = [1, 1, 1, ...]
        x = Fraction(610, 987)  # ratio of consecutive Fibonacci numbers
        seq = extract_digits("continued_fraction", x, 8)
        assert seq.digits[:8] == (1,) * 8

    def test_cf_known_rational(self):
        seq = extract_digits("continued_fraction", Fraction(7, 16), 10)
        # 7/16 = [2; 3, 2] -> 0 remainder
        assert seq.digits == (2, 3, 2)
        assert seq.terminated


class TestRoundTrips:
    @given(x=rationals_01)
    @settings(max_examples=60, deadline=None)
    def test_luroth_resum(self, x):
        assert extract_digits("luroth", x, 12).resum() == x

    @given(x=rationals_01)
    @settings(max_examples=60, deadline=None)
    def test_engel_resum(self, x):
        assert extract_digits("engel", x, 12).resum() == x

    @given(x=rationals_01)
    @settings(max_examples=30, deadline=None)
    def test_sylvester_resum(self, x):
        assert extract_digits("sylvester", x, 6).resum() == x

    @given(x=rationals_01.filter(lambda f: f < 1))
    @settings(max_examples=60, deadline=None)
    def test_cf_resum(self, x):
        assert extract_digits("continued_fraction", x, 40).resum() == x


class TestValidation:
    def test_domain(self):
        with pytest.raises(DomainError):
            extract_digits("luroth", Fraction(3, 2), 3)
        with pytest.raises(DomainError):
            extract_digits("engel", Fraction(0), 3)
        with pytest.raises(DomainError):
            extract_digits("luroth", Fraction(1, 2), 0)

    def test_digit_invariants(self):
        with pytest.raises(DomainError):
            DigitSequence("luroth", (1, 2), "deterministic")
        with pytest.raises(DomainError):
            DigitSequence("engel", (5, 3), "deterministic")
        with pytest.raises(DomainError):
            DigitSequence("sylvester", (3, 4), "deterministic")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            extract_digits("decimal", Fraction(1, 2), 3)


class TestRatios:
    def test_exact_values(self):
        assert ratios("luroth", (4, 3, 5)) == [Fraction(2), Fraction(4)]
        assert ratios("engel", (2, 3, 5)) == [Fraction(2), Fraction(2)]
        assert ratios("sylvester", (2, 3, 7)) == [Fraction(1), Fraction(1)]

    def test_engel_degenerate(self):
        # phi(1) = 0 for both chains
        with pytest.raises(SchemeError):
            ratios("engel", (1, 3))
        with pytest.raises(SchemeError):
            ratios("sylvester", (1, 3))


class TestGeneralScheme:
    def test_delta_monotone(self):
        vals = [delta(3.0, k, 0.5) for k in range(3, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert delta(3.0, 3, 0.0) == pytest.approx(1.0)

    def test_delta_pole(self):
        with pytest.raises(SchemeError):
            delta(0.0, 2, 0.0)

    def test_engel_scheme_digits_nondecreasing(self):
        rng = np.random.default_rng(11)
        seq, rs = sample_oppenheim(engel_scheme(), 20, rng)
        assert len(seq.digits) == 21 and len(rs) == 20
        assert all(b >= a for a, b in zip(seq.digits, seq.digits[1:]))
        assert all(r >= 1.0 for r in rs)

    def test_sylvester_scheme_growth(self):
        rng = np.random.default_rng(11)
        seq, _ = sample_oppenheim(sylvester_scheme(), 8, rng, theta1=2)
        # digit support starts where the survival function delta reaches 1,
        # i.e. at phi(h) = h(h-1)
        for a, b in zip(seq.digits, seq.digits[1:]):
            assert b >= a * (a - 1)

    def test_sylvester_scheme_needs_theta_at_least_two(self):
        rng = np.random.default_rng(3)
        with pytest.raises(SchemeError):
            sample_oppenheim(sylvester_scheme(), 3, rng, theta1=1)

    def test_engel_scheme_matches_digit_chain_law(self):
        # conditional digit law under the scheme equals the Engel chain law:
        # P(Theta_{j+1} = k | Theta_j = h) = h/(k(k-1)) * ... step survival
        rng = np.random.default_rng(123)
        counts = {}
        m = 40_000
        for _ in range(m):
            seq, _ = sample_oppenheim(engel_scheme(), 1, rng, theta1=3)
            k = seq.digits[1]
            counts[k] = counts.get(k, 0) + 1
        # survival delta(3, k, 0) = 3/k => P(k) = 3/k - 3/(k+1) = 3/(k(k+1))
        for k in (3, 4, 5, 8):
            p = 3.0 / (k * (k + 1.0))
            freq = counts.get(k, 0) / m
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs(freq - p) < 4 * sigma


def uniforms(seed, m, n):
    """(m, n + 1) uniforms in (0, 1], the input of ratio_path."""
    return 1.0 - np.random.default_rng(seed).random((m, n + 1))


def exact_chain_ratios(kind, row):
    """Ratios inside the exact window, as floats of the exact rationals of
    digits walked with Python ints from the same uniforms."""
    phi = {"engel": lambda d: d - 1, "sylvester": lambda d: d * (d - 1)}[kind]
    digits = [math.floor(1.0 / row[0]) + 1]
    for u in row[1:]:
        s = phi(digits[-1])
        if s >= 1e12:
            break
        digits.append(math.floor(s / u) + 1)
    return [float(r) for r in ratios(kind, digits)]


class TestVectorChains:
    def test_first_digit_law(self):
        # Lüroth digits are i.i.d., so one chain's digits sample the law
        d = 1.0 + ratio_path("luroth", uniforms(5, 1, 500_000))[0]
        assert d.min() >= 2
        for k in range(2, 8):
            p = 1.0 / (k * (k - 1.0))
            freq = np.mean(d == k)
            sigma = math.sqrt(p * (1 - p) / d.size)
            assert abs(freq - p) < 4 * sigma

    def test_luroth_matrix_law(self):
        r = ratio_path("luroth", uniforms(5, 100_000, 4))
        assert r.shape == (100_000, 4)
        assert r.min() >= 1.0
        # R = floor(1/U) has P(R = m) = 1/(m(m+1))
        freq = np.mean(r == 2.0)
        assert abs(freq - 1.0 / 6.0) < 0.005

    def test_engel_matrix_marginal(self):
        # each ratio approaches the 1/U law; even the first row is close
        r = ratio_path("engel", uniforms(6, 200_000, 3))
        assert np.all(r >= 1.0 - 1e-12)
        # P(R > x) -> 1/x along the chain; floor effects shrink with depth
        tails = [np.mean(r[:, j] > 4.0) for j in range(3)]
        assert tails[0] < tails[1] < tails[2]
        assert abs(tails[2] - 0.25) < 0.02

    def test_sylvester_matrix_positive(self):
        r = ratio_path("sylvester", uniforms(6, 50_000, 3))
        assert np.all(r > 0.0)
        assert np.all(np.isfinite(r))

    def test_ratio_path_matches_matrix_marginals(self):
        # a row's ratios do not depend on the block it is walked in
        u = np.vstack([uniforms(s, 1, 50) for s in range(2000)])
        paths = ratio_path("engel", u)
        for s in (0, 1, 999, 1999):
            assert np.array_equal(ratio_path("engel", u[s:s + 1])[0],
                                  paths[s])
        # late-column tail behaves like 1/U
        tail = np.mean(paths[:, 40] > 2.0)
        assert abs(tail - 0.5) < 0.05

    def test_ratio_path_luroth_iid(self):
        r = ratio_path("luroth", uniforms(1, 1, 10))
        assert r.shape == (1, 10)
        assert np.all(r >= 1.0)

    def test_ratio_path_unknown(self):
        with pytest.raises(DomainError):
            ratio_path("decimal", uniforms(1, 1, 3))

    @pytest.mark.parametrize("kind", ["engel", "sylvester"])
    @pytest.mark.parametrize("m,n", [(200_000, 4), (1, 60)])
    def test_kernel_matches_exact_chain(self, kind, m, n):
        u = uniforms(1, m, n)
        r = ratio_path(kind, u)
        assert r.shape == (m, n)
        exact = [exact_chain_ratios(kind, row) for row in u.tolist()]
        inside = np.arange(n) < np.array([len(e) for e in exact])[:, None]
        assert r[inside].tolist() == [x for e in exact for x in e]
        assert np.array_equal(r[~inside], (1.0 / u[:, 1:])[~inside])

    def test_sylvester_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = ratio_path("sylvester", uniforms(2, 20_000, 10))
        assert np.all(np.isfinite(r)) and r.min() > 0.0
