"""Digit codecs and sampling chains for the series expansions."""

import math
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oppenheimlab
from oppenheimlab import cli, experiments
from oppenheimlab.distributions import mobius_clamped_family
from oppenheimlab.errors import DomainError
from oppenheimlab.expansions import (
    _CODECS,
    _PHI,
    KINDS,
    OPPENHEIM_KINDS,
    DigitSequence,
    extract_digits,
    ratio_path,
    ratios,
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


# the textbook remainder maps r -> r' after digit d, and their inverses
TEXTBOOK_MAPS = {
    "luroth": (lambda r, d: d * (d - 1) * r - (d - 1),
               lambda r, d: (r + d - 1) / (d * (d - 1))),
    "engel": (lambda r, d: d * r - 1, lambda r, d: (r + 1) / d),
    "sylvester": (lambda r, d: r - Fraction(1, d),
                  lambda r, d: r + Fraction(1, d)),
}


class TestPhiCodecs:
    """Every Oppenheim codec and digit invariant is derived from phi."""

    @given(r=rationals_01, s=st.fractions(min_value=0, max_value=1),
           d=st.integers(min_value=2, max_value=10**4))
    @settings(max_examples=200, deadline=None)
    def test_phi_maps_equal_textbook_maps(self, r, s, d):
        for kind, (step, inverse) in TEXTBOOK_MAPS.items():
            digit, phi_step, phi_inverse = _CODECS[kind]
            first = digit(r)
            assert phi_step(r, first) == step(r, first)
            assert phi_inverse(s, d) == inverse(s, d)
            assert isinstance(phi_inverse(s, d), Fraction)

    @pytest.mark.parametrize("kind", sorted(TEXTBOOK_MAPS))
    @given(x=rationals_01)
    @settings(max_examples=40, deadline=None)
    def test_extraction_keeps_the_invariant(self, kind, x):
        seq = extract_digits(kind, x, 8)
        d, phi = seq.digits, _PHI[kind]
        assert d[0] >= 2
        assert all(b - 1 >= phi(a) for a, b in zip(d, d[1:]))
        assert 0 < seq.remainder * phi(d[-1]) <= 1
        rebuilt = DigitSequence(kind, d, remainder=seq.remainder)
        assert rebuilt.resum() == seq.resum() == x

    def test_wrong_answers_outside_the_unit_interval_raise(self):
        # both resummed to values above 1 (7/4 and 2) at 0.13.0
        with pytest.raises(DomainError, match="phi"):
            DigitSequence("engel", (1, 2), remainder=Fraction(1, 2))
        with pytest.raises(DomainError, match="phi"):
            DigitSequence("sylvester", (1, 1))
        # a remainder beyond 1/phi(D_n) resums above the last digit's cell
        with pytest.raises(DomainError, match="remainder"):
            DigitSequence("engel", (2,), remainder=Fraction(5))
        with pytest.raises(DomainError, match="remainder"):
            DigitSequence("luroth", (), remainder=Fraction(3, 2))

    def test_empty_and_boundary_sequences_accepted(self):
        assert DigitSequence("engel", ()).resum() == 0
        assert DigitSequence("luroth", (), remainder=Fraction(1)).resum() == 1
        # the codec's fixed point 1/(d - 1) -> 1/(d - 1) of Engel's map
        seq = extract_digits("engel", Fraction(1, 71), 3)
        assert seq.digits == (72, 72, 72) and seq.remainder == Fraction(1, 71)

    def test_tables_are_derived_from_phi(self, capsys):
        assert OPPENHEIM_KINDS == tuple(_PHI)
        assert KINDS == (*_PHI, "continued_fraction")
        assert experiments.WEAK_LAW_SCHEMES == ("direct", *_PHI)
        assert cli.main(["expand", "--help"]) == 0
        assert "--kind {" + ",".join(KINDS) + "}" in capsys.readouterr().out

    def test_new_kind_is_one_phi_entry(self, tmp_path):
        # a copy of the package with one more _PHI entry, phi(d) = d^2
        pkg = tmp_path / "oppenheimlab"
        shutil.copytree(Path(oppenheimlab.__file__).parent, pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = (pkg / "expansions.py").read_text()
        entry = '    "sylvester": lambda d: d * (d - 1),\n'
        assert source.count(entry) == 1
        (pkg / "expansions.py").write_text(
            source.replace(entry, entry + '    "square": lambda d: d * d,\n'))
        script = """
from fractions import Fraction
from oppenheimlab import cli, experiments
from oppenheimlab.errors import DomainError
from oppenheimlab.expansions import DigitSequence, extract_digits
x = Fraction(113, 355)
seq = extract_digits("square", x, 6)
assert seq.resum() == x, seq
assert all(b - 1 >= a * a for a, b in zip(seq.digits, seq.digits[1:]))
try:
    DigitSequence("square", (2, 4))
    raise SystemExit("the invariant D_2 - 1 >= 4 was not checked")
except DomainError:
    pass
assert cli.main(["expand", "113/355", "--kind", "square"]) == 0
assert "square" in experiments.WEAK_LAW_SCHEMES
record = experiments.exact_weak_law_run(experiments.ExperimentConfig(
    n_grid=(50, 200), replications=20, scheme="square"))
assert [row["n"] for row in record.per_n] == [50, 200]
"""
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[0] == "4"  # D_1 = floor(355/113) + 1


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
            DigitSequence("luroth", (1, 2))
        with pytest.raises(DomainError):
            DigitSequence("engel", (5, 3))
        with pytest.raises(DomainError):
            DigitSequence("sylvester", (3, 4))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            extract_digits("decimal", Fraction(1, 2), 3)


class TestRatios:
    def test_exact_values(self):
        assert ratios("luroth", (4, 3, 5)) == [Fraction(2), Fraction(4)]
        assert ratios("engel", (2, 3, 5)) == [Fraction(2), Fraction(2)]
        assert ratios("sylvester", (2, 3, 7)) == [Fraction(1), Fraction(1)]

    @pytest.mark.parametrize("kind, digits", [
        ("engel", (1, 3)), ("sylvester", (1, 3)),  # phi(1) = 0
        # digits that break D_(k+1) - 1 >= phi(D_k), whose ratios would be
        # below 1
        ("engel", (3, 2)), ("sylvester", (2, 2)), ("luroth", (0, 1))])
    def test_engel_degenerate(self, kind, digits):
        with pytest.raises(DomainError):
            ratios(kind, digits)


def uniforms(seed, m, n):
    """(m, n + 1) uniforms in (0, 1], the input of ratio_path."""
    return 1.0 - np.random.default_rng(seed).random((m, n + 1))


def mobius_draws(seed, m, n):
    """Uniforms whose columns 1..n are mapped to draws of the members 1..n
    of the Möbius family with c_n = 2, as a chain weak law maps them."""
    u = uniforms(seed, m, n)
    u[:, 1:] = mobius_clamped_family(2).sampler(np.arange(1, n + 1), u[:, 1:])
    return u


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

    def test_luroth_reads_draw_columns(self):
        # like every kind, R_k is driven by column k; column 0 is unused
        u = uniforms(4, 1000, 6)
        assert np.array_equal(ratio_path("luroth", u),
                              np.floor(1.0 / u[:, 1:]))

    def test_engel_transition_law(self):
        # u_0 = 0.3 gives D_1 = 4, the state Theta_1 = 3, so
        # Theta_2 = 3 R_1 = floor(3/U) has survival 3/k and
        # P(Theta_2 = k) = 3/k - 3/(k+1) = 3/(k(k+1)) for k >= 3
        m = 40_000
        u = uniforms(123, m, 1)
        u[:, 0] = 0.3
        theta2 = np.rint(3.0 * ratio_path("engel", u)[:, 0])
        assert theta2.min() >= 3
        for k in (3, 4, 5, 8):
            p = 3.0 / (k * (k + 1.0))
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs(np.mean(theta2 == k) - p) < 4 * sigma

    def test_ratio_path_unknown(self):
        with pytest.raises(DomainError):
            ratio_path("decimal", uniforms(1, 1, 3))

    @pytest.mark.parametrize("kind", ["engel", "sylvester"])
    @pytest.mark.parametrize("m,n,draws", [
        pytest.param(200_000, 4, uniforms, id="200000-4"),
        pytest.param(1, 60, uniforms, id="1-60"),
        pytest.param(20_000, 8, mobius_draws, id="mobius-20000-8")])
    def test_kernel_matches_exact_chain(self, kind, m, n, draws):
        u = draws(1, m, n)
        r = ratio_path(kind, u)
        assert r.shape == (m, n)
        exact = [exact_chain_ratios(kind, row) for row in u.tolist()]
        inside = np.arange(n) < np.array([len(e) for e in exact])[:, None]
        assert r[inside].tolist() == [x for e in exact for x in e]
        assert np.array_equal(r[~inside], (1.0 / u[:, 1:])[~inside])

    @pytest.mark.parametrize("kind", ["engel", "sylvester"])
    @pytest.mark.parametrize("n", [0, 3, 30])  # 30: Engel rows both ways
    def test_live_rows_are_the_chains_still_in_the_window(self, kind, n):
        u = uniforms(4, 3000, n)
        r, live = ratio_path(kind, u, return_live=True)
        assert np.array_equal(r, ratio_path(kind, u))
        phi = {"engel": lambda d: d - 1,
               "sylvester": lambda d: d * (d - 1)}[kind]
        expected = []
        for row in u.tolist():  # the digits walked with Python ints
            d = math.floor(1.0 / row[0]) + 1
            for x in row[1:]:
                if phi(d) >= 1e12:
                    break
                d = math.floor(phi(d) / x) + 1
            expected.append(phi(d) < 1e12)
        assert live.tolist() == expected

    @pytest.mark.parametrize("kind", ["engel", "sylvester"])
    def test_rows_not_live_after_a_head_continue_as_reciprocals(self, kind):
        u = uniforms(5, 3000, 40)
        full = ratio_path(kind, u)
        for h in (1, 2, 4, 8):
            head, live = ratio_path(kind, u[:, :h + 1], return_live=True)
            assert np.array_equal(head, full[:, :h])
            assert np.array_equal(full[~live, h:], 1.0 / u[~live, h + 1:])

    def test_luroth_has_no_live_rows(self):
        r, live = ratio_path("luroth", uniforms(6, 10, 3), return_live=True)
        assert r.shape == (10, 3) and not live.any()

    def test_sylvester_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = ratio_path("sylvester", uniforms(2, 20_000, 10))
        assert np.all(np.isfinite(r)) and r.min() > 0.0
