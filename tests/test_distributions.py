"""Distribution families: CDFs, samplers, constants, characteristic parts."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import psi, sici

from oppenheimlab.distributions import (
    ConditionProfile,
    char_components,
    check_conditions,
    condition_i_profile,
    condition_ii_profile,
    discrete_beta_family,
    discrete_beta_pmf,
    discrete_digits,
    family_constants,
    family_from_config,
    make_sequence,
    member_values,
    mobius_clamped_family,
    mobius_remark2_family,
    proposition_2_4_profile,
    uniform_family,
)
from oppenheimlab.errors import ConditionCheckError, DomainError
from oppenheimlab.specfun import EULER_GAMMA

GRID = (0.1, 0.05, 0.02, 0.01, 0.005)


class TestMakeSequence:
    def test_number(self):
        assert make_sequence(2.5)(7) == 2.5

    def test_constant_tag(self):
        assert make_sequence("constant:0.5")(3) == 0.5
        assert make_sequence("constant")(3) == 1.0

    def test_linear_tag(self):
        assert make_sequence("linear:n")(4) == 4.0
        assert make_sequence("linear:0.5")(4) == 2.0

    def test_list_extends(self):
        f = make_sequence([1.0, 2.0, 3.0])
        assert [f(1), f(2), f(3), f(9)] == [1.0, 2.0, 3.0, 3.0]

    def test_bad_tag(self):
        with pytest.raises(DomainError):
            make_sequence("quadratic:n")
        with pytest.raises(DomainError):
            make_sequence(True)

    def test_index_arrays(self):
        ks = np.arange(1, 6)
        assert np.array_equal(make_sequence([1.0, 2.0, 3.0])(ks),
                              [1.0, 2.0, 3.0, 3.0, 3.0])
        assert np.array_equal(make_sequence("linear:0.5")(ks),
                              0.5 * ks)
        # a constant stays one scalar and broadcasts where an array is needed
        assert make_sequence("constant:0.5")(ks) == 0.5
        assert np.array_equal(member_values(make_sequence(0.5), ks),
                              np.full(5, 0.5))

    @pytest.mark.parametrize("spec", [[1.0, 4.0, 2.0], "linear:0.5",
                                      "constant:3"])
    def test_array_matches_scalar_calls(self, spec):
        f = make_sequence(spec)
        ks = np.arange(1, 8)
        assert np.array_equal(member_values(f, ks),
                              [f(int(k)) for k in ks])


def _uniforms(seed, shape):
    """Uniforms in (0, 1], as the Monte Carlo runs feed the samplers."""
    return 1.0 - np.random.default_rng(seed).random(shape)


class TestIndexSampling:
    def test_list_family_draws_its_own_members(self):
        # member 2 of c_n = [1, 4] has support (0, 1/8], so Y_2 = 1/U_2 >= 8
        fam = mobius_clamped_family([1.0, 4.0])
        ks = np.arange(1, 3)
        for seed in range(200):
            y = fam.reciprocals(ks, _uniforms(seed, 2))
            assert y[1] >= 8.0
            assert y[0] >= 2.0  # member 1 (c = 1) lives on (0, 1/2]

    def test_index_array_equals_per_member_draws(self):
        # a block of rows over an index array maps each uniform exactly as
        # the scalar call of its own member does
        fam = mobius_remark2_family([1.0, 2.0, 5.0])
        ks = np.arange(1, 6)
        v = _uniforms(3, (4, ks.size))
        joint = fam.sampler(ks, v)
        single = [[fam.sampler(int(k), x) for k, x in zip(ks, row)]
                  for row in v]
        assert np.array_equal(joint, single)

    def test_scalar_index_draws_one_member(self):
        fam = mobius_clamped_family([1.0, 4.0])
        xs = fam.sampler(2, _uniforms(0, 1000))
        assert xs.max() <= fam.support_max(2)

    def test_discrete_reciprocals_are_exact_digits(self):
        # v = 1/48.5 gives the digit 49, and 1/(1/49) is not 49 in doubles
        assert 1.0 / (1.0 / 49.0) != 49.0
        fam = discrete_beta_family([0.0, 0.0])
        v = np.array([1.0 / 48.5, 1.0 / 92.5])
        z = fam.reciprocals(np.arange(1, 3), v)
        assert z.tolist() == [49.0, 93.0]

    def test_discrete_list_family_per_member_beta(self):
        fam = discrete_beta_family([0.0, 0.9])
        ks = np.arange(1, 3)
        v = _uniforms(5, 2)
        z = fam.reciprocals(ks, v)
        assert np.array_equal(z, discrete_digits(np.array([0.0, 0.9]), v))
        assert np.all(z == np.floor(z)) and np.all(z >= 2.0)

    def test_digit_rule(self):
        assert discrete_digits(0.0, 1.0) == 2.0  # floor(1) + 1
        assert discrete_digits(0.5, 0.25) == 3.0  # floor(2.5) + 1
        # b + (1-b)/v = 3 sits on an atom boundary: atoms are left-open,
        # (p_4, p_3] maps to 4
        assert discrete_digits(0.5, 0.2) == 4.0

    def test_beta_zero_is_the_oppenheim_digit(self):
        # at b = 0 the rule is floor(1/v) + 1, also at the boundaries 2^-j
        j = np.arange(0, 40)
        assert np.array_equal(discrete_digits(0.0, 2.0 ** -j), 2.0 ** j + 1)
        assert discrete_digits(0.0, 0.5) == 3.0
        u = _uniforms(9, 10_000)
        assert np.array_equal(discrete_digits(0.0, u), np.floor(1.0 / u) + 1.0)


class TestCdfSamplerAgreement:
    """Empirical CDFs of the samplers must match the declared CDFs."""

    @pytest.mark.parametrize("family", [
        uniform_family(),
        mobius_clamped_family("constant:1"),
        mobius_clamped_family("constant:2"),
        mobius_remark2_family("constant:1"),
    ], ids=["uniform", "mc1", "mc2", "mr2"])
    def test_ks_small(self, family):
        xs = np.sort(family.sampler(1, _uniforms(42, 200_000)))
        f_vals = np.array([family.cdf(1, x) for x in xs])
        emp_hi = np.arange(1, xs.size + 1) / xs.size
        gap = np.max(np.abs(emp_hi - f_vals))
        assert gap < 0.006

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_discrete_atom_frequencies(self, beta):
        fam = discrete_beta_family(f"constant:{beta}")
        xs = fam.sampler(1, _uniforms(42, 200_000))
        z = np.rint(1.0 / xs).astype(int)
        for k in range(2, 12):
            p = discrete_beta_pmf(beta, k)
            freq = np.mean(z == k)
            sigma = math.sqrt(p * (1.0 - p) / xs.size)
            assert abs(freq - p) < 4.0 * sigma + 1e-9

    def test_support_bounds(self):
        fam = mobius_clamped_family("constant:2")
        xs = fam.sampler(1, _uniforms(0, 10_000))
        assert xs.max() <= fam.support_max(1) + 1e-12
        assert xs.min() > 0.0


class TestDiscreteBeta:
    def test_pmf_beta0_classical(self):
        for k in range(2, 12):
            assert discrete_beta_pmf(0.0, k) == pytest.approx(
                1.0 / (k * (k - 1)), abs=1e-14)

    def test_pmf_sums_to_one(self):
        k = np.arange(2, 400_000)
        total = np.sum([discrete_beta_pmf(0.3, int(kk)) for kk in k[:2000]])
        # tail of the pmf is p_{K} = (1-b)/(K-b)
        total += (1.0 - 0.3) / (k[2000] - 1.0 - 0.3)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_domain(self):
        with pytest.raises(DomainError):
            discrete_beta_pmf(1.0, 3)
        with pytest.raises(DomainError):
            discrete_beta_pmf(0.2, 1)


class TestConditionCheckers:
    @pytest.mark.parametrize("family", [
        uniform_family(),
        mobius_clamped_family("constant:1"),
        mobius_remark2_family("constant:1"),
        discrete_beta_family("constant:0"),
        discrete_beta_family("constant:0.5"),
    ], ids=["uniform", "mc1", "mr2", "db0", "db5"])
    def test_builtins_pass(self, family):
        assert check_conditions(family)

    def test_profile_shapes(self):
        prof = condition_i_profile(uniform_family(), 4, GRID)
        assert isinstance(prof, ConditionProfile)
        assert len(prof.rows) == len(GRID)
        # uniform has F(t)/t = alpha exactly
        assert all(v == 0.0 for _, v in prof.rows)

    def test_condition_ii_uniform_zero(self):
        prof = condition_ii_profile(uniform_family(), 2, GRID)
        assert all(v == 0.0 for _, v in prof.rows)

    def test_condition_ii_discrete_closed_form(self):
        # brute-force the piecewise integral for beta = 0 at t = 0.1
        fam = discrete_beta_family("constant:0")
        t = 0.1
        us = np.linspace(1e-7, t, 400_001)
        vals = np.abs(np.array([fam.cdf(1, u) for u in us]) / us - 1.0) / us
        brute = np.trapezoid(vals, us)
        prof = condition_ii_profile(fam, 1, (t,))
        assert prof.rows[0][1] == pytest.approx(brute, abs=5e-4)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            condition_i_profile(uniform_family(), 2, (0.0, 0.5))
        for profile in (condition_i_profile, condition_ii_profile):
            with pytest.raises(DomainError, match="nonempty"):
                profile(uniform_family(), 2, ())


class TestFamilyConstants:
    def test_uniform(self):
        fc = family_constants(uniform_family(), 1)
        assert fc.b == 0.0
        assert fc.c == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_mobius_clamped_b(self):
        fc = family_constants(mobius_clamped_family("constant:1"), 1)
        # independent numeric oracle on a dense log grid
        us = np.geomspace(1e-10, 1.0, 200_001)
        fam = mobius_clamped_family("constant:1")
        vals = (np.array([fam.cdf(1, u) for u in us]) / us - 1.0) / us
        brute = np.trapezoid(vals, us)
        assert fc.b == pytest.approx(brute, abs=1e-4)

    def test_discrete_digamma_form(self):
        for beta in (0.0, 0.25, 0.5):
            fc = family_constants(discrete_beta_family(f"constant:{beta}"), 1)
            oracle = -(1.0 - beta) * psi(1.0 - beta)
            assert fc.b == pytest.approx(oracle, abs=1e-12)
            assert fc.c == pytest.approx(
                1.0 - (1.0 - beta) * EULER_GAMMA + fc.b, abs=1e-12)

    def test_discrete_beta0_c(self):
        # beta = 0: b = gamma, c = 1 - gamma + gamma = 1
        fc = family_constants(discrete_beta_family("constant:0"), 1)
        assert fc.c == pytest.approx(1.0, abs=1e-10)


class TestCharComponents:
    def test_uniform_closed_form(self):
        # psi(t) = E exp(it/V) = cos t - t(pi/2 - Si t) + i(sin t - t Ci t)
        # for V uniform; the Moebius draws are Y = c + c/V (clamped) and
        # Y = 1 + c/V (remark 2), so psi_Y(t) = exp(ist) psi(ct), s = c or 1
        def psi(t):
            si, ci = sici(t)
            return complex(math.cos(t) - t * (math.pi / 2.0 - si),
                           math.sin(t) - t * ci)

        cases = [(uniform_family(), 1.0, 0.0),
                 (mobius_clamped_family("constant:2"), 2.0, 2.0),
                 (mobius_remark2_family("constant:2"), 2.0, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fam, c, s in cases:
                for t in (1e-3, 1e-2, 0.1, 0.3, 1.0, 2.5, 3.0, 7.0, 10.0):
                    oracle = np.exp(1j * s * t) * psi(c * t)
                    a_val, b_val = char_components(fam, 1, t)
                    assert a_val == pytest.approx(oracle.real - 1.0,
                                                  abs=1e-12)
                    assert b_val == pytest.approx(oracle.imag, abs=1e-12)

    def test_odd_even_symmetry(self):
        fam = uniform_family()
        a_pos, b_pos = char_components(fam, 1, 1.4)
        a_neg, b_neg = char_components(fam, 1, -1.4)
        assert a_neg == pytest.approx(a_pos, abs=1e-12)
        assert b_neg == pytest.approx(-b_pos, abs=1e-12)

    def test_zero(self):
        assert char_components(uniform_family(), 1, 0.0) == (0.0, 0.0)

    def test_discrete_against_direct_sum(self):
        fam = discrete_beta_family("constant:0.5")
        t = 0.7
        k = np.arange(2, 2_000_001)
        masses = np.array([0.5 / (kk - 1.5) - 0.5 / (kk - 0.5)
                           for kk in (2, 3)])  # head exact
        kk = k.astype(float)
        m = 0.5 / (kk - 1.5) - 0.5 / (kk - 0.5)
        direct = np.sum(m * np.exp(1j * t * kk))
        a_val, b_val = char_components(fam, 1, t)
        assert a_val == pytest.approx(direct.real - 1.0, abs=1e-5)
        assert b_val == pytest.approx(direct.imag, abs=1e-5)


class TestProposition24:
    def test_uniform_limit(self):
        prof = proposition_2_4_profile(uniform_family(), 1, GRID)
        assert prof.fitted_limit == pytest.approx(1.0 - EULER_GAMMA, abs=1e-3)

    def test_discrete_beta0_limit(self):
        prof = proposition_2_4_profile(discrete_beta_family("constant:0"),
                                       1, GRID)
        assert prof.fitted_limit == pytest.approx(1.0, abs=1e-2)


class TestFamilyFromConfig:
    def test_roundtrip(self):
        fam = family_from_config({"kind": "discrete_beta",
                                  "beta_n": "constant:0.5"})
        assert fam.is_discrete()
        assert fam.beta(1) == 0.5

    def test_unknown(self):
        with pytest.raises(DomainError):
            family_from_config({"kind": "zeta"})

    @pytest.mark.parametrize("kind, key, value", [
        ("mobius_clamped", "c_n", 0.4), ("mobius_clamped", "c_n", -1),
        ("mobius_clamped", "c_n", [1.0, 0.4]),
        ("mobius_clamped", "c_n", "linear:0.25"),
        ("mobius_remark2", "c_n", 0), ("mobius_remark2", "c_n", float("nan")),
        ("mobius_remark2", "c_n", "constant:inf"),
        ("discrete_beta", "beta_n", 1.0), ("discrete_beta", "beta_n", -0.1),
        ("discrete_beta", "beta_n", "linear:0.2")])
    def test_member_outside_domain(self, kind, key, value):
        # a constant or a list is rejected when parsed, a linear tag when
        # its first member outside the domain is read
        with pytest.raises(DomainError, match=kind):
            fam = family_from_config({"kind": kind, key: value})
            fam.alpha(np.arange(1, 11))

    @pytest.mark.parametrize("kind, key, value", [
        ("mobius_clamped", "c_n", 0.5), ("mobius_remark2", "c_n", 1e-3),
        ("discrete_beta", "beta_n", 0.0), ("discrete_beta", "beta_n",
                                           "linear:0.09")])
    def test_domain_edges_accepted(self, kind, key, value):
        fam = family_from_config({"kind": kind, key: value})
        assert np.all(np.isfinite(member_values(fam.alpha,
                                                np.arange(1, 11))))
