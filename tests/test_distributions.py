"""Distribution families: CDFs, samplers, constants, characteristic parts."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import sici

from oppenheimlab.distributions import (
    DistributionFamily,
    centering_b,
    centering_b_quad,
    char_components,
    char_components_quad,
    discrete_beta_family,
    discrete_beta_pmf,
    discrete_digits,
    family_from_config,
    make_sequence,
    member_values,
    mobius_clamped_family,
    mobius_remark2_family,
    proposition_2_4_profile,
    reciprocal_char,
    uniform_family,
)
from oppenheimlab.errors import DomainError
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

    @pytest.mark.parametrize("tag", [
        "quadratic:n", True, "constant:abc", "linear:abc", "constant:2:3",
        "constant:n", "loglog:5"])
    def test_bad_tag(self, tag):
        # the argument of a tag is a number, and loglog takes none
        with pytest.raises(DomainError):
            make_sequence(tag)

    def test_numpy_numbers(self):
        assert make_sequence(np.int64(2))(3) == 2.0
        assert make_sequence(np.float64(0.5))(3) == 0.5
        with pytest.raises(DomainError, match="bool"):
            make_sequence(np.bool_(True))
        with pytest.raises(DomainError, match="finite"):
            make_sequence(np.float64("nan"))

    def test_callable_rejected(self):
        # a config file cannot give a callable, so no tag is one
        for bad in (lambda k: 1.0 / k, None):
            with pytest.raises(DomainError, match="not a sequence tag"):
                make_sequence(bad)

    def test_exponent_string_is_a_number(self):
        # YAML 1.1 loads 2e0 and 1e-3 as strings
        assert make_sequence("2e0")(3) == 2.0
        assert make_sequence("1e-3")(3) == 1e-3
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(DomainError, match="finite"):
                make_sequence(bad)

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


class TestMemberLaw:
    """A continuous member's CDF, density and support edge follow from its
    (s, c); the family stores nothing else."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(DistributionFamily)] == [
            "kind", "alpha", "sampler", "beta", "shift"]

    @pytest.mark.parametrize("fam, s, c", [
        (uniform_family(), 0.0, 1.0),
        (mobius_clamped_family(2), 2.0, 2.0),
        (mobius_remark2_family(0.5), 1.0, 0.5)])
    def test_closed_forms(self, fam, s, c):
        edge = 1.0 / (s + c)
        assert fam.support_max(1) == edge
        for t in (0.0, 0.3 * edge, 0.9 * edge):
            assert fam.cdf(1, t) == c * t / (1.0 - s * t)
            assert fam.density(1, t) == c / (1.0 - s * t) ** 2
        for t in (edge, 1.0):
            assert fam.cdf(1, t) == 1.0 and fam.density(1, t) == 0.0
        assert fam.cdf(1, -0.5) == 0.0 and fam.density(1, -0.5) == 0.0

    def test_list_family_per_member(self):
        fam = mobius_clamped_family([1.0, 4.0])
        assert np.array_equal(fam.support_max(np.arange(1, 4)),
                              [0.5, 0.125, 0.125])
        assert fam.cdf(2, 0.1) == 0.4 / 0.6

    def test_discrete_kind_has_no_cdf_density_or_edge(self):
        fam = discrete_beta_family(0.5)
        for law in (lambda: fam.cdf(1, 0.3), lambda: fam.density(1, 0.3),
                    lambda: fam.support_max(1)):
            with pytest.raises(DomainError, match="discrete_beta"):
                law()


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


# (kind, s(c)): member c of each Moebius kind is the law of 1/(s + c/V)
MOBIUS = [(mobius_clamped_family, lambda c: c),
          (mobius_remark2_family, lambda c: 1.0)]
MOBIUS_C = (0.5, 0.7, 1.0, 2.0, 3.25, 5.0, 1000.0)


class TestCenteringB:
    @pytest.mark.parametrize("make, shift", MOBIUS,
                             ids=["clamped", "remark2"])
    @pytest.mark.parametrize("c", MOBIUS_C)
    def test_against_mpmath(self, make, shift, c):
        # b = int_0^1 (1/u)(F(u)/u - c) du with F(u) = cu/(1 - su) below
        # the edge 1/(s + c) and 1 above it, at 30 digits
        s = shift(c)
        with mpmath.workdps(30):
            e = 1 / (mpmath.mpf(s) + c)
            ref = (mpmath.quad(lambda u: c * s / (1 - s * u), [0, e])
                   + mpmath.quad(lambda u: (1 / u - c) / u, [e, 1]))
            ref = float(ref)
        fam = make(c)
        assert float(centering_b(fam, 1)) == pytest.approx(ref, rel=1e-12)
        assert centering_b_quad(fam, 1) == pytest.approx(ref, rel=1e-10)

    def test_uniform_is_zero(self):
        assert centering_b(uniform_family(), 1) == 0.0
        assert centering_b_quad(uniform_family(), 1) == pytest.approx(
            0.0, abs=1e-12)

    def test_index_array_equals_per_member_values(self):
        fam = mobius_remark2_family([0.5, 2.0, 1000.0])
        ks = np.arange(1, 6)
        assert np.array_equal(centering_b(fam, ks),
                              [float(centering_b(fam, int(k))) for k in ks])

    def test_discrete_kind_has_no_closed_form(self):
        with pytest.raises(DomainError, match="discrete_beta"):
            centering_b(discrete_beta_family(0.5), 1)


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

    @pytest.mark.parametrize("family", [
        uniform_family(), mobius_clamped_family(0.5),
        mobius_clamped_family(3.25), mobius_remark2_family(0.5),
        mobius_remark2_family(1000.0)],
        ids=["uniform", "mc0.5", "mc3.25", "mr0.5", "mr1000"])
    def test_closed_form_matches_fourier_reference(self, family):
        # the reference asks QUADPACK for 1e-12 absolute on integrals that
        # are then multiplied by t <= 10
        for t in np.geomspace(1e-2, 10.0, 13):
            a_val, b_val = char_components(family, 1, t)
            a_ref, b_ref = char_components_quad(family, 1, t)
            assert a_val == pytest.approx(a_ref, abs=1e-11)
            assert b_val == pytest.approx(b_ref, abs=1e-11)

    @pytest.mark.parametrize("family", [
        uniform_family(), mobius_clamped_family(2.0),
        mobius_remark2_family(2.0)], ids=["uniform", "mc2", "mr2"])
    def test_small_t_finite_without_warnings(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e-8, 1e-4):
                a_val, b_val = char_components(family, 1, t)
                assert math.isfinite(a_val) and math.isfinite(b_val)
                # A(t) = -c pi t/2 + O(t^2 log t) for the law of 1/(s + c/V)
                c = family.alpha(1)
                assert a_val == pytest.approx(-c * math.pi * t / 2.0,
                                              rel=1e-2)

    def test_vectorised_over_members_and_t(self):
        fam = mobius_clamped_family([1.0, 2.0, 3.25])
        ks = np.arange(1, 4)[:, None]
        ts = np.array([-2.0, -1e-4, 0.0, 1e-8, 0.5, 7.0])
        psi = reciprocal_char(fam, ks, ts)
        assert psi.shape == (3, ts.size)
        for (k,), row in zip(ks, psi):
            for t, z in zip(ts, row):
                assert z == reciprocal_char(fam, int(k), float(t))

    def test_odd_even_symmetry(self):
        fam = uniform_family()
        a_pos, b_pos = char_components(fam, 1, 1.4)
        a_neg, b_neg = char_components(fam, 1, -1.4)
        assert a_neg == pytest.approx(a_pos, abs=1e-12)
        assert b_neg == pytest.approx(-b_pos, abs=1e-12)

    def test_zero(self):
        assert char_components(uniform_family(), 1, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    def test_discrete_near_zero_against_mpmath(self, beta):
        # E exp(itZ) = z + (z - 1) z 2F1(1, 1-beta; 2-beta; z), z = exp(it),
        # next to the pole of 2F1 at z = 1
        fam = discrete_beta_family(beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e-5, -1e-5, 1e-6, -1e-6, 1e-7):
                a_val, b_val = char_components(fam, 1, t)
                with mpmath.workdps(30):
                    z = mpmath.expj(t)
                    psi = z + (z - 1) * z * mpmath.hyp2f1(
                        1, 1 - mpmath.mpf(beta), 2 - mpmath.mpf(beta), z)
                    a_ref, b_ref = float(psi.real - 1), float(psi.imag)
                assert a_val == pytest.approx(a_ref, abs=1e-12)
                assert b_val == pytest.approx(b_ref, abs=1e-12)

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

    @pytest.mark.parametrize("grid", [(), (0.5, 1.0), (0.0, 0.5)])
    def test_grid_validation(self, grid):
        with pytest.raises(DomainError, match="nonempty grid in"):
            proposition_2_4_profile(uniform_family(), 1, grid)


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
        ("mobius_clamped", "c_n", "2e0"), ("mobius_remark2", "c_n", "1e-3"),
        ("mobius_clamped", "c_n", np.int64(2)),
        ("mobius_remark2", "c_n", np.float64(1e-3)),
        ("discrete_beta", "beta_n", 0.0), ("discrete_beta", "beta_n",
                                           "linear:0.09")])
    def test_domain_edges_accepted(self, kind, key, value):
        fam = family_from_config({"kind": kind, key: value})
        assert np.all(np.isfinite(member_values(fam.alpha,
                                                np.arange(1, 11))))
