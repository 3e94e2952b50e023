"""Special-function layer: quadrature identities against closed forms."""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import psi, sici

from oppenheimlab.errors import AccuracyError, DomainError, PoleError
from oppenheimlab.specfun import (
    EULER_GAMMA,
    c2_discrete,
    c2_discrete_quad,
    cin,
    cosine_integral,
    gauss_2f1_unit,
    lemma_a1,
    quad,
)


def test_euler_gamma_value():
    assert EULER_GAMMA == pytest.approx(-psi(1.0), abs=1e-15)


class TestCosineIntegrals:
    def test_ci_against_scipy(self):
        # the grid reaches x = 1e-4, where 1/t peaks inside the first period
        xs = (*np.geomspace(1e-4, 1e3, 30), 0.1, 0.5, 2.0, 5.0, 10.0, 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in xs:
                assert cosine_integral(x) == pytest.approx(sici(x)[1],
                                                           abs=1e-12)

    def test_ci_at_one(self):
        # classical tabulated value of Ci(1)
        assert cosine_integral(1.0) == pytest.approx(0.3374039229009681,
                                                     abs=1e-12)

    def test_cin_small_x_series(self):
        # Cin(x) = x^2/4 - x^4/96 + x^6/4320 - ...
        x = 1e-3
        series = x**2 / 4 - x**4 / 96 + x**6 / 4320
        assert cin(x) == pytest.approx(series, rel=1e-12)

    def test_cin_ci_log_identity(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            lhs = cin(x) + cosine_integral(x)
            rhs = math.log(x) + EULER_GAMMA
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cosine_integral(0.0)
        with pytest.raises(DomainError):
            cosine_integral(-1.0)
        with pytest.raises(DomainError):
            cin(-0.5)

    def test_cin_at_zero(self):
        assert cin(0.0) == 0.0


class TestLemmaA1:
    def test_value_and_split(self):
        a_val, b_val, total = lemma_a1()
        assert total == pytest.approx(1.0 - EULER_GAMMA, abs=1e-8)
        assert a_val + b_val == pytest.approx(total, abs=1e-14)

    def test_runs_fast(self):
        t0 = time.perf_counter()
        lemma_a1()
        assert time.perf_counter() - t0 < 1.0


class TestGauss2F1:
    def test_beta_zero_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        for z in (0.5, -0.5, 0.5j, -0.9):
            val = gauss_2f1_unit(0.0, z)
            expected = -np.log(1.0 - complex(z)) / complex(z)
            assert abs(val - expected) <= 1e-10

    def test_beta_half_series(self):
        # 2F1(1, 1/2; 3/2; z) = sum_k z^k / (2k+1) = sum_k 0.5/(k+0.5) z^k
        for z in (0.3, -0.4, 0.5, -0.9, 0.2 + 0.1j):
            k = np.arange(4000)
            expected = np.sum(0.5 / (k + 0.5) * np.asarray(complex(z))**k)
            assert abs(gauss_2f1_unit(0.5, z) - expected) <= 1e-10

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.9])
    def test_against_mpmath_on_both_sides_of_the_series_radius(self, beta):
        # |1 - z| <= 1/4 takes the logarithmic series, the rest the Euler
        # integral; t = 0.2527 and 0.2507 sit either side of the switch
        ts = (1e-7, -1e-6, 1e-5, 1e-3, 0.1, 0.2507, 0.2527, 0.5, 3.0)
        zs = [complex(math.cos(t), math.sin(t)) for t in ts]
        zs += [0.8, 0.76, 0.9 + 0.1j, -0.9]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in zs:
                ref = complex(mpmath.hyp2f1(1, 1 - mpmath.mpf(beta),
                                            2 - mpmath.mpf(beta),
                                            mpmath.mpc(z)))
                assert abs(gauss_2f1_unit(beta, z) - ref) <= 1e-12 * abs(ref)

    def test_pole_at_z_one_beta_positive(self):
        with pytest.raises(PoleError):
            gauss_2f1_unit(0.5, 1.0)

    def test_z_zero(self):
        assert gauss_2f1_unit(0.3, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_beta_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1_unit(1.0, 0.5)
        with pytest.raises(DomainError):
            gauss_2f1_unit(-0.1, 0.5)


class TestC2Discrete:
    def test_half_is_log_two(self):
        assert c2_discrete(0.5) == pytest.approx(math.log(2.0), abs=1e-8)

    def test_digamma_identity(self):
        # the quadrature of the centering integral equals the closed form
        # (1-beta)(psi(1) - psi(1-beta))
        for beta in (0.1, 0.25, 0.75, 0.9):
            oracle = (1.0 - beta) * (psi(1.0) - psi(1.0 - beta))
            assert c2_discrete_quad(beta) == pytest.approx(oracle, abs=1e-8)
            assert c2_discrete(beta) == pytest.approx(oracle, abs=1e-15)

    def test_closed_form_matches_quadrature_on_grid(self):
        # beta >= 0.991 underflows s^p to 0 inside the quadrature, which
        # must neither warn nor lose accuracy
        betas = [*np.linspace(0.0, 0.95, 96), 0.991, 0.995, 0.999]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            worst = max(abs(c2_discrete(b) - c2_discrete_quad(b))
                        for b in betas)
        assert worst <= 1e-10

    def test_half_matches_quadrature_bitwise(self):
        assert c2_discrete(0.5) == c2_discrete_quad(0.5)

    def test_array_input(self):
        betas = np.array([[0.0, 0.25], [0.5, 0.9]])
        out = c2_discrete(betas)
        assert out.shape == betas.shape
        for b, v in zip(betas.ravel(), out.ravel()):
            assert v == c2_discrete(float(b))
        assert isinstance(c2_discrete(0.25), float)

    def test_beta_zero(self):
        assert c2_discrete(0.0) == 0.0
        assert c2_discrete_quad(0.0) == 0.0

    def test_domain(self):
        for f in (c2_discrete, c2_discrete_quad):
            with pytest.raises(DomainError):
                f(1.0)
            with pytest.raises(DomainError):
                f(-0.2)
            with pytest.raises(DomainError):
                f(float("nan"))
        with pytest.raises(DomainError):
            c2_discrete(np.array([0.2, 1.0]))


class TestQuad:
    def test_dirichlet(self):
        # int_pi^inf sin(t)/t dt = pi/2 - Si(pi), with an error estimate
        # within 1 x QUAD_TOL
        val = quad(lambda t: 1.0 / t, math.pi, math.inf, "dirichlet", 1,
                   weight="sin")
        assert val == pytest.approx(math.pi / 2.0 - sici(math.pi)[0],
                                    abs=1e-12)

    @pytest.mark.parametrize("f, b, options", [
        (math.exp, 2.0, {}),
        # the real part is 0, with estimate 0: only the imaginary one counts
        (lambda s: 1j * math.exp(s), 2.0, {"complex_func": True}),
        (lambda t: 1.0 / t**2, math.inf, {"weight": "cos"}),
    ])
    def test_estimate_beyond_slack_raises(self, f, b, options):
        # QUADPACK never estimates below 50 eps times the integral of |f|,
        # so no nonzero integral meets a slack of 0
        with pytest.raises(AccuracyError, match="the named integral") as info:
            quad(f, 1.0, b, "the named integral", 0, **options)
        assert info.value.achieved > 0.0
