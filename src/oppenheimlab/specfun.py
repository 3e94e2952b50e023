"""Special-function kernel: cosine integrals, the A/B constants whose sum is
1 - gamma, the (1, 1-beta, 2-beta) slice of the Gauss hypergeometric function,
and the discrete-family centering constant (closed form, with its quadrature
kept as an independent cross-check).

Everything here is deterministic and pure; oscillatory infinite integrals go
through QUADPACK's Fourier rules (QAWO and QAWF, via ``fourier_integral``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from .errors import AccuracyError, DomainError, PoleError

# Euler-Mascheroni constant to 30 digits; quadrature identities need far more
# precision than the usual 0.577... quote.
EULER_GAMMA = 0.577215664901532860606512090082


# absolute and relative error target of every quadrature in this package
QUAD_TOL = 1e-10


def fourier_integral(f, a: float, weight: str) -> tuple[float, float]:
    """Integral of f(x) cos(x) (weight "cos") or f(x) sin(x) (weight "sin")
    over [a, infinity), with its error estimate, by QUADPACK's Fourier rules.

    QAWO takes the first half-period [a, a + pi] and QAWF the rest: one QAWF
    call from a raises "bad integrand behaviour" when f peaks steeply at a.
    Both are asked for QUAD_TOL / 100, because QAWF's achieved error reached
    QUAD_TOL / 40 against ``scipy.special.sici`` when asked for QUAD_TOL.
    """
    eps = QUAD_TOL / 100.0
    head, head_err = integrate.quad(f, a, a + math.pi, weight=weight,
                                    wvar=1.0, epsabs=eps,
                                    epsrel=QUAD_TOL, limit=500)
    tail, tail_err = integrate.quad(f, a + math.pi, math.inf, weight=weight,
                                    wvar=1.0, epsabs=eps, limit=500)
    return head + tail, head_err + tail_err


def cosine_integral(x: float) -> float:
    """Ci(x) = -integral of cos(t)/t over [x, infinity), for x > 0."""
    if x <= 0:
        raise DomainError("cosine_integral requires x > 0")
    val, err = fourier_integral(lambda t: 1.0 / t, x, "cos")
    if err > 10 * QUAD_TOL:
        raise AccuracyError("cosine_integral did not converge", err)
    return -val


def cin(x: float) -> float:
    """Cin(x) = integral of (1 - cos t)/t over [0, x], for x >= 0."""
    if x < 0:
        raise DomainError("cin requires x >= 0")
    if x == 0:
        return 0.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < 1e-8
        safe = np.where(small, 1.0, t)
        out = np.where(small, t / 2.0, (1.0 - np.cos(safe)) / safe)
        return out

    val, err = integrate.quad(integrand, 0.0, x, epsabs=QUAD_TOL,
                              epsrel=QUAD_TOL, limit=500)
    if err > 100 * QUAD_TOL:
        raise AccuracyError("cin quadrature missed tolerance", err)
    return val


def lemma_a1() -> tuple[float, float, float]:
    """The two constants A = int_0^1 (sin x - x)/x^2 dx and
    B = int_1^inf (sin x)/x^2 dx, computed by independent quadratures,
    together with their sum (which equals 1 - gamma)."""

    def a_integrand(t):
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < 1e-6
        safe = np.where(small, 1.0, t)
        return np.where(small, -t / 6.0, (np.sin(safe) - safe) / safe**2)

    a_val, a_err = integrate.quad(a_integrand, 0.0, 1.0, epsabs=QUAD_TOL,
                                  epsrel=QUAD_TOL, limit=500)
    b_val, b_err = fourier_integral(lambda t: 1.0 / t**2, 1.0, "sin")
    if a_err > 100 * QUAD_TOL:
        raise AccuracyError("lemma_a1 A-integral missed tolerance", a_err)
    if b_err > 10 * QUAD_TOL:
        raise AccuracyError("lemma_a1 B-integral missed tolerance", b_err)
    return a_val, b_val, a_val + b_val


# |1 - z| up to which gauss_2f1_unit sums the logarithmic series; 40 of its
# terms reach 4**-40 = 8e-25 relative there
_LOG_SERIES_RADIUS = 0.25
_LOG_SERIES_TERMS = 40


def gauss_2f1_unit(beta: float, z: complex) -> complex:
    """2F1(1, 1-beta; 2-beta; z) for 0 <= beta < 1 and |z| <= 1, z != 1.

    Near the pole, |1 - z| <= 1/4, it sums the logarithmic series for
    c = a + b (Abramowitz-Stegun 15.3.10 with a = 1, b = 1 - beta):
    b sum_n ((b)_n / n!) [psi(n+1) - psi(b+n) - log(1-z)] (1-z)^n.
    Elsewhere it uses the Euler integral
    (1-beta) * int_0^1 xi^(-beta) / (1 - xi z) d(xi) with the substitution
    xi = s^(1/(1-beta)) absorbing the endpoint singularity, so the
    transformed integrand is int_0^1 ds / (1 - s^p z) with p = 1/(1-beta).
    """
    if not 0.0 <= beta < 1.0:
        raise DomainError("gauss_2f1_unit requires beta in [0, 1)")
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise DomainError("gauss_2f1_unit requires |z| <= 1")
    if z == 1.0:
        raise PoleError("gauss_2f1_unit has a pole at z = 1")
    if z == 0.0:
        return 1.0 + 0.0j
    w = 1.0 - z
    if abs(w) <= _LOG_SERIES_RADIUS:
        b = 1.0 - beta
        n = np.arange(_LOG_SERIES_TERMS, dtype=float)
        pochhammer = np.cumprod(np.r_[1.0, (b + n[:-1]) / (n[:-1] + 1.0)])
        bracket = (special.digamma(n + 1.0) - special.digamma(b + n)
                   - np.log(w))
        return complex(b * np.sum(pochhammer * bracket * w ** n))
    p = 1.0 / (1.0 - beta)

    val, err = integrate.quad(lambda s: 1.0 / (1.0 - np.power(s, p) * z),
                              0.0, 1.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL,
                              limit=500, complex_func=True)
    err = max(err.real, err.imag)
    if err > 1e3 * QUAD_TOL:
        raise AccuracyError("gauss_2f1_unit quadrature missed tolerance", err)
    return complex(val)


def c2_discrete(beta):
    """(1-beta)(psi(1) - psi(1-beta)) for beta in [0, 1), elementwise.

    Closed form of the discrete-family centering integral that
    ``c2_discrete_quad`` evaluates by quadrature.  Accepts a scalar (returns
    a float) or an array of betas (returns an array of the same shape).
    """
    b = np.asarray(beta, dtype=float)
    if not np.all((b >= 0.0) & (b < 1.0)):
        raise DomainError("c2_discrete requires beta in [0, 1)")
    c1 = 1.0 - b
    out = c1 * (special.digamma(1.0) - special.digamma(c1))
    return float(out) if out.ndim == 0 else out


def c2_discrete_quad(beta: float) -> float:
    """(1-beta) * int_0^1 (1 - x^beta) / (x^beta (1-x)) dx for beta in [0, 1).

    The x^(-beta) endpoint singularity is removed by x = s^(1/(1-beta)),
    after which the factor (1 - x^beta)/(1 - x) is bounded (it tends to beta
    at x = 1).  The independent cross-check of the closed form
    ``c2_discrete``.
    """
    if not 0.0 <= beta < 1.0:
        raise DomainError("c2_discrete_quad requires beta in [0, 1)")
    if beta == 0.0:
        return 0.0
    p = 1.0 / (1.0 - beta)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        x = np.power(s, p)
        near_one = x > 1.0 - 1e-9
        x_safe = np.where(near_one, 0.5, x)
        # x^beta = s^(p beta), whose log stays finite where s^p underflows
        ratio = -np.expm1(beta * p * np.log(s)) / (1.0 - x_safe)
        return np.where(near_one, beta, ratio)

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=QUAD_TOL,
                              epsrel=QUAD_TOL, limit=500)
    if err > 100 * QUAD_TOL:
        raise AccuracyError("c2_discrete_quad quadrature missed tolerance", err)
    return val
