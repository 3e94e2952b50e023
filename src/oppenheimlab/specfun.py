"""Special-function kernel: cosine integrals, the A/B constants whose sum is
1 - gamma, the (1, 1-beta, 2-beta) slice of the Gauss hypergeometric function,
and the discrete-family centering constant (closed form, with its quadrature
kept as an independent cross-check).

Everything here is deterministic and pure; oscillatory infinite integrals are
summed over half-period chunks with Euler (alternating-series) acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .errors import AccuracyError, DomainError, PoleError

# Euler-Mascheroni constant to 30 digits; quadrature identities need far more
# precision than the usual 0.577... quote.
EULER_GAMMA = 0.577215664901532860606512090082


@dataclass(frozen=True)
class QuadratureSpec:
    """Error targets for the quadrature routines in this package."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=8)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gl_integrate(f, a: float, b: float, order: int = 32) -> float:
    """Fixed-order Gauss-Legendre integral of a smooth integrand on [a, b]."""
    x, w = _gl_nodes(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * x)))


def euler_accelerated_sum(terms) -> float:
    """Sum of a (near-)alternating sequence by iterated averaging of partial
    sums.  Converges geometrically when the term magnitudes vary smoothly."""
    s = np.cumsum(np.asarray(terms, dtype=float))
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return float(s[0])


def chunked_oscillatory_integral(
    f,
    start: float,
    half_period,
    spec: QuadratureSpec = DEFAULT_SPEC,
    max_chunks: int = 512,
) -> tuple[float, float]:
    """Integrate f over [start, infinity) when f changes sign once per chunk.

    ``half_period`` is either a number or a callable t -> local half-period;
    ``start`` should sit on a sign change of f so the chunk integrals
    alternate.  Returns (value, error_estimate).
    """
    terms = []
    t = float(start)
    for _ in range(max_chunks):
        h = half_period(t) if callable(half_period) else half_period
        terms.append(_gl_integrate(f, t, t + h))
        t += h
        if len(terms) >= 12 and abs(terms[-1]) < spec.abs_tol:
            break
    total = euler_accelerated_sum(terms)
    err = abs(total - euler_accelerated_sum(terms[:-1]))
    if len(terms) < 12:  # envelope died before acceleration had material
        err = max(err, abs(terms[-1]))
    return total, err


def cosine_integral(x: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Ci(x) = -integral of cos(t)/t over [x, infinity), for x > 0."""
    if x <= 0:
        raise DomainError("cosine_integral requires x > 0")
    # First zero of cos at or after x.
    k = math.ceil((x - math.pi / 2) / math.pi)
    z0 = math.pi / 2 + k * math.pi
    head = _gl_integrate(lambda t: np.cos(t) / t, x, z0)
    tail, err = chunked_oscillatory_integral(
        lambda t: np.cos(t) / t, z0, math.pi, spec
    )
    if err > 10 * spec.abs_tol:
        raise AccuracyError("cosine_integral tail did not converge", err)
    return -(head + tail)


def cin(x: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
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

    val, err = integrate.quad(
        integrand, 0.0, x, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=500,
    )
    if err > 100 * spec.abs_tol:
        raise AccuracyError("cin quadrature missed tolerance", err)
    return val


def lemma_a1(spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float, float]:
    """The two constants A = int_0^1 (sin x - x)/x^2 dx and
    B = int_1^inf (sin x)/x^2 dx, computed by independent quadratures,
    together with their sum (which equals 1 - gamma)."""

    def a_integrand(t):
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < 1e-6
        safe = np.where(small, 1.0, t)
        return np.where(small, -t / 6.0, (np.sin(safe) - safe) / safe**2)

    a_val, a_err = integrate.quad(
        a_integrand, 0.0, 1.0, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=500,
    )
    # B: head [1, pi] then half-period chunks aligned to the zeros of sin.
    head = _gl_integrate(lambda t: np.sin(t) / t**2, 1.0, math.pi)
    tail, b_err = chunked_oscillatory_integral(
        lambda t: np.sin(t) / t**2, math.pi, math.pi, spec
    )
    if a_err > 100 * spec.abs_tol:
        raise AccuracyError("lemma_a1 A-integral missed tolerance", a_err)
    if b_err > 10 * spec.abs_tol:
        raise AccuracyError("lemma_a1 B-integral missed tolerance", b_err)
    b_val = head + tail
    return a_val, b_val, a_val + b_val


def gauss_2f1_unit(beta: float, z: complex,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """2F1(1, 1-beta; 2-beta; z) for 0 <= beta < 1 and |z| <= 1, z != 1.

    Uses the Euler integral (1-beta) * int_0^1 xi^(-beta) / (1 - xi z) d(xi)
    with the substitution xi = s^(1/(1-beta)) absorbing the endpoint
    singularity, so the transformed integrand is int_0^1 ds / (1 - s^p z)
    with p = 1/(1-beta).
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
    p = 1.0 / (1.0 - beta)

    def real_part(s):
        return (1.0 / (1.0 - np.power(s, p) * z)).real

    def imag_part(s):
        return (1.0 / (1.0 - np.power(s, p) * z)).imag

    kwargs = dict(epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                  limit=500)
    re, re_err = integrate.quad(real_part, 0.0, 1.0, **kwargs)
    im, im_err = integrate.quad(imag_part, 0.0, 1.0, **kwargs)
    if max(re_err, im_err) > 1e3 * spec.abs_tol:
        raise AccuracyError("gauss_2f1_unit quadrature missed tolerance",
                            max(re_err, im_err))
    return complex(re, im)


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


def c2_discrete_quad(beta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
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

    val, err = integrate.quad(
        integrand, 0.0, 1.0, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=500,
    )
    if err > 100 * spec.abs_tol:
        raise AccuracyError("c2_discrete_quad quadrature missed tolerance", err)
    return val
