"""Deterministic special-function identities behind the limit theorems.

Evaluates the two constants of Lemma A.1, whose sum is 1 - gamma, the
beta = 0 slice of the Gauss hypergeometric function against its closed form,
and the discrete centering constant c2's digamma closed form against its
quadrature.
"""

import math

import numpy as np
from oppenheimlab import (
    EULER_GAMMA,
    c2_discrete,
    c2_discrete_quad,
    gauss_2f1_unit,
    lemma_a1,
)


def main():
    a_val, b_val, total = lemma_a1()
    print("Lemma A.1: A = int_0^1 (sin x - x)/x^2 dx, "
          "B = int_1^inf sin(x)/x^2 dx")
    print(f"A = {a_val:+.12f}")
    print(f"B = {b_val:+.12f}")
    print(f"A + B = {total:.12f}  vs  1 - gamma = {1 - EULER_GAMMA:.12f}")

    print("\n2F1 slice at beta = 0 vs -log(1-z)/z:")
    for z in (0.5, -0.9):
        val = gauss_2f1_unit(0.0, z)
        closed = -np.log(1.0 - z) / z
        print(f"  z = {z:+.1f}: {val:.12f} vs {closed:.12f}")

    print("\nc2(beta) = (1-beta)(psi(1) - psi(1-beta)) vs its quadrature:")
    for beta in (0.25, 0.5, 0.9):
        print(f"  beta = {beta}: {c2_discrete(beta):.12f} vs "
              f"{c2_discrete_quad(beta):.12f}")
    print(f"  (beta = 1/2 gives log 2 = {math.log(2):.12f})")


if __name__ == "__main__":
    main()
