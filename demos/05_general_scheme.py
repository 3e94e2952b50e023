"""The general digit scheme, distribution families, and condition checks.

Draws Engel ratio chains through the one chain kernel, ``ratio_path``, from
uniforms and from the draws of a Möbius digit family, prints each family's
centering constants in closed form, verifies the weight conditions behind
the limit theorems numerically, and estimates the joint
characteristic-function distance between a digit chain's ratio variables
and their independent model.
"""

import numpy as np

from oppenheimlab import (
    EULER_GAMMA,
    c2_discrete,
    centering_b,
    char_distance_check,
    check_theorem_3_2_conditions,
    check_theorem_4_1_conditions,
    cesaro_scheme,
    discrete_beta_family,
    mobius_clamped_family,
    mobius_remark2_family,
    power_alpha_scheme,
    ratio_path,
    uniform_family,
)


def main():
    # column 0 fixes the first digit; column k drives the ratio R_k
    n = 6
    u = 1.0 - np.random.default_rng(11).random((1, n + 1))
    print("Engel ratios from uniforms:",
          np.round(ratio_path("engel", u)[0], 3).tolist())
    mobius = mobius_clamped_family(2)
    u[:, 1:] = mobius.sampler(np.arange(1, n + 1), u[:, 1:])
    print("Engel ratios from Möbius draws (c_n = 2):",
          np.round(ratio_path("engel", u)[0], 3).tolist())

    # a continuous member is the law of 1/(s + c/V), V uniform, with
    # b = s + c - 1 - c log c; the discrete kind has c2 = c - 1 in digammas
    print("\nfamily constants (b, c = 1 - alpha gamma + b), in closed form:")
    for name, fam in [("uniform", uniform_family()),
                      ("mobius clamped", mobius_clamped_family(1)),
                      ("mobius remark2", mobius_remark2_family(2)),
                      ("discrete beta=0", discrete_beta_family(0)),
                      ("discrete beta=.5", discrete_beta_family(0.5))]:
        alpha_gamma = fam.alpha(1) * EULER_GAMMA
        if fam.is_discrete():
            c = 1.0 + c2_discrete(fam.beta(1))
            b = c - 1.0 + alpha_gamma
        else:
            b = float(centering_b(fam, 1))
            c = 1.0 - alpha_gamma + b
        print(f"  {name:>16}: b = {b:+.6f}  c = {c:+.6f}")

    print("\nweight-condition verdicts:")
    for name, sch in [("cesaro", cesaro_scheme()),
                      ("power alpha=0.5", power_alpha_scheme(0.5))]:
        weak = check_theorem_3_2_conditions(sch, np.ones(10**5), 10**5)
        dist = check_theorem_4_1_conditions(sch, np.ones(10**5), 10**5)
        print(f"  {name:>16}: weak-law passed={weak.passed} "
              f"(ell={weak.ell:.3f}), distributional passed={dist.passed} "
              f"(kappa={dist.kappa:.3f})")

    res = char_distance_check(2, (0.1, 0.2), 10**5)
    print(f"\njoint ECF distance (Engel, n=2, t=(0.1,0.2)): "
          f"{res['estimate']:.4f} vs bound {res['bound']:.2f} "
          f"(+3se = {3 * res['se']:.4f}) -> passed={res['passed']}")


if __name__ == "__main__":
    main()
