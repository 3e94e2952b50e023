"""End-to-end acceptance suite.

Each test evaluates one acceptance gate and prints a single PASS/FAIL line
(visible on the terminal even under capture).  Monte Carlo gates use frozen
master seeds so the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from oppenheimlab.errors import DomainError
from oppenheimlab.expansions import ratio_path
from oppenheimlab.experiments import (
    ExperimentConfig,
    char_distance_check,
    distributional_run,
    exact_weak_law_run,
    gamma_from_harmonic,
    v_samples,
)
from oppenheimlab.limitlaw import StableLimitLaw, ks_distance, sample_many
from oppenheimlab.specfun import (
    EULER_GAMMA,
    c2_discrete,
    c2_discrete_quad,
    cin,
    cosine_integral,
    gauss_2f1_unit,
    lemma_a1,
)


def report(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_constant_sum_identity(capsys):
    t0 = time.perf_counter()
    a_val, b_val, total = lemma_a1()
    elapsed = time.perf_counter() - t0
    err = abs(total - (1.0 - EULER_GAMMA))
    ok = err <= 1e-8 and elapsed < 1.0
    report(capsys, "01 quadrature constant A+B = 1-gamma", ok,
           f"err={err:.2e} time={elapsed:.3f}s")


def test_02_cin_ci_identity(capsys):
    worst = max(abs(cin(x) + cosine_integral(x) - math.log(x) - EULER_GAMMA)
                for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    ok = worst <= 1e-10
    report(capsys, "02 Cin/Ci log identity", ok, f"max err={worst:.2e}")


def test_03_gamma_recovery(capsys):
    t0 = time.perf_counter()
    err = abs(gamma_from_harmonic(10**6) + EULER_GAMMA)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and elapsed < 0.1
    report(capsys, "03 gamma from harmonic numbers", ok,
           f"err={err:.2e} time={elapsed:.3f}s")


def test_04_c2_discrete_half(capsys):
    # the digamma closed form and the independent quadrature, both vs log 2
    err = abs(c2_discrete(0.5) - math.log(2.0))
    err_quad = abs(c2_discrete_quad(0.5) - math.log(2.0))
    ok = max(err, err_quad) <= 1e-8
    report(capsys, "04 discrete centering constant at beta=1/2", ok,
           f"err={err:.2e} quadrature err={err_quad:.2e}")


def test_05_hypergeometric_slice(capsys):
    worst0 = 0.0
    for z in (0.5, -0.5, 0.5j, -0.9):
        val = gauss_2f1_unit(0.0, z)
        worst0 = max(worst0, abs(val + np.log(1.0 - complex(z)) / complex(z)))
    worst_h = 0.0
    k = np.arange(4000)
    for z in (0.3, -0.4, 0.5, -0.9):
        series = np.sum(0.5 / (k + 0.5) * complex(z)**k)
        worst_h = max(worst_h, abs(gauss_2f1_unit(0.5, z) - series))
    ok = worst0 <= 1e-10 and worst_h <= 1e-10
    report(capsys, "05 hypergeometric slice closed forms", ok,
           f"beta0 err={worst0:.2e} beta_half err={worst_h:.2e}")


def test_06_first_digit_frequencies(capsys):
    t0 = time.perf_counter()
    # Lüroth digits are i.i.d., so the 1e6 digits of one chain sample the
    # first-digit law
    u = 1.0 - np.random.default_rng(20260823).random((1, 10**6 + 1))
    d = 1.0 + ratio_path("luroth", u)[0]
    worst_sigmas = 0.0
    for k in range(2, 11):
        p = 1.0 / (k * (k - 1.0))
        sigma = math.sqrt(p * (1.0 - p) / d.size)
        worst_sigmas = max(worst_sigmas, abs(np.mean(d == k) - p) / sigma)
    elapsed = time.perf_counter() - t0
    ok = worst_sigmas <= 3.0 and elapsed < 10.0
    report(capsys, "06 first-digit law at 1e6 samples", ok,
           f"worst deviation={worst_sigmas:.2f} sigma time={elapsed:.2f}s")


def test_07_weighted_mean_trend(capsys):
    cfg = ExperimentConfig(master_seed=20260823,
                           n_grid=(100, 1000, 10000, 100000),
                           replications=200, scheme="luroth")
    rec = exact_weak_law_run(cfg)
    meds = [row["t_median"] for row in rec.per_n]
    gaps = [m - 1.0 for m in meds]
    strictly_approaching = all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
    ok = strictly_approaching and gaps[-1] <= 0.15
    report(capsys, "07 digit-average median trend to 1", ok,
           f"medians={[round(m, 4) for m in meds]} final gap={gaps[-1]:.3f}")


def test_08_distributional_ks_decreases(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(master_seed=106, n_grid=(100, 1000, 10000),
                           replications=5000, mode="classical_1_2")
    rec = distributional_run(cfg)
    ks = [row["ks"] for row in rec.per_n]
    elapsed = time.perf_counter() - t0
    ok = ks[0] > ks[1] > ks[2] and ks[2] <= 0.1 and elapsed < 300.0
    report(capsys, "08 centered-sum KS against stable law", ok,
           f"ks={[round(k, 4) for k in ks]} time={elapsed:.1f}s")


def test_09_mode_equivalence(capsys):
    cfg_beta0 = ExperimentConfig(master_seed=203, n_grid=(10000,),
                                 replications=5000, mode="cor_4_3",
                                 beta="constant:0")
    cfg_classic = ExperimentConfig(master_seed=1203, n_grid=(10000,),
                                   replications=5000, mode="classical_1_2")
    va = v_samples(cfg_beta0, 10000, 0)
    vb = v_samples(cfg_classic, 10000, 0)
    d = ks_2samp(va, vb).statistic
    offset = float(np.median(va) - np.median(vb))
    ok = d <= 0.02
    report(capsys, "09 beta=0 mode equals classical mode", ok,
           f"two-sample ks={d:.4f} median offset={offset:+.4f}")


def test_10_joint_characteristic_bound(capsys):
    res = char_distance_check(2, (0.1, 0.2), 10**5)
    ok = res["estimate"] <= res["bound"] + 3.0 * res["se"]
    report(capsys, "10 joint characteristic-function distance", ok,
           f"estimate={res['estimate']:.4f} "
           f"bound+3se={res['bound'] + 3 * res['se']:.4f}")


def test_11_cdf_sampler_cross_validation(capsys):
    law = StableLimitLaw(1.0)
    xs = sample_many(law, np.random.default_rng(20260823), 10**6)
    d = ks_distance(xs, law)
    ok = d <= 0.002
    report(capsys, "11 inversion CDF vs independent sampler", ok,
           f"ks={d:.5f} at 1e6 samples")


def test_12_reproducibility(capsys):
    cfg1 = ExperimentConfig(master_seed=9, n_grid=(100, 500),
                            replications=300)
    cfg2 = ExperimentConfig(master_seed=9, n_grid=(100, 500),
                            replications=300)
    same_digest = cfg1.digest() == cfg2.digest()
    r1 = distributional_run(cfg1)
    r2 = distributional_run(cfg2)
    ok = same_digest and r1 == r2 and r1.per_n == r2.per_n
    report(capsys, "12 bit-identical reruns per config digest", ok,
           f"digest={cfg1.digest()[:12]} identical={r1 == r2}")
