"""Stable limit laws: characteristic function, CDF inversion, sampling."""

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import levy_stable

from oppenheimlab import limitlaw
from oppenheimlab.errors import DomainError
from oppenheimlab.limitlaw import (
    StableLimitLaw,
    cdf,
    cdf_exact,
    cdf_many,
    char_fn,
    ks_distance,
    levy_cf_law,
    sample,
    sample_many,
)
from oppenheimlab.specfun import EULER_GAMMA


class TestCharFn:
    def test_at_zero(self):
        assert char_fn(StableLimitLaw(1.0), 0.0) == 1.0

    def test_conjugate_symmetry(self):
        law = StableLimitLaw(0.7, 0.3)
        for t in (0.5, 1.0, 3.0):
            assert char_fn(law, -t) == pytest.approx(
                np.conj(char_fn(law, t)), abs=1e-15)

    def test_modulus(self):
        law = StableLimitLaw(2.0)
        for t in (0.5, 1.0, 3.0):
            assert abs(char_fn(law, t)) == pytest.approx(
                math.exp(-math.pi * t), abs=1e-12)

    def test_vectorized(self):
        law = StableLimitLaw(1.0)
        ts = np.array([-1.0, 0.0, 2.0])
        vals = char_fn(law, ts)
        assert vals.shape == (3,)
        assert vals[1] == 1.0

    def test_levy_parameters(self):
        law = levy_cf_law()
        assert law.c == pytest.approx(1.0 / math.log(2.0))
        assert law.delta == pytest.approx(EULER_GAMMA / math.log(2.0))

    def test_negative_c_rejected(self):
        with pytest.raises(DomainError):
            StableLimitLaw(-1.0)


class TestCdf:
    def test_monotone_and_bounded(self):
        law = StableLimitLaw(1.0)
        xs = np.linspace(-8.0, 50.0, 200)
        fs = cdf_many(law, xs)
        assert np.all(np.diff(fs) >= -1e-12)
        assert np.all((fs >= 0.0) & (fs <= 1.0))

    def test_cached_matches_exact(self):
        law = StableLimitLaw(1.0)
        for x in (-2.0, -0.5, 0.0, 0.7, 1.0, 3.0, 10.0, 200.0):
            assert cdf(law, x) == pytest.approx(cdf_exact(law, x), abs=2e-5)

    def test_rotated_matches_realaxis_overlap(self):
        # the two inversion routes agree where both apply
        from oppenheimlab.limitlaw import _cdf_realaxis, _cdf_rotated
        for z in (1.0, 1.5, 2.5, 4.0):
            assert _cdf_rotated(z) == pytest.approx(_cdf_realaxis(z),
                                                    abs=5e-6)

    @pytest.mark.parametrize("c", [0.05, 1.0 / math.log(2.0), 5.0, 50.0])
    def test_scaling_identity_against_scipy(self, c):
        # scipy's S1 law with scale c pi/2 and loc -delta is S(c, delta);
        # it is an independent route to F_c(x) = F_1((x + delta)/c - log c)
        law = StableLimitLaw(c, 0.7)
        xs = -law.delta + c * np.linspace(-2.0, 10.0, 13)
        saved = levy_stable.parameterization
        try:
            levy_stable.parameterization = "S1"
            ref = levy_stable.cdf(xs, 1.0, 1.0, loc=-law.delta,
                                  scale=c * math.pi / 2.0)
        finally:
            levy_stable.parameterization = saved
        assert np.max(np.abs(cdf_many(law, xs) - ref)) < 2e-5

    def test_one_table_for_every_scale(self):
        for c in (1e-4, 0.3, 7.0, 1e4):
            cdf(StableLimitLaw(c, 1.0), 2.0)
        info = limitlaw._table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_import_builds_no_table(self):
        src = str(Path(limitlaw.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "import oppenheimlab.cli\n"
                "from oppenheimlab.limitlaw import _table\n"
                "print(_table.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "0"

    def test_non_finite_points(self):
        law = StableLimitLaw(1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cdf(law, math.inf) == 1.0
            assert cdf(law, -math.inf) == 0.0
            assert cdf_many(law, [-math.inf, math.inf]).tolist() == [0.0, 1.0]
            assert cdf(StableLimitLaw(1e-4), 1e308) == 1.0
            for f in (cdf, cdf_many, cdf_exact):
                with pytest.raises(DomainError):
                    f(law, math.nan)
            with pytest.raises(DomainError):
                cdf(StableLimitLaw(0.0), math.nan)

    def test_delta_is_pure_shift(self):
        base = StableLimitLaw(1.0, 0.0)
        shifted = StableLimitLaw(1.0, 2.0)
        for x in (-1.0, 0.0, 1.5):
            assert cdf(shifted, x) == pytest.approx(cdf(base, x + 2.0),
                                                    abs=1e-10)

    def test_right_tail_weight(self):
        # index-1 totally skewed laws have z(1 - F(z)) -> c
        law = StableLimitLaw(1.0)
        for z in (1e3, 1e4, 1e5):
            assert z * (1.0 - cdf(law, z)) == pytest.approx(1.0, rel=0.05)

    def test_left_tail_thin(self):
        law = StableLimitLaw(1.0)
        assert cdf(law, -12.0) < 1e-6
        # the table is 0 below z = -5, which needs the mass there negligible
        assert cdf_exact(law, -5.0) < 1e-11

    def test_degenerate_c_zero(self):
        law = StableLimitLaw(0.0, 1.0)
        assert cdf(law, -1.1) == 0.0
        assert cdf(law, -0.9) == 1.0
        assert np.allclose(cdf_many(law, np.array([-2.0, 0.0])), [0.0, 1.0])


class TestSampling:
    def test_ecf_matches_char_fn(self):
        law = StableLimitLaw(1.0, 0.5)
        rng = np.random.default_rng(314)
        xs = sample_many(law, rng, 400_000)
        for t in (0.3, 1.0, 2.0):
            ecf = np.mean(np.exp(1j * t * xs))
            assert abs(ecf - char_fn(law, t)) < 4.0 / math.sqrt(xs.size)

    def test_sampler_vs_cdf_ks(self):
        law = levy_cf_law()
        rng = np.random.default_rng(2718)
        xs = sample_many(law, rng, 300_000)
        assert ks_distance(xs, law) < 0.004

    def test_scalar_sample(self):
        x = sample(StableLimitLaw(1.0), np.random.default_rng(1))
        assert np.isfinite(x)

    def test_c_zero_rejected(self):
        with pytest.raises(DomainError):
            sample_many(StableLimitLaw(0.0), np.random.default_rng(1), 5)


class TestKsDistance:
    def test_perfect_grid(self):
        # quantile grid has KS ~ 1/(2n)
        law = StableLimitLaw(1.0)
        rng = np.random.default_rng(5)
        xs = sample_many(law, rng, 50_000)
        d = ks_distance(xs, law)
        assert 0.0 < d < 0.01

    def test_shifted_samples_detected(self):
        law = StableLimitLaw(1.0)
        rng = np.random.default_rng(5)
        xs = sample_many(law, rng, 20_000) + 1.5
        assert ks_distance(xs, law) > 0.1

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_distance([], StableLimitLaw(1.0))
