"""Stable limit laws: characteristic function, CDF inversion, sampling."""

import ctypes
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.stats import levy_stable

from oppenheimlab import limitlaw
from oppenheimlab.errors import AccuracyError, DomainError
from oppenheimlab.limitlaw import (
    StableLimitLaw,
    cdf,
    cdf_exact,
    cdf_many,
    char_fn,
    ks_distance,
    levy_cf_law,
    sample_many,
)
from oppenheimlab.specfun import EULER_GAMMA

ROOT = Path(__file__).resolve().parents[1]

# the scales of the benchmark's KS checks and the continued-fraction law
LAWS = [StableLimitLaw(1e-3), StableLimitLaw(1.0, 0.3), StableLimitLaw(1e4),
        levy_cf_law()]
LAW_IDS = ["c=1e-3", "c=1", "c=1e4", "levy"]
# sizes on both sides of one and two chunks
CHUNK = limitlaw._CHUNK
CHUNK_SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def relative_small_side(cdf, sf, ref_cdf, ref_sf):
    """Relative error of min(F, 1 - F), the side the reference calls
    smaller, where that side is at least 1e-10."""
    left = ref_cdf <= ref_sf
    mine, small = np.where(left, cdf, sf), np.where(left, ref_cdf, ref_sf)
    keep = small >= 1e-10
    return np.abs(mine - small)[keep] / small[keep]


def mp_zolotarev(z):
    """(F, 1 - F) of S(1, 0) at 30 digits for z in the right tail (theta* >
    0): Zolotarev's integral in mpmath, in the distance to theta = -pi/2
    below 0 and to pi/2 above, split where exp(-pi x/2) V = 1."""
    import mpmath as mp
    with mp.workdps(30):
        target = mp.mpf(z) - mp.log(mp.pi / 2)

        def y_left(e):  # theta = e - pi/2
            return (mp.log(2 / mp.pi) + mp.log(e / mp.sin(e))
                    - e * mp.cot(e) - target)

        def y_right(u):  # theta = pi/2 - u
            return (mp.log(2 / mp.pi) + mp.log((mp.pi - u) / mp.sin(u))
                    + (mp.pi - u) * mp.cot(u) - target)

        half = mp.pi / 2
        u_star = mp.exp(mp.findroot(
            lambda w: y_right(mp.exp(w)),
            (mp.log(mp.mpf(10) ** -25), mp.log(half)), solver="bisect"))
        halves = [u_star * mp.mpf(2) ** -k for k in range(5, 0, -1)]
        u_pts = [0] + halves + [u_star, half]

        def side(fun):
            return (mp.quad(lambda e: fun(y_left(e)), [0, half])
                    + mp.quad(lambda u: fun(y_right(u)), u_pts)) / mp.pi

        cdf = side(lambda y: 0 if y > 200 else mp.exp(-mp.exp(y)))
        sf = side(lambda y: 1 if y > 200 else -mp.expm1(-mp.exp(y)))
        return float(cdf), float(sf)


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

    def test_zero_where_the_modulus_underflows(self):
        # t log|t| overflows at |t| = 1e308, where exp(-(pi/2) c |t|) is 0
        for c in (1.0, 2.0):
            for t in (1e308, -1e308, 475.0 / c):
                assert char_fn(StableLimitLaw(c), t) == 0.0
        vals = char_fn(StableLimitLaw(1.0), np.array([0.0, 1e300, 1e308]))
        assert np.array_equal(vals, [1.0, 0.0, 0.0])

    def test_finite_at_huge_t_for_zero_and_tiny_c(self):
        for t in (1e308, -1e308):
            assert char_fn(StableLimitLaw(0.0), t) == 1.0
        assert char_fn(StableLimitLaw(0.0, 0.5), 2.0) == pytest.approx(
            complex(math.cos(1.0), -math.sin(1.0)), abs=1e-15)
        # c |t| = 100, so |xi| = exp(-50 pi), though t log|t| overflows
        val = char_fn(StableLimitLaw(1e-306), -1e308)
        assert abs(val) == pytest.approx(math.exp(-50.0 * math.pi),
                                         rel=1e-12)

    def test_overflowing_phase_raises(self):
        # delta t overflows although |xi| > 0: nan+nanj with a warning before
        for law, t in ((StableLimitLaw(0.0, 2.0), 1e308),
                       (StableLimitLaw(1e-300, 1e10), 1e300)):
            with pytest.raises(DomainError, match="phase"):
                char_fn(law, t)
            with pytest.raises(DomainError, match="phase"):
                char_fn(law, np.array([1.0, t]))
        # where |xi| is 0 the phase is not needed
        assert char_fn(StableLimitLaw(1.0, 1e300), 1e10) == 0.0

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

    def test_direct_route_matches_reference(self):
        # the committed mpmath real-axis Gil-Pelaez reference, z in
        # [-4.5, 1e4]: both tails relative, the body absolute
        ref = json.loads((Path(limitlaw.__file__).with_name(
            "cdf_reference.json")).read_text())
        cdf, sf = limitlaw._cdf_pair(np.array(ref["z"]))
        ref_cdf, ref_sf = np.array(ref["F"]), np.array(ref["sf"])
        assert np.max(np.abs(cdf - ref_cdf)) < 1e-12
        assert np.max(relative_small_side(cdf, sf, ref_cdf, ref_sf)) < 1e-9
        # what ``verify`` reports, over every point of the reference
        abs_err, rel_err = limitlaw.reference_error()
        assert abs_err < 1e-12 and rel_err < 1e-9

    def test_direct_route_matches_benchmark_reference(self):
        # 954 points at eight scales and the Levy law, each mapped to z
        ref = json.loads((ROOT / "perfbench" / "cdf_reference.json")
                         .read_text())
        zs, fs = [], []
        for law in ref["laws"].values():
            for grid in ("body", "tail"):
                x = np.array(law[grid]["x"])
                zs.append((x + law["delta"]) / law["c"] - math.log(law["c"]))
                fs.append(law[grid]["F"])
        direct = limitlaw._cdf_direct(np.concatenate(zs))
        assert np.max(np.abs(direct - np.concatenate(fs))) < 1e-12

    @pytest.mark.parametrize("z", [1e6, 1e8, 1e10])
    def test_direct_route_right_tail_relative(self, z):
        cdf, sf = limitlaw._cdf_pair(np.array([z]))
        ref_cdf, ref_sf = mp_zolotarev(z)
        assert sf[0] == pytest.approx(ref_sf, rel=1e-9)
        assert cdf[0] == pytest.approx(ref_cdf, abs=1e-15)

    def test_direct_route_extreme_points(self):
        zs = [-50.0, -5.0, -3.5, 0.0, 1e3, 1e4, 1e6, 1e10, 1e300,
              math.inf, -math.inf]
        law = StableLimitLaw(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = [cdf_exact(law, z) for z in zs]
            many = limitlaw._cdf_direct(np.array(zs))
        assert many == pytest.approx(single, rel=1e-12, abs=1e-300)
        assert all(math.isfinite(f) and 0.0 <= f <= 1.0 for f in single)
        assert single[-2:] == [1.0, 0.0]

    @pytest.mark.parametrize("panels, rule", [
        (np.array([0.0, 60.0]), None),
        (np.concatenate([[0.0], np.geomspace(0.1, 60.0, 32)]), None),
        (None, limitlaw._gauss_legendre(6))])
    def test_coarse_rule_raises(self, monkeypatch, panels, rule):
        # the companion-rule estimate is real: one panel, the geometric
        # panels started at 0.1, or a 6-point value rule each miss 1e-11
        # on the table nodes
        if panels is not None:
            monkeypatch.setattr(limitlaw, "_PANELS", panels)
        if rule is not None:
            monkeypatch.setattr(limitlaw, "_RULE", rule)
        with pytest.raises(AccuracyError, match="Zolotarev"):
            limitlaw._cdf_pair(limitlaw._NODES)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
    @example([-1e300, -50.0, -5.0, 0.0, 1e300])
    @example([-745.0, -40.0, -3.5, 2.0, 1e5, 1.7e5, 1e10])
    def test_direct_route_is_a_distribution(self, zs):
        # any finite z: no error, F and 1 - F in [0, 1], summing to 1
        cdf, sf = limitlaw._cdf_pair(np.array(zs))
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all((sf >= 0.0) & (sf <= 1.0))
        assert np.max(np.abs(cdf + sf - 1.0)) <= 1e-12

    def test_long_call_is_its_blocks(self):
        # each point's value does not depend on the others in its call:
        # every table-sized chunk of 5,600 points is its own call's result
        zs = np.concatenate([np.random.default_rng(3).uniform(-50, 50, 3000),
                             np.geomspace(50.0, 1e300, 2600)])
        cdf, sf = limitlaw._cdf_pair(zs)
        size = limitlaw._NODES.size
        for start in range(0, zs.size, size):
            block = slice(start, start + size)
            cdf_b, sf_b = limitlaw._cdf_pair(zs[block])
            assert cdf_b.tobytes() == cdf[block].tobytes()
            assert sf_b.tobytes() == sf[block].tobytes()

    def test_direct_route_dense_grid(self):
        # every scale of z in one call, the right tail most densely
        zs = np.concatenate([np.linspace(-60.0, 60.0, 2401),
                             np.geomspace(60.0, 1e300, 3000),
                             -np.geomspace(60.0, 1e300, 300)])
        cdf, sf = limitlaw._cdf_pair(zs)
        assert np.all((cdf >= 0.0) & (sf >= 0.0))
        assert np.max(np.abs(cdf + sf - 1.0)) <= 1e-12
        assert np.all(np.diff(cdf[:2401 + 3000]) >= -1e-15)

    def test_table_tracks_direct_route(self):
        # ten points per table interval
        nodes = limitlaw._NODES
        grid = (nodes[:-1, None] + np.outer(np.diff(nodes),
                                            np.arange(10) / 10)).ravel()
        cdf, sf = limitlaw._cdf_pair(grid)
        logit = limitlaw._table()(np.arcsinh(grid))
        table = cdf_many(StableLimitLaw(1.0), grid)
        assert np.max(np.abs(table - cdf)) < 1e-8
        rel = relative_small_side(1.0 / (1.0 + np.exp(-logit)),
                                  1.0 / (1.0 + np.exp(logit)), cdf, sf)
        assert np.max(rel) < 1e-6
        assert np.all(np.diff(table) >= 0.0)

    def test_table_right_tail(self):
        # z (1 - F(z)) = 1 + (log z - (1 - gamma))/z + ... for S(1, 0)
        z = np.geomspace(1e4, 1e7, 200)
        excess = z * (1.0 - cdf_many(StableLimitLaw(1.0), z)) - 1.0
        assert np.all(excess > 0.0)
        assert np.all(excess < np.log(z) / z)

    def test_cached_matches_exact(self):
        law = StableLimitLaw(1.0)
        for x in (-2.0, -0.5, 0.0, 0.7, 1.0, 3.0, 10.0, 200.0):
            assert cdf(law, x) == pytest.approx(cdf_exact(law, x), abs=2e-5)


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

    def test_table_runs_no_quadrature(self):
        # in a process whose direct route raises, every point inside the
        # table still gets the table's value: the table is read, not built
        zs = np.concatenate([limitlaw._NODES, np.linspace(-5.0, 1e10, 97),
                             np.geomspace(1.0, 1e10, 50)])
        src = str(Path(limitlaw.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "import json\n"
                "from oppenheimlab import limitlaw\n"
                "def refuse(z):\n"
                "    raise AssertionError('quadrature on the table path')\n"
                "limitlaw._cdf_pair = limitlaw._certified_pair = refuse\n"
                "zs = json.loads(sys.stdin.read())\n"
                "out = limitlaw.cdf_many(limitlaw.StableLimitLaw(1.0), zs)\n"
                "print(json.dumps(out.tolist()))")
        proc = subprocess.run([sys.executable, "-c", code],
                              input=json.dumps(zs.tolist()),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert np.array_equal(np.array(json.loads(proc.stdout)),
                              cdf_many(StableLimitLaw(1.0), zs))

    @pytest.mark.skipif(not has_mallopt(),
                        reason="the C library has no mallopt")
    def test_library_callers_reuse_freed_heap(self):
        # a script that imports only the package gets the malloc thresholds
        # too: without them numpy's temporaries fault fresh pages in on
        # every panel of the direct route (2,000 to 4,200 minor faults on
        # the table's nodes, about 82 with them).  The table itself is read
        # from a file and runs no panel, so it would fault little either way
        src = str(Path(limitlaw.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "import resource\n"
                "import oppenheimlab\n"
                "from oppenheimlab import limitlaw\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "limitlaw._cdf_direct(limitlaw._NODES)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - before)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 1000

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

    def test_char_fn_rejects_nan(self):
        # as cdf does for a nan x: a nan t is no point of xi, not 0
        for c in (1.0, 0.0):
            with pytest.raises(DomainError, match="nan"):
                char_fn(StableLimitLaw(c), math.nan)
            with pytest.raises(DomainError, match="nan"):
                char_fn(StableLimitLaw(c), np.array([0.5, math.nan]))

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


class TestTableSpline:
    """The table is scipy's not-a-knot CubicSpline through a fresh direct
    route's logits, fitted offline and evaluated in numpy: its coefficients
    and values must match scipy's bit for bit, so a change of the nodes or
    of the route that leaves ``cdf_table.json`` stale fails here."""

    @pytest.fixture(scope="class")
    def reference(self):
        cdf_, sf = limitlaw._cdf_pair(limitlaw._NODES)
        return CubicSpline(np.arcsinh(limitlaw._NODES),
                           np.log(cdf_) - np.log(sf))

    @pytest.fixture(scope="class")
    def draws(self):
        # sorted CMS draws of S(1, 0), clipped into the table's range, and
        # the table's nodes
        xs = sample_many(StableLimitLaw(1.0), np.random.default_rng(11),
                         100_000)
        return np.sort(np.concatenate([
            np.clip(xs, limitlaw._NODES[0], limitlaw._NODES[-1]),
            limitlaw._NODES]))

    def test_coefficients(self, reference):
        knots, coef = limitlaw._table().args
        assert np.array_equal(knots, reference.x)
        assert np.array_equal(coef, reference.c)

    def test_values_at_knots_midpoints_and_nothing(self, reference):
        knots = limitlaw._table().args[0]
        for p in (knots, 0.5 * (knots[1:] + knots[:-1]), knots[-1:],
                  np.empty(0)):
            assert np.array_equal(limitlaw._table()(p), reference(p))

    def test_values_at_sorted_and_shuffled_draws(self, reference, draws):
        p = np.arcsinh(draws)
        assert p.size >= limitlaw._SLICED_POINTS  # the per-interval route
        assert np.array_equal(limitlaw._table()(p), reference(p))
        shuffled = np.random.default_rng(12).permutation(p)
        assert np.array_equal(limitlaw._table()(shuffled),
                              reference(shuffled))

    def test_scalar_cdf(self, reference):
        for z in (-4.5, 0.3, 2.0, 1e9):
            logit = reference(np.arcsinh(z))
            assert cdf(StableLimitLaw(1.0), z) == 1.0 / (1.0 + np.exp(-logit))

    def test_unsorted_input_is_the_sorted_input_permuted(self, draws):
        law = StableLimitLaw(1.0)
        order = np.random.default_rng(13).permutation(draws.size)
        assert np.array_equal(cdf_many(law, draws[order]),
                              cdf_many(law, draws)[order])

    @staticmethod
    def out_of_place_cdf(law, x):
        """cdf_many as the table was read before it ran in place: a gather
        of the points inside the table, a scatter of the logistic of the
        spline there, and the direct route above it."""
        def table(z):
            z = np.asarray(z, dtype=float)
            out = np.zeros(z.shape)
            hi = z > limitlaw._NODES[-1]
            mid = (z >= limitlaw._NODES[0]) & ~hi
            out[mid] = 1.0 / (1.0 + np.exp(-limitlaw._table()(
                np.arcsinh(z[mid]))))
            if hi.any():
                out[hi] = limitlaw._cdf_direct(z[hi])
            return out
        return limitlaw._at_scale(law, x, table)

    @pytest.mark.parametrize("law", [StableLimitLaw(1.0),
                                     StableLimitLaw(1e-3, 0.2), levy_cf_law()],
                             ids=["standard", "small_c", "levy"])
    def test_in_place_read_is_the_out_of_place_read(self, law, draws):
        # bit for bit, shape for shape: points below the table (z < -5),
        # above it (z > 1e10), +-inf, a 0-d array, a scalar and a 2-D array
        edges = np.array([-math.inf, -1e300, -7.0, -5.0, -4.999, 0.0, 2.0,
                          1e10, 1.5e10, 1e12, 1e300, math.inf])
        xs = law.c * (np.concatenate([draws, edges]) + math.log(law.c)) \
            - law.delta  # z = draws and edges, up to rounding
        for x in (xs, xs[::-1], xs[:24].reshape(4, 6), np.array(0.3),
                  np.array([1.2e10]), np.empty(0)):
            kept = x.copy()
            new, old = cdf_many(law, x), self.out_of_place_cdf(law, x)
            assert isinstance(new, np.ndarray) and new.shape == old.shape
            assert np.array_equal(new, old)
            assert np.array_equal(x, kept)  # the logistic ran on a copy
        for x in (-math.inf, -1e3, 0.3, 1e11 * max(law.c, 1.0), math.inf):
            assert cdf(law, x) == float(self.out_of_place_cdf(law, x))


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

    class ChosenDraws:
        """A generator stub whose uniform and exponential draws are chosen
        arrays; each call returns a copy, as sample_many writes in place."""

        def __init__(self, theta, w):
            self.theta, self.w = theta, w

        def uniform(self, low, high, size):
            assert (low, high, size) == (-math.pi / 2, math.pi / 2,
                                         self.theta.size)
            return self.theta.copy()

        def exponential(self, scale, size):
            assert (scale, size) == (1.0, self.w.size)
            return self.w.copy()

    @staticmethod
    def cos_route(law, theta, w):
        """The Chambers-Mallows-Stuck draw as written with cos theta."""
        half_pi = math.pi / 2.0
        x = ((half_pi + theta) * np.tan(theta)
             - np.log((half_pi * w * np.cos(theta)) / (half_pi + theta))) \
            / half_pi
        gamma_s = law.c * half_pi
        return gamma_s * x + (2.0 / math.pi) * gamma_s * math.log(gamma_s) \
            - law.delta

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e4, 1.0 / math.log(2.0)])
    def test_tan_route_is_the_cos_formula(self, c):
        # cos theta = 1/sqrt(1 + tan^2 theta): the draws may move by
        # rounding only, also within 1e-15 of -pi/2 and pi/2, where
        # tan theta is near 1e15 and the log term is large.  W stays above
        # 1e-250: near -pi/2 the cos formula's (pi/2) W cos theta turns
        # subnormal below W ~ 1e-292 and loses digits that the tan route
        # keeps (at W = 1e-300 the cos formula is 4e-10 off mpmath)
        half_pi = math.pi / 2.0
        rng = np.random.default_rng(27)
        near_ends = np.concatenate([
            [-half_pi + 1e-15, half_pi - 1e-15, np.nextafter(half_pi, 0.0)],
            -half_pi + np.arange(1, 9) * np.spacing(half_pi),
            half_pi - np.arange(1, 9) * np.spacing(half_pi)])
        theta = np.concatenate([near_ends, np.linspace(-1.5, 1.5, 7),
                                rng.uniform(-half_pi, half_pi, 200_000)])
        w = rng.exponential(1.0, theta.size)
        w[:near_ends.size] = np.geomspace(1e-250, 700.0, near_ends.size)
        law = StableLimitLaw(c, 0.25)
        new = sample_many(law, self.ChosenDraws(theta, w), theta.size)
        old = self.cos_route(law, theta, w)
        assert np.all(np.isfinite(old))
        assert np.all(np.abs(new - old)
                      <= 1e-12 * c * np.maximum(1.0, np.abs(old) / c))

    @staticmethod
    def whole_array_draws(law, rng, size):
        """The 0.25.0 draw: the chunked map's steps on whole arrays."""
        half_pi = math.pi / 2.0
        theta = rng.uniform(-half_pi, half_pi, size)
        w = rng.exponential(1.0, size)
        x = np.tan(theta)
        theta += half_pi
        den = x * x
        den += 1.0
        np.sqrt(den, out=den)
        den *= theta
        w *= half_pi
        w /= den
        np.log(w, out=w)
        x *= theta
        x -= w
        x /= half_pi
        gamma_s = law.c * half_pi
        x *= gamma_s
        x += (2.0 / math.pi) * gamma_s * math.log(gamma_s)
        x -= law.delta
        return x

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_chunked_draws_are_the_whole_array_draws(self, law, size):
        new = sample_many(law, np.random.default_rng(size), size)
        old = self.whole_array_draws(law, np.random.default_rng(size), size)
        assert new.shape == (size,) and new.dtype == np.float64
        assert np.array_equal(new, old)

    def test_scalar_sample(self):
        xs = sample_many(StableLimitLaw(1.0), np.random.default_rng(1), 1)
        assert xs.shape == (1,) and np.isfinite(xs[0])

    def test_c_zero_rejected(self):
        with pytest.raises(DomainError):
            sample_many(StableLimitLaw(0.0), np.random.default_rng(1), 5)

    @pytest.mark.parametrize("size", [-1, True, False, 5.0, 2.5, "5",
                                      (2, 3), None])
    def test_size_must_be_a_count(self, size):
        with pytest.raises(DomainError, match="size must be an integer"):
            sample_many(StableLimitLaw(1.0), np.random.default_rng(1), size)

    def test_numpy_integer_size(self):
        xs = sample_many(StableLimitLaw(1.0), np.random.default_rng(1),
                         np.int64(3))
        assert np.array_equal(xs, sample_many(
            StableLimitLaw(1.0), np.random.default_rng(1), 3))


class TestMemory:
    """The draw and the KS pass run in place and in chunks: peaks of traced
    memory (numpy reports its buffers to tracemalloc) in arrays of N
    doubles."""

    N = 1_000_000
    # the generator's and the calls' own bookkeeping, a few kB
    SLACK = 65536

    def peak_arrays(self, call):
        tracemalloc.start()
        try:
            result = call()
            return result, (tracemalloc.get_traced_memory()[1]
                             - self.SLACK) / (8 * self.N)
        finally:
            tracemalloc.stop()

    def test_sample_many_and_ks_distance_peaks(self):
        law = StableLimitLaw(1.0)
        limitlaw._table()  # built outside the measured calls
        xs, peak = self.peak_arrays(lambda: sample_many(
            law, np.random.default_rng(7), self.N))
        # theta and W, and per chunk tan theta and sqrt(1 + tan^2), with
        # the last chunk's tangent alive while the next is drawn: 2.39
        # arrays (4.0 for the whole-array map of 0.25.0)
        assert peak <= 2.45
        # the input and its sorted copy, and per chunk z, the spline's
        # output, a boolean mask and the gaps: 2.91 arrays (5.07 for one
        # cdf_many call on the whole sorted copy)
        _, peak = self.peak_arrays(lambda: ks_distance(xs.copy(), law))
        assert peak <= 3.0


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

    def test_a_full_chunk_is_read_by_slices(self):
        # a chunk below _SLICED_POINTS would take the spline's per-point
        # gather path, which at 2**16 made the pass slower than one
        # whole-array pass
        assert limitlaw._CHUNK >= limitlaw._SLICED_POINTS

    @staticmethod
    def whole_array_ks(samples, law):
        """The 0.25.0 KS pass: one cdf_many call on the whole sorted copy."""
        xs = np.sort(np.asarray(samples, dtype=float), axis=None)
        n = xs.size
        f = cdf_many(law, xs)
        upper = np.arange(1, n + 1) / n - f
        lower = f - np.arange(0, n) / n
        return float(max(upper.max(), lower.max()))

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("size", [n for n in CHUNK_SIZES if n > 0])
    def test_chunked_pass_is_the_whole_array_pass(self, law, size):
        xs = sample_many(law, np.random.default_rng(size), size)
        kept = xs.copy()
        assert ks_distance(xs, law) == self.whole_array_ks(xs, law)
        assert np.array_equal(xs, kept)  # the input is not sorted in place
        # a shuffled copy sorts to the same points
        np.random.default_rng(1).shuffle(xs)
        assert ks_distance(xs, law) == self.whole_array_ks(kept, law)

    def test_any_shape_is_its_values(self):
        law = StableLimitLaw(1.0)
        xs = sample_many(law, np.random.default_rng(3), 600)
        flat = ks_distance(xs, law)
        assert ks_distance(xs.reshape(20, 30), law) == flat
        assert ks_distance(xs.reshape(5, 4, 30).T, law) == flat
        assert ks_distance(np.float64(0.25), law) == \
            ks_distance([0.25], law)
        assert ks_distance(0.25, law) == ks_distance([0.25], law)
        with pytest.raises(DomainError):
            ks_distance(np.empty((3, 0)), law)
        with pytest.raises(DomainError):
            ks_distance(np.array([[0.1, math.nan]]), law)
