"""Monte Carlo harness: configs, records, reproducibility, and the runs."""

import json
import math

import numpy as np
import pytest

from oppenheimlab import __version__, experiments
from oppenheimlab.distributions import (
    centering_b_quad,
    discrete_beta_family,
    mobius_clamped_family,
    uniform_family,
)
from oppenheimlab.errors import ConditionCheckError, DomainError
from oppenheimlab.expansions import ratios
from oppenheimlab.experiments import (
    ExperimentConfig,
    RunRecord,
    centering_constants,
    char_distance_check,
    distributional_run,
    exact_weak_law_run,
    gamma_from_harmonic,
    limit_law_for,
    load_record,
    replication_rng,
    save_record,
    v_samples,
)
from oppenheimlab.specfun import EULER_GAMMA, c2_discrete_quad
from oppenheimlab.weights import cesaro_scheme


MOBIUS_2 = {"kind": "mobius_clamped", "c_n": 2}


def small_config(**kw):
    base = dict(master_seed=1, n_grid=(50, 200), replications=120)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_digest_stable_under_key_order(self):
        a = small_config()
        b = small_config()
        assert a.digest() == b.digest()

    def test_digest_changes_with_seed(self):
        assert small_config().digest() != \
            small_config(master_seed=2).digest()

    def test_validation(self):
        with pytest.raises(DomainError):
            small_config(n_grid=(200, 50))
        with pytest.raises(DomainError):
            small_config(replications=0)
        for n_grid in ((1, 100), ()):
            with pytest.raises(DomainError):
                small_config(n_grid=n_grid)
        with pytest.raises(DomainError):
            small_config(epsilon=0.0)
        with pytest.raises(DomainError):
            small_config(epsilon=float("nan"))
        for t_grid in ((), (float("nan"),), (1.0, float("inf"))):
            with pytest.raises(DomainError):
                small_config(t_grid=t_grid)
        with pytest.raises(DomainError):
            small_config(master_seed=-1)
        # integer settings are not truncated
        for bad in (dict(master_seed=1.5), dict(master_seed=True),
                    dict(replications=60.7), dict(n_grid=(50.9, 200))):
            with pytest.raises(DomainError, match="integer"):
                small_config(**bad)
        assert small_config(n_grid=(np.int64(50), 200)).n_grid == (50, 200)

    def test_family_must_be_a_mapping(self):
        # a family object would not serialise into the digest
        with pytest.raises(DomainError, match="mapping"):
            small_config(family=mobius_clamped_family(2))

    @pytest.mark.parametrize("family, weights", [
        ({"kind": "mobius_clamped", "cn": 2}, {"kind": "cesaro"}),
        ({"kind": "uniform", "c_n": 2}, {"kind": "cesaro"}),
        ({"kind": "uniform"}, {"kind": "cesaro", "alpha": 0.5}),
        ({"kind": "uniform"}, {"kind": "power_alpha", "alpha": "0.5"})])
    def test_unknown_family_and_weight_settings(self, family, weights):
        with pytest.raises(DomainError):
            small_config(family=family, weights=weights)

    def test_beta_read_only_by_cor43(self):
        with pytest.raises(DomainError, match="beta"):
            small_config(mode="cor_4_2", beta="constant:0.5")
        assert small_config(beta="constant:0").beta == "constant:0"

    def test_digest_includes_version(self, monkeypatch, tmp_path):
        # a record of another version sits beside the current one
        cfg = small_config()
        current = RunRecord(cfg.digest(), "weak_law", ({"n": 10},), 0.1)
        monkeypatch.setattr(experiments, "_pkg_version", "0.0.0")
        other = RunRecord(cfg.digest(), "weak_law", ({"n": 10},), 0.1,
                          version="0.0.0")
        assert other.config_digest != current.config_digest
        save_record(other, tmp_path)
        monkeypatch.undo()
        save_record(current, tmp_path)
        assert len(list(tmp_path.iterdir())) == 2
        assert load_record(cfg.digest(), tmp_path) == current

    def test_to_dict_roundtrips_json(self):
        d = small_config().to_dict()
        assert json.loads(json.dumps(d)) == d


class TestRecordIO:
    def test_save_load(self, tmp_path):
        rec = RunRecord("abc123", "weak_law", ({"n": 10, "x": 1.5},), 0.1)
        save_record(rec, tmp_path)
        back = load_record("abc123", tmp_path)
        assert back == rec
        assert load_record("missing", tmp_path) is None

    def test_other_version_is_a_miss(self, tmp_path):
        rec = RunRecord("abc123", "weak_law", ({"n": 10},), 0.1,
                        version="0.1.0")
        save_record(rec, tmp_path)
        assert load_record("abc123", tmp_path) is None
        current = RunRecord("abc123", "weak_law", ({"n": 10},), 0.1)
        assert current.version == __version__
        save_record(current, tmp_path)
        assert load_record("abc123", tmp_path) == current

    def test_unreadable_record_is_a_miss(self, tmp_path):
        rec = RunRecord("abc123", "weak_law", ({"n": 10, "x": 1.5},), 0.1)
        path = save_record(rec, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # truncated mid-string
        assert load_record("abc123", tmp_path) is None
        path.write_text("[1, 2]")  # valid JSON, not a record
        assert load_record("abc123", tmp_path) is None

    def test_save_leaves_no_temporary_files(self, tmp_path):
        rec = RunRecord("abc123", "weak_law", ({"n": 10},), 0.1)
        save_record(rec, tmp_path)
        save_record(rec, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["abc123.json"]

    def test_equality_ignores_wall_time(self):
        r1 = RunRecord("d", "weak_law", ({"n": 1},), 0.5)
        r2 = RunRecord("d", "weak_law", ({"n": 1},), 9.9)
        assert r1 == r2

    def test_json_roundtrip(self):
        rec = RunRecord("d", "distributional", ({"n": 2, "ks": 0.1},), 1.0)
        assert RunRecord.from_json(rec.to_json()) == rec


class TestReproducibility:
    def test_stream_independence(self):
        a = replication_rng(7, 0, 0).random(4)
        b = replication_rng(7, 0, 1).random(4)
        c = replication_rng(7, 1, 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_stream_determinism(self):
        assert np.array_equal(replication_rng(7, 2, 3).random(8),
                              replication_rng(7, 2, 3).random(8))

    def test_weak_law_bit_identical(self):
        cfg = small_config()
        r1 = exact_weak_law_run(cfg)
        r2 = exact_weak_law_run(cfg)
        assert r1 == r2

    def test_distributional_bit_identical(self):
        cfg = small_config(n_grid=(100, 400))
        r1 = distributional_run(cfg)
        r2 = distributional_run(cfg)
        assert r1 == r2

    @pytest.mark.parametrize("runner, kw", [
        (exact_weak_law_run, dict(scheme="direct")),
        (exact_weak_law_run, dict(scheme="engel")),
        (exact_weak_law_run, dict(scheme="engel", family=MOBIUS_2)),
        (distributional_run, dict(n_grid=(100, 400))),
        (distributional_run, dict(n_grid=(100, 400), mode="cor_4_3",
                                  beta="constant:0.5")),
    ], ids=["direct", "engel", "engel-mobius", "classical", "cor43-half"])
    def test_records_do_not_depend_on_block_size(self, monkeypatch, runner,
                                                 kw):
        cfg = small_config(**kw)
        default = runner(cfg)
        for block in (1, 1000):  # one replication per block; ragged blocks
            monkeypatch.setattr(experiments, "_BLOCK", block)
            assert runner(cfg) == default

    def test_classical_is_cor43_beta_zero(self):
        classical = v_samples(small_config(), 200, 1)
        cor43 = v_samples(small_config(mode="cor_4_3", beta="constant:0"),
                          200, 1)
        assert np.array_equal(classical, cor43)


class TestWeakLaw:
    def test_direct_run_structure(self):
        rec = exact_weak_law_run(small_config())
        assert rec.kind == "weak_law"
        assert [row["n"] for row in rec.per_n] == [50, 200]
        for row in rec.per_n:
            assert 0.0 <= row["exceedance"] <= 1.0
            assert row["ell"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("scheme", ["luroth", "engel", "sylvester"])
    def test_digit_chain_medians_decrease_toward_ell(self, scheme):
        cfg = ExperimentConfig(master_seed=20260823,
                               n_grid=(100, 1000, 10000, 100000),
                               replications=200, scheme=scheme)
        rec = exact_weak_law_run(cfg)
        meds = [row["t_median"] for row in rec.per_n]
        assert meds[0] > meds[1] > meds[2] > meds[3] > 1.0
        assert meds[3] - 1.0 < 0.2

    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            exact_weak_law_run(small_config(scheme="decimal"))

    def test_engel_chain_with_family_tracks_direct_scheme(self):
        # the chain's ratios R_k are close to 1/U_k with U_k ~ F_k, so both
        # statistics head to ell = alpha = c_n = 2 together
        n_grid = (100, 1000, 10000, 100000)
        runs = [exact_weak_law_run(ExperimentConfig(
            master_seed=20260823, n_grid=n_grid, replications=200,
            scheme=scheme, family=MOBIUS_2)) for scheme in ("engel", "direct")]
        chain, direct = ([row["t_median"] for row in rec.per_n]
                         for rec in runs)
        assert all(row["ell"] == pytest.approx(2.0, abs=1e-9)
                   for row in runs[0].per_n)
        assert np.allclose(chain, direct, rtol=0.0, atol=0.05)

    @pytest.mark.parametrize("kind, phi", [
        ("luroth", lambda d: 1), ("engel", lambda d: d - 1),
        ("sylvester", lambda d: d * (d - 1))])
    def test_discrete_chain_ratios_are_exact(self, kind, phi):
        # the draw U_k = 1/Z_k steps D_{k+1} = phi(D_k) Z_k + 1: walk the
        # digits with Python integers and take their exact ratios
        fam = discrete_beta_family(0.5)
        n = 12
        ks = np.arange(1, n + 1)
        v = 1.0 - np.random.default_rng(7).random((200, n + 1))
        z = fam.reciprocals(ks, v[:, 1:])
        got = experiments._chain_ratios(kind, fam, ks, v)
        for u0, zs, row in zip(v[:, 0], z, got):
            digits = [math.floor(1.0 / u0) + 1]
            for zk in zs:
                digits.append(phi(digits[-1]) * int(zk) + 1)
            assert row.tolist() == [float(r) for r in ratios(kind, digits)]

    def test_chain_runs_on_discrete_family(self):
        rec = exact_weak_law_run(small_config(
            scheme="sylvester", family={"kind": "discrete_beta"}))
        assert all(row["ell"] == pytest.approx(1.0, abs=1e-9)
                   for row in rec.per_n)

    def test_condition_failure_reported(self):
        # alpha = 1 - beta with growing beta tag violates the alpha bounds
        cfg = small_config(
            family={"kind": "mobius_clamped", "c_n": "linear:n"})
        with pytest.raises(ConditionCheckError):
            exact_weak_law_run(cfg)


class TestCentering:
    def test_classical_matches_cor43_beta0(self):
        sch = cesaro_scheme()
        classical = small_config(mode="classical_1_2").summand_family
        beta0 = small_config(mode="cor_4_3", beta="constant:0").summand_family
        s1, l1 = centering_constants(classical, sch, 100)
        s2, l2 = centering_constants(beta0, sch, 100)
        assert (s1, l1) == (s2, l2)  # the same beta = 0 family
        # cesaro: kappa = 1 and sum a log a = -log n
        assert s1 == pytest.approx(1.0, abs=1e-12)
        assert l1 == pytest.approx(-math.log(100.0), abs=1e-9)

    def test_cor42_uniform_subtractor(self):
        # uniform: c_F = 1 - gamma, c2 = c_F - 1 = -gamma
        sch = cesaro_scheme()
        s, _ = centering_constants(uniform_family(), sch, 50)
        assert s == pytest.approx(1.0 - EULER_GAMMA, abs=1e-9)

    def test_unknown_mode(self):
        with pytest.raises(DomainError, match="mode"):
            small_config(mode="cor_9_9")

    @staticmethod
    def _per_k_reference(c1, c2, n):
        """The centering from per-k scalar evaluations."""
        a = cesaro_scheme().a_row(n)
        c1v = np.array([c1(k) for k in range(1, n + 1)])
        c2v = np.array([c2(k) for k in range(1, n + 1)])
        return (float(a.sum() + np.sum(a * c2v)),
                float(np.sum(a * c1v * np.log(a))))

    def test_cor43_list_beta_matches_per_k_quadrature(self):
        betas = [0.3, 0.1, 0.45, 0.2]
        n = 7
        got = centering_constants(discrete_beta_family(betas),
                                  cesaro_scheme(), n)

        def beta(k):
            return betas[min(k, len(betas)) - 1]

        ref = self._per_k_reference(lambda k: 1.0 - beta(k),
                                    lambda k: c2_discrete_quad(beta(k)), n)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_cor42_list_family_matches_per_k(self):
        fam = mobius_clamped_family([1.0, 2.0, 1.5])
        n = 6
        got = centering_constants(fam, cesaro_scheme(), n)
        ref = self._per_k_reference(
            fam.alpha,
            lambda k: centering_b_quad(fam, k) - fam.alpha(k) * EULER_GAMMA, n)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_c2_discrete_called_once_per_n(self, monkeypatch):
        calls = []
        original = experiments.c2_discrete

        def counting(beta):
            calls.append(np.size(beta))
            return original(beta)

        monkeypatch.setattr(experiments, "c2_discrete", counting)
        centering_constants(discrete_beta_family([0.3, 0.1, 0.5]),
                            cesaro_scheme(), 1000)
        assert calls == [1000]


class TestDistributional:
    def test_limit_law_classical(self):
        law = limit_law_for(small_config(n_grid=(100, 1000)))
        assert law.c == pytest.approx(1.0, abs=1e-9)
        assert law.delta == 0.0

    def test_limit_law_cor43_beta_half(self):
        law = limit_law_for(small_config(n_grid=(100, 1000), mode="cor_4_3",
                                         beta="constant:0.5"))
        assert law.c == pytest.approx(0.5, abs=1e-9)

    def test_run_structure(self):
        rec = distributional_run(small_config(n_grid=(100, 500)))
        assert rec.kind == "distributional"
        for row in rec.per_n:
            assert 0.0 <= row["ks"] <= 1.0
            assert row["ecf_error"] >= 0.0
            assert row["ell"] == pytest.approx(1.0, abs=1e-9)

    def test_v_samples_median_near_limit_median(self):
        # the classical V_n at moderate n already has a stable-law-like
        # median around 1.3-1.5
        cfg = small_config(n_grid=(2000,), replications=400)
        v = v_samples(cfg, 2000, 0)
        assert 0.8 < np.median(v) < 2.2

    def test_cor43_one_element_list_equals_constant(self):
        base = dict(n_grid=(100, 400), mode="cor_4_3")
        listed = distributional_run(small_config(beta=[0.5], **base))
        constant = distributional_run(small_config(beta="constant:0.5",
                                                   **base))
        assert listed.per_n == constant.per_n

    def test_replication_floor(self):
        with pytest.raises(DomainError):
            distributional_run(small_config(replications=50))

    def test_rejects_scheme_other_than_direct(self):
        # the modes sum family reciprocals; a scheme would be ignored
        with pytest.raises(DomainError):
            distributional_run(small_config(scheme="engel"))


class TestCharDistance:
    @pytest.mark.parametrize("t", [(0.1, 0.2), (1e-4, 0.2)])
    def test_engel_small_t(self, t):
        res = char_distance_check(2, t, 10**5)
        assert res["passed"]
        assert res["estimate"] <= res["bound"] + 3 * res["se"]

    def test_validation(self):
        with pytest.raises(DomainError):
            char_distance_check(5, (0.1,) * 5, 10**5)
        with pytest.raises(DomainError):
            char_distance_check(2, (0.1,), 10**5)
        with pytest.raises(DomainError):
            char_distance_check(2, (0.1, 0.2), 10**3)


class TestGammaRecovery:
    def test_value(self):
        assert gamma_from_harmonic(10**6) == pytest.approx(-EULER_GAMMA,
                                                           abs=1e-6)

    def test_monotone_in_n(self):
        vals = [gamma_from_harmonic(n) for n in (10, 100, 1000)]
        assert vals[0] < vals[1] < vals[2] < -EULER_GAMMA

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_from_harmonic(0)
