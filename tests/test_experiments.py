"""Monte Carlo harness: configs, records, reproducibility, and the runs."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oppenheimlab import __version__, cli, experiments
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
    limit_law_for,
    load_record,
    replication_rng,
    save_record,
    v_samples,
)
from oppenheimlab.specfun import EULER_GAMMA, c2_discrete_quad
from oppenheimlab.weights import cesaro_scheme


MOBIUS_2 = {"kind": "mobius_clamped", "c_n": 2}
DISCRETE_HALF = {"kind": "discrete_beta", "beta_n": 0.5}
# draws so near 1 that every Engel chain is still in the exact window of
# ratio_path after the default head of 128 ratios
REMARK2_SLOW = {"kind": "mobius_remark2", "c_n": 1e-3}


def small_config(**kw):
    base = dict(master_seed=1, n_grid=(50, 200), replications=120)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_digest_stable_under_key_order(self):
        a = small_config()
        b = small_config()
        assert a.digest("weak_law") == b.digest("weak_law")

    def test_digest_changes_with_seed(self):
        assert small_config().digest("weak_law") != \
            small_config(master_seed=2).digest("weak_law")

    def test_digest_changes_with_experiment(self):
        # a weak-law and a distributional run of one config are two records
        cfg = small_config()
        assert cfg.digest("weak_law") != cfg.digest("distributional")
        assert exact_weak_law_run(cfg).config_digest == cfg.digest("weak_law")

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            ExperimentConfig(1, (50, 200), 120)
        assert ExperimentConfig(n_grid=(50, 200), replications=120) == \
            small_config(master_seed=experiments.DEFAULT_SEED)

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

    @pytest.mark.parametrize("field", ["replications", "n_grid"])
    def test_array_size_bound_is_exact(self, field):
        # the largest count whose doubles fit numpy's index range is
        # accepted (nothing is allocated here), one more is refused
        most = np.iinfo(np.intp).max // 8

        def config(size):
            if field == "replications":
                return small_config(replications=size)
            return small_config(n_grid=(50, size))

        assert getattr(config(most), field) in (most, (50, most))
        with pytest.raises(DomainError, match=f", {most + 1}, is too large"):
            config(most + 1)

    @pytest.mark.parametrize("bad, name", [
        (dict(n_grid=100), "n_grid"), (dict(n_grid="50"), "n_grid"),
        (dict(t_grid=1.0), "t_grid"), (dict(t_grid="12"), "t_grid"),
        (dict(t_grid=[True]), "t_grid"), (dict(t_grid=["a"]), "t_grid"),
        (dict(epsilon=True), "epsilon"), (dict(epsilon="a"), "epsilon")])
    def test_lists_and_numbers_are_read_as_written(self, bad, name):
        # a string is no list of its characters and a bool is no number
        with pytest.raises(DomainError, match=name):
            small_config(**bad)

    def test_numpy_grids_read_as_their_lists(self):
        cfg = small_config(n_grid=np.array([50, 200]),
                           t_grid=np.array([0.5, 2.0]))
        assert cfg == small_config(n_grid=[50, 200], t_grid=(0.5, 2.0))

    def test_family_must_be_a_mapping(self):
        # a family object would not serialise into the digest
        with pytest.raises(DomainError, match="mapping"):
            small_config(family=mobius_clamped_family(2))

    @pytest.mark.parametrize("family, weights", [
        ({"kind": "mobius_clamped", "cn": 2}, {"kind": "cesaro"}),
        ({"kind": "uniform", "c_n": 2}, {"kind": "cesaro"}),
        ({"kind": "uniform"}, {"kind": "cesaro", "alpha": 0.5}),
        ({"kind": "uniform"}, {"kind": "power_alpha", "alpha": "half"})])
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
        current = RunRecord(cfg.digest("weak_law"), "weak_law", ({"n": 10},),
                            0.1)
        monkeypatch.setattr(experiments, "_pkg_version", "0.0.0")
        other = RunRecord(cfg.digest("weak_law"), "weak_law", ({"n": 10},),
                          0.1, version="0.0.0")
        assert other.config_digest != current.config_digest
        save_record(other, tmp_path)
        monkeypatch.undo()
        save_record(current, tmp_path)
        assert len(list(tmp_path.iterdir())) == 2
        assert load_record(cfg.digest("weak_law"), tmp_path) == current

    def test_digest_hashes_the_fields_as_json(self):
        # tuples are written as the lists a config file gives
        cfg = small_config(t_grid=[0.5, 2.0])
        payload = {"master_seed": 1, "n_grid": [50, 200], "replications": 120,
                   "scheme": "direct", "mode": "classical_1_2",
                   "family": {"kind": "uniform"},
                   "weights": {"kind": "cesaro"}, "beta": "constant:0",
                   "epsilon": 0.3, "t_grid": [0.5, 2.0],
                   "experiment": "distributional", "version": __version__}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert cfg.digest("distributional") == \
            hashlib.sha256(text.encode()).hexdigest()

    def test_numpy_tags_are_plain(self):
        # arrays and numpy numbers in tags are kept as the lists and numbers
        # a config file gives, so the digest can write them
        betas = np.array([0.1, 0.2])
        cfg = small_config(mode="cor_4_3", beta=betas)
        assert cfg.beta == [0.1, 0.2] and type(cfg.beta[0]) is float
        assert cfg.digest("distributional") == small_config(
            mode="cor_4_3", beta=[0.1, 0.2]).digest("distributional")
        family = {"kind": "mobius_clamped", "c_n": np.int64(2)}
        weights = {"kind": "cesaro", "rho": [np.float64(1.0), 1.0]}
        cfg = small_config(family=family, weights=weights)
        assert type(cfg.family["c_n"]) is int
        assert cfg.digest("weak_law") == small_config(
            family=MOBIUS_2,
            weights={"kind": "cesaro", "rho": [1.0, 1.0]}).digest("weak_law")

    def test_numpy_integers_are_python_ints(self):
        cfg = small_config(master_seed=np.int64(1), replications=np.int64(120))
        assert type(cfg.master_seed) is int
        assert type(cfg.replications) is int
        assert cfg.digest("weak_law") == small_config().digest("weak_law")
        assert exact_weak_law_run(cfg) == exact_weak_law_run(small_config())


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
        # another config's record, filed under this digest
        path.write_text(text.replace("abc123", "def456"))
        assert load_record("abc123", tmp_path) is None
        # no rows to print, or a row without the first row's keys
        for per_n in ([], "ab", [1], {"n": 10},
                      [{"n": 10, "x": 1.5}, {"n": 200}]):
            doc = {**json.loads(text), "per_n": per_n}
            path.write_text(json.dumps(doc))
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

    def test_stream_is_the_spawned_seed_sequence(self):
        ss = np.random.SeedSequence(7, spawn_key=(2, 3))
        reference = np.random.Generator(np.random.PCG64(ss))
        assert np.array_equal(replication_rng(7, 2, 3).random(8),
                              reference.random(8))

    def test_stream_spawns_as_the_seed_sequence(self):
        reference = np.random.default_rng(
            np.random.SeedSequence(7, spawn_key=(2, 3)))
        rng = replication_rng(7, 2, 3)
        assert rng.bit_generator.seed_seq.spawn_key == (2, 3)
        for _ in range(2):  # a second spawn continues the numbering
            for child, ref in zip(rng.spawn(2), reference.spawn(2)):
                assert np.array_equal(child.random(4), ref.random(4))

    def test_hashed_stream_serves_only_its_pcg64_state(self):
        words = experiments._stream_words(7, 2, [3])[0]
        with pytest.raises(ValueError):
            experiments._HashedSeed(words).generate_state(8)
        with pytest.raises(TypeError):
            replication_rng(7, 2, 3, words).spawn(1)

    # the edges where a seed (1, 2, 4, 5), n_index or replication index
    # takes one more 32-bit word
    @example(seed=0, n_index=0, reps=[0, 2**32 - 1, 2**32])
    @example(seed=0, n_index=2**32, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**32 - 1, n_index=0, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**32 - 1, n_index=2**32, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**32, n_index=0, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**32, n_index=2**32, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**96, n_index=0, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**96, n_index=2**32, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**128 - 1, n_index=0, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**128 - 1, n_index=2**32, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**128, n_index=0, reps=[0, 2**32 - 1, 2**32])
    @example(seed=2**128, n_index=2**32, reps=[0, 2**32 - 1, 2**32])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**200),
           n_index=st.integers(min_value=0, max_value=2**40),
           reps=st.lists(st.one_of(
               st.integers(min_value=0, max_value=2**32 - 1),
               st.integers(min_value=2**32, max_value=2**64 - 1)),
               min_size=1, max_size=6))
    def test_stream_words_are_the_seed_sequence_hash(self, seed, n_index,
                                                     reps):
        words = experiments._stream_words(seed, n_index, reps)
        assert words.shape == (len(reps), 4)
        for rep, row in zip(reps, words):
            ss = np.random.SeedSequence(seed, spawn_key=(n_index, rep))
            assert np.array_equal(row, ss.generate_state(4, np.uint64))
            reference = np.random.Generator(np.random.PCG64(ss))
            assert np.array_equal(
                replication_rng(seed, n_index, rep, row).random(8),
                reference.random(8))

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
        (exact_weak_law_run, dict(scheme="engel", family=REMARK2_SLOW)),
        (exact_weak_law_run, dict(scheme="sylvester")),
        (exact_weak_law_run, dict(scheme="sylvester", family=DISCRETE_HALF)),
        (distributional_run, dict(n_grid=(100, 400))),
        (distributional_run, dict(n_grid=(100, 400), mode="cor_4_3",
                                  beta="constant:0.5")),
    ], ids=["direct", "engel", "engel-mobius", "engel-remark2-slow",
            "sylvester", "sylvester-discrete", "classical", "cor43-half"])
    def test_records_do_not_depend_on_block_size(self, monkeypatch, runner,
                                                 kw):
        # with and without the helper thread, whatever the machine's CPUs
        cfg = small_config(**kw)
        default = runner(cfg)
        default_block = experiments._BLOCK
        monkeypatch.setattr(experiments, "_HELPER_WIDTH", 1)
        for helpers in (0, 1):
            monkeypatch.setattr(experiments, "_HELPERS", helpers)
            monkeypatch.setattr(experiments, "_BLOCK", default_block)
            assert runner(cfg) == default
            for block in (1, 1000):  # one replication per block; ragged
                monkeypatch.setattr(experiments, "_BLOCK", block)
                assert runner(cfg) == default

    def test_records_do_not_depend_on_blas_threads(self):
        # np.dot under OpenBLAS threads a dot product of more than 10,000
        # elements, and its last bit then depends on the thread count
        script = (
            "import json\n"
            "from oppenheimlab.experiments import ExperimentConfig, "
            "exact_weak_law_run\n"
            "rec = exact_weak_law_run(ExperimentConfig(master_seed=3, "
            "n_grid=(20001,), replications=8, scheme='engel', "
            f"family={MOBIUS_2!r}))\n"
            "print(json.dumps(rec.per_n))\n")
        src = str(Path(experiments.__file__).resolve().parents[1])
        records = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=300)
            records.append(done.stdout)
        assert records[0] == records[1]

    def test_classical_is_cor43_beta_zero(self):
        classical = v_samples(small_config(), 200, 1)
        cor43 = v_samples(small_config(mode="cor_4_3", beta="constant:0"),
                          200, 1)
        assert np.array_equal(classical, cor43)


def _helper_raises(monkeypatch):
    """Patches ``_draw`` so that the first block the helper thread takes
    raises DomainError, while the caller's first block waits for the helper
    to stop; returns the helper threads and the caller's blocks."""
    monkeypatch.setattr(experiments, "_HELPERS", 1)
    monkeypatch.setattr(experiments, "_HELPER_WIDTH", 1)
    monkeypatch.setattr(experiments, "_BLOCK", 1)  # many blocks
    draw = experiments._draw
    helpers, caller_blocks = [], []
    entered = threading.Event()

    def draw_or_raise(streams, u):
        if threading.current_thread() is threading.main_thread():
            caller_blocks.append(len(streams))
            assert entered.wait(timeout=60)
            helpers[0].join(timeout=60)
            return draw(streams, u)
        helpers.append(threading.current_thread())
        entered.set()
        raise DomainError("raised in a block on the helper")

    monkeypatch.setattr(experiments, "_draw", draw_or_raise)
    return helpers, caller_blocks


def _caller_raises(monkeypatch, exc_type):
    """Patches ``_draw`` so that the first block the calling thread takes
    raises ``exc_type`` while the helper holds a block, which it finishes
    only once the exception has left the caller's block loop; returns the
    blocks the helper took, as its thread each, and the caller's."""
    monkeypatch.setattr(experiments, "_HELPERS", 1)
    monkeypatch.setattr(experiments, "_HELPER_WIDTH", 1)
    monkeypatch.setattr(experiments, "_BLOCK", 1)  # many blocks
    draw = experiments._draw
    helper_blocks, caller_blocks = [], []
    entered, raised = threading.Event(), threading.Event()
    main = threading.main_thread()

    def caller_in_block_loop():
        frame = sys._current_frames().get(main.ident)
        while frame is not None and frame.f_code.co_name != "take_blocks":
            frame = frame.f_back
        return frame is not None

    def draw_or_raise(streams, u):
        if threading.current_thread() is main:
            caller_blocks.append(len(streams))
            assert entered.wait(timeout=60)
            raised.set()
            raise exc_type("raised in a block on the caller")
        helper_blocks.append(threading.current_thread())
        entered.set()
        assert raised.wait(timeout=60)
        deadline = time.monotonic() + 60
        while caller_in_block_loop() and time.monotonic() < deadline:
            time.sleep(1e-3)
        return draw(streams, u)

    monkeypatch.setattr(experiments, "_draw", draw_or_raise)
    return helper_blocks, caller_blocks


class TestBlockScheduler:
    @pytest.mark.parametrize("kw", [
        dict(scheme="direct"), dict(scheme="luroth"),
        dict(scheme="engel", family=MOBIUS_2)],
        ids=["direct", "luroth", "engel-mobius"])
    def test_one_stream_per_replication(self, monkeypatch, kw):
        # three helpers beside the caller, one replication per block, threads
        # switched every microsecond: each stream is still built once, in
        # replication order, and the record is the caller's alone
        cfg = small_config(replications=600, **kw)
        monkeypatch.setattr(experiments, "_HELPERS", 0)
        alone = exact_weak_law_run(cfg)
        calls = []
        rng = experiments.replication_rng

        def counted(master_seed, n_index, rep, words=None):
            calls.append((n_index, rep))
            return rng(master_seed, n_index, rep, words)

        monkeypatch.setattr(experiments, "replication_rng", counted)
        monkeypatch.setattr(experiments, "_HELPERS", 3)
        monkeypatch.setattr(experiments, "_HELPER_WIDTH", 1)
        monkeypatch.setattr(experiments, "_BLOCK", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = exact_weak_law_run(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert calls == [(i, rep) for i in range(len(cfg.n_grid))
                         for rep in range(cfg.replications)]
        assert shared == alone

    @pytest.mark.parametrize("kw", [
        dict(scheme="direct"), dict(scheme="engel", family=MOBIUS_2)],
        ids=["direct", "engel-mobius"])
    @pytest.mark.parametrize("width, block", [
        (experiments._HELPER_WIDTH, 1),  # short rows in many blocks
        (1, 2**15),  # every grid point in one block
    ], ids=["short-rows", "one-block"])
    def test_helper_left_out(self, monkeypatch, kw, width, block):
        monkeypatch.setattr(experiments, "_HELPERS", 1)
        monkeypatch.setattr(experiments, "_HELPER_WIDTH", width)
        monkeypatch.setattr(experiments, "_BLOCK", block)
        threads = set()
        draw = experiments._draw

        def recorded(streams, u):
            threads.add(threading.current_thread())
            return draw(streams, u)

        monkeypatch.setattr(experiments, "_draw", recorded)
        cfg = small_config(**kw)  # rows of 50 and 200, 120 replications
        exact_weak_law_run(cfg)
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("kw", [
        dict(scheme="direct"), dict(scheme="engel", family=MOBIUS_2)],
        ids=["direct", "engel-mobius"])
    def test_helper_error_reaches_caller(self, monkeypatch, kw):
        helpers, caller_blocks = _helper_raises(monkeypatch)
        with pytest.raises(DomainError, match="on the helper"):
            exact_weak_law_run(small_config(**kw))
        assert len(helpers) == 1 and not helpers[0].is_alive()
        # the caller took at most the block it had when the helper
        # raised, and none after it
        assert len(caller_blocks) <= 1

    @pytest.mark.parametrize("exc_type", [DomainError, KeyboardInterrupt])
    def test_caller_error_stops_helper(self, monkeypatch, exc_type):
        # the helper finishes the block it holds and takes no other, and it
        # has stopped when the exception reaches the caller
        helper_blocks, caller_blocks = _caller_raises(monkeypatch, exc_type)
        with pytest.raises(exc_type, match="on the caller"):
            exact_weak_law_run(small_config())
        assert len(helper_blocks) == 1 and not helper_blocks[0].is_alive()
        assert caller_blocks == [1]

    def test_helper_error_exits_2(self, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("experiment: weak_law\nmaster_seed: 5\n"
                       "n_grid: [50, 200]\nreplications: 60\n")
        _helper_raises(monkeypatch)
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "on the helper" in capsys.readouterr().err


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

    def test_steep_power_alpha_run_completes(self):
        # k^150 overflows from k = 114 on, and the weights that underflow
        # to 0 add 0 log 0 = 0 to the centering
        cfg = small_config(n_grid=(100, 1000, 10000), replications=100,
                           weights={"kind": "power_alpha", "alpha": -150})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = distributional_run(cfg)
        assert [row["n"] for row in rec.per_n] == [100, 1000, 10000]
        assert all(math.isfinite(value) for row in rec.per_n
                   for value in row.values())

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
