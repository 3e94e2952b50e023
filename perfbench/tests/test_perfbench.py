"""Tests of the benchmark itself: seeded generators, tracing, reference
coverage and the metric names it reports.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from oppenheimlab import experiments, limitlaw, weights  # noqa: E402
from oppenheimlab.experiments import (  # noqa: E402
    ExperimentConfig,
    distributional_run,
    exact_weak_law_run,
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_deterministic_per_seed(workload):
    assert workloads.plan(workload, 7) == workloads.plan(workload, 7)
    assert workloads.plan(workload, 7) != workloads.plan(workload, 8)
    json.dumps(workloads.plan(workload, 7))  # plans are plain data


def test_mixed_betas_are_distinct_in_range_and_end_in_the_tail():
    betas = workloads.mixed_betas(3)
    head = betas[:-1]
    lo, hi = workloads.MIXED_BETA_RANGE
    assert len(set(head)) == len(head) == workloads.MIXED_BETA_COUNT
    assert all(lo <= b <= hi for b in head)
    assert betas[-1] == workloads.MIXED_BETA_TAIL
    assert workloads.mixed_betas(3) == betas != workloads.mixed_betas(4)


@pytest.mark.parametrize("seed", range(20))
def test_mixed_betas_pass_theorem_4_1_conditions(seed):
    betas = workloads.mixed_betas(seed)
    n_max = max(workloads.MIXED_BETA_N_GRID)
    report = weights.check_theorem_4_1_conditions(
        weights.cesaro_scheme(), lambda k: 1.0 - betas[min(k, len(betas)) - 1],
        n_max)
    assert report.passed, report.conditions
    assert report.ell == pytest.approx(
        workloads.mixed_beta_ell(betas, n_max), abs=workloads.ELL_TOLERANCE)


def test_mixed_beta_run_needs_one_quadrature_per_k():
    betas = workloads.mixed_betas(5)
    n = max(workloads.MIXED_BETA_N_GRID)
    assert workloads.MIXED_BETA_N_GRID == (n,)
    assert len(set(betas[:n])) == n  # no c2_discrete input repeats


def test_flat_head_is_what_the_generator_avoids():
    flat = [0.3] * 50 + [0.5]
    report = weights.check_theorem_4_1_conditions(
        weights.cesaro_scheme(), lambda k: 1.0 - flat[min(k, len(flat)) - 1],
        max(workloads.MIXED_BETA_N_GRID))
    assert report.verdict("ell_limit") == "inconclusive"


SMALL_CONFIGS = [
    (distributional_run, ExperimentConfig(
        master_seed=5, n_grid=(20, 40), replications=100, mode="cor_4_3",
        beta=workloads.mixed_betas(1)[:30] + [0.5])),
    (distributional_run, ExperimentConfig(
        master_seed=5, n_grid=(20, 40), replications=100)),
    (exact_weak_law_run, ExperimentConfig(
        master_seed=5, n_grid=(20, 400), replications=50, scheme="engel")),
    (exact_weak_law_run, ExperimentConfig(
        master_seed=5, n_grid=(20, 400), replications=50, scheme="direct")),
]


@pytest.mark.parametrize("runner,config", SMALL_CONFIGS)
def test_traced_and_untraced_records_are_identical(runner, config):
    plain = runner(config)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = experiments.__dict__[runner.__name__](config)
    assert traced == plain
    assert tracer.calls["experiments.run"] == 1
    assert tracer.calls["experiments.replication_rng"] == \
        config.replications * len(config.n_grid)
    assert tracer.absent == []


def test_tracer_counts_cold_evaluations_once_per_scale():
    law = limitlaw.StableLimitLaw(c=0.7)
    tracer = tracing.Tracer()
    with tracer.installed():
        limitlaw.cdf(law, 0.0)
        limitlaw.cdf_many(law, np.array([0.5, 1.0]))
        limitlaw.ks_distance(np.array([0.1, 0.2]), law)
    assert tracer.calls[tracing.COLD_SPAN] == 1
    assert tracer.calls["limitlaw.cdf_many"] == 2  # one inside ks_distance


def test_tracer_restores_originals_and_reports_missing_names(monkeypatch):
    originals = (experiments.replication_rng, weights.weights_row,
                 experiments.weights_row, experiments.discrete_beta_family)
    monkeypatch.setitem(tracing.SPANS, "gone", [("experiments", "no_such")])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert experiments.weights_row is not originals[2]
    assert tracer.absent == ["experiments.no_such"]
    assert (experiments.replication_rng, weights.weights_row,
            experiments.weights_row,
            experiments.discrete_beta_family) == originals


def test_reference_covers_every_cdf_operation():
    reference = workloads.load_reference()
    for op in workloads.plan("cdf-scales", 0):
        if op["kind"] != "limit-cdf":
            continue
        argv = op["argv"]
        xs = np.linspace(float(argv[argv.index("--x-min") + 1]),
                         float(argv[argv.index("--x-max") + 1]),
                         int(argv[argv.index("--points") + 1]))
        assert reference["laws"][op["law"]][op["grid"]]["x"] == xs.tolist()


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sample = {"run_s": 1.0, "wall_s": 2.0, "setup_s": 1.0, "peak_rss_mb": 80.0,
              "cpu_s": 1.0, "attempted": 4, "failed": 1,
              "cdf_err_max": 0.0, "failed_scales": 0,
              "trace": {k: 0.0 for k in tracing.Tracer().metrics()}}
    e2e = run.end_to_end([sample])
    layers = run.per_layer([sample], [sample])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())
    assert e2e["success_rate"][0] == 0.75


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _busy_child():
    return subprocess.Popen([sys.executable, "-c", "import time\n"
                             "end = time.perf_counter() + 0.6\n"
                             "while time.perf_counter() < end: pass"]).wait


def _busy_thread():
    thread = threading.Thread(target=_spin, args=(0.6,))
    thread.start()
    return thread.join


@pytest.mark.parametrize("start", [_busy_child, _busy_thread])
def test_speed_monitor_drops_timings_taken_beside_the_programs_own_work(
        start):
    monitor = worker.SpeedMonitor()
    monitor.tick()
    wait = start()
    time.sleep(0.3)
    monitor.tick()
    assert (len(monitor.loop_times), monitor.dropped) == (1, 1)
    wait()
    monitor.tick()  # overlaps the end of the busy work
    time.sleep(0.1)
    monitor.tick()
    assert (len(monitor.loop_times), monitor.dropped) == (2, 2)
