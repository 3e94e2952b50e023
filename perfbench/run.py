"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh interpreter
(``worker.py``) that imports the package from ``src/`` and runs the
workload's seeded operations once, so every sample pays the import and the
cold caches that a CLI invocation pays.  Samples run one after another, as a
closed loop with one client, until the next one would end more than half a
sample after S seconds (at least MIN_SAMPLES of them).  Medians over the
samples are reported.

With ``--trace 0`` it prints the end-to-end metrics:
  run_s          time of the workload's operations after import
  setup_s        time to import oppenheimlab.cli in a fresh interpreter
  peak_rss_mb    peak resident memory of a sample's process
  success_rate   operations that passed their gates / operations attempted
With ``--trace 1`` samples alternate untraced and traced, and it prints the
per-layer metrics of ``tracing.py`` plus process.cpu_s and run.wall_s
(untraced samples), limitlaw.cdf_err_max, limitlaw.failed_scales and
trace.overhead_s (traced minus untraced run_s).

run_s and setup_s are calibrated to a fixed machine speed (see ``worker.py``);
run.wall_s is the same time uncalibrated, also printed on a comment line.

Every metric is printed as ``name value unit``; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  ``failed``
counts operations that raised, exited non-zero, returned a non-finite field
or missed a gate; each is listed on a ``# failed:`` line above the JSON.
``correct`` is true when every sample of the run, traced or not, produced
bit-identical outputs (run records without their wall time, CDF tables, KS
values), as the package's reproducibility contract promises.  The exit code
is 2 when there is no package to measure and 1 when a sample crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


class SampleError(RuntimeError):
    pass


def _sample(env: dict, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--root", str(ROOT), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SampleError(f"worker {' '.join(args)} exited "
                          f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(untraced samples, traced samples) of one run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # OpenBLAS threads the weak-law's 1e5-element dot products; while any
    # other process holds the second core of a 2-core host, each dot then
    # takes 1.5 ms instead of 36 us, and timings would measure the neighbours
    env["OPENBLAS_NUM_THREADS"] = "1"
    args = ("--workload", workload, "--seed", str(seed))
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(_sample(env, *args))
        if trace:
            traced.append(_sample(env, *args, "--trace"))
        elapsed = time.monotonic() - start
        rounds = len(plain)
        # stop once another round would end more than half a round late
        if rounds >= (1 if trace else MIN_SAMPLES) and \
                elapsed * (rounds + 0.5) / rounds > seconds:
            break
    return plain, traced


def _median(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(plain: list) -> dict:
    attempted = sum(s["attempted"] for s in plain)
    failed = sum(s["failed"] for s in plain)
    return {
        "run_s": (_median(plain, "run_s"), "s"),
        "setup_s": (_median(plain, "setup_s"), "s"),
        "peak_rss_mb": (_median(plain, "peak_rss_mb"), "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain: list, traced: list) -> dict:
    from tracing import Tracer
    units = {k: u for k, (_, u) in Tracer().metrics().items()}
    out = {name: (statistics.median(s["trace"][name] for s in traced), unit)
           for name, unit in units.items()}
    out["process.cpu_s"] = (_median(plain, "cpu_s"), "s")
    out["run.wall_s"] = (_median(plain, "wall_s"), "s")
    out["limitlaw.cdf_err_max"] = (_median(traced, "cdf_err_max"), "abs")
    out["limitlaw.failed_scales"] = (_median(traced, "failed_scales"),
                                     "count")
    out["trace.overhead_s"] = (
        _median(traced, "run_s") - _median(plain, "run_s"), "s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="oppenheimlab benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "oppenheimlab" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/oppenheimlab to measure",
              file=sys.stderr)
        return 2
    try:
        plain, traced = collect(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except (SampleError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(f"# {args.workload} seed {args.seed}: {len(plain)} samples"
          + (f" + {len(traced)} traced" if traced else ""))
    for failure in sorted({f for s in samples for f in s["failures"]}):
        print(f"# failed: {failure}")
    for name in sorted({a for s in traced for a in s.get("absent", [])}):
        print(f"# absent: {name}")
    print(f"# uncalibrated wall time of the operations: median "
          f"{_median(plain, 'wall_s'):.6g} s; speed timings dropped beside "
          f"the program's own parallel work: "
          f"{sum(s['dropped_ticks'] for s in samples)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": len({s["outputs"] for s in samples}) == 1,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
