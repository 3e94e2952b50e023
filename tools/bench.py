"""Paired benchmark of a base commit against this checkout, written as
BENCH_<version>.json at the repository root.

    python3 tools/bench.py --base REV [--first-seed N] [--workload NAME ...]

The base commit REV is exported with ``git archive`` into a temporary
directory; the change is this checkout's working tree, uncommitted edits
included.  For every workload and each of the PAIRS pairs p, each tree runs
its own

    perfbench/run.py --workload W --seed (first_seed + p) --seconds S --trace 0

one after the other, the base first on pairs 1, 3, 5, ... and the change
first on the others, so a drift of the speed of the machine favours neither
side.  For every end-to-end metric of BENCHMARK.json the file records each
side's median and quartiles over the pairs, every run's value, the pairs
the change won (ties count for neither side), whether the gain rule
holds (the change wins at least nine tenths of the pairs and the medians
differ by more than the distance between the base's quartiles), and whether
the change's median is within the metric's bound: worse than the base's
median by no more than that share of it.  A machine note (cores, the CPUs
the process may use, OPENBLAS_NUM_THREADS as the runs inherit it, Python,
NumPy, platform) says where the numbers were taken.

An existing BENCH_<version>.json is never overwritten: the script exits
non-zero and names it before running anything, so a rerun of one workload
cannot replace a file of all four.  Bump the version or move the file away
first.

S is the benchmark's run_seconds.  Ten pairs of all four workloads take
about 2 * 10 * 4 * S seconds; run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from oppenheimlab import __version__  # noqa: E402

PAIRS = 10  # alternating pairs per workload
GAIN_SHARE = 0.9  # share of pairs the change must win to claim a gain


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12+, 3.11.4+
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def measure(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one ``perfbench/run.py --trace 0`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {workload} seed {seed} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{tree}: {workload} seed {seed} gave differing outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(metric: dict, base: list, change: list) -> dict:
    """One end-to-end metric of one workload over all pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b, c = _spread(base), _spread(change)
    gain = (wins >= GAIN_SHARE * len(base)
            and sign * (b["median"] - c["median"]) > b["q3"] - b["q1"])
    worse_by = sign * (c["median"] - b["median"])
    return {"unit": metric["unit"], "better": metric["better"],
            "base": b, "change": c, "change_wins": wins,
            "relative_median_change": (c["median"] - b["median"])
            / b["median"] if b["median"] else None,
            "gain_shown": gain,
            "within_bound": worse_by <= metric["bound"] * abs(b["median"])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)
    out = ROOT / f"BENCH_{__version__}.json"
    if out.exists():
        sys.exit(f"{out.name} exists; not overwriting it")
    workloads = args.workload or names
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    base_rev = _git("rev-parse", args.base)

    runs = {w: {"base": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        export(base_rev, base_tree)
        for w in workloads:
            for i, seed in enumerate(seeds):
                order = [("base", base_tree), ("change", ROOT)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[w][side].append(
                        measure(tree, w, seed, seconds))
                print(f"{w} pair {i + 1}/{len(seeds)}: run_s "
                      f"{runs[w]['base'][-1]['run_s']:.4g} -> "
                      f"{runs[w]['change'][-1]['run_s']:.4g}", flush=True)

    report = {
        "version": __version__,
        "base": base_rev,
        "change": f"working tree on {_git('rev-parse', 'HEAD')}",
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "pairs": len(seeds),
        "seeds": seeds,
        "order": "base first on pairs 1, 3, 5, ...; change first on the "
                 "others",
        "machine": {"nproc": os.cpu_count(),
                    # the CPUs a run may use, which decide whether a grid
                    # point's blocks get a helper thread
                    "cpus_usable": len(os.sched_getaffinity(0)),
                    # inherited by every run; perfbench/run.py then sets it
                    # to 1 for its samples
                    "openblas_num_threads":
                        os.environ.get("OPENBLAS_NUM_THREADS"),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "platform": platform.platform()},
        "workloads": {w: {m["name"]: summarise(
            m, [r[m["name"]] for r in runs[w]["base"]],
            [r[m["name"]] for r in runs[w]["change"]])
            for m in spec["end_to_end"]} for w in workloads},
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
