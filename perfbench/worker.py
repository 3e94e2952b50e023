"""One benchmark sample: runs a workload's operations once in this fresh
interpreter and prints one JSON line.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N [--trace]

``run.py`` starts it with ``ROOT/src`` on PYTHONPATH, so every sample pays the
import and the cold caches that every CLI invocation pays.  Operations go
through ``oppenheimlab.cli.main`` where a subcommand exists and through the
public API otherwise.  An operation fails if it raises, exits non-zero,
returns a non-finite field or misses its gate; failures are counted, never
raised.

Times are calibrated to a fixed machine speed.  On a shared host the speed
of the whole machine drifts by 20-50 % over seconds, so raw wall times of one
sample vary by that much.  A SpeedMonitor times a short pure-Python loop every
50 ms during the sample, and each timed step is rescaled to a machine on which
that loop takes REF_LOOP_S.  Over 8 stable-mc runs this cut the sample-to-
sample spread of run_s (standard deviation / mean) from 11 % to 4 %, and the
run-to-run spread (quartile distance / median) from 0.14 to 0.06.

The loop runs in the main thread's signal handler, so the program's main
thread is paused while it runs.  A loop timing is dropped when, since the
previous one, other threads of this process or its descendant processes used
CPU: then the program's own parallel work shared the cores with the loop and
would have slowed it, crediting the program with a speed-up it did not make.
The step is then rescaled by the loop timings taken while the program was
idle, one of which is taken after every operation.  Calibration still cannot
tell how much a program that fills both cores suffers from its neighbours;
judge a change that adds parallel work by the uncalibrated wall time too,
which the traced run reports as run.wall_s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

import workloads

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")  # units of CPU times in /proc


class SpeedMonitor:
    """The machine's speed throughout a sample.

    A SIGALRM handler times a LOOPS-step pure-Python loop every PERIOD_S of
    wall time; Python runs it between bytecodes, so it never changes what the
    program computes.  The loop evaluates a Gil-Pelaez-like integrand in
    floats, like the quadrature callbacks that dominate most workloads; it
    tracked stable-mc samples better (4.0 % sample-to-sample spread left)
    than an integer loop (5.7 %) or a NumPy sort (worse than both).
    A timing is dropped when the program's other threads and descendant
    processes used more than BUSY_SHARE of a core since the previous one.
    ``calibrated`` rescales a step's wall time by REF_LOOP_S over the mean of
    the loop times kept during the step and the last one kept before it.
    """

    PERIOD_S = 0.05
    LOOPS = 1000
    REF_LOOP_S = 3.2e-4  # the loop's time on this 2-core VM in its fast state
    BUSY_SHARE = 0.05

    def __init__(self):
        self.loop_times: list = []
        self.spent = 0.0
        self.dropped = 0
        self._last = None  # (wall clock, other CPU) at the previous timing
        self._ticking = False

    @staticmethod
    def other_cpu() -> float:
        """CPU seconds used so far by this process's threads other than the
        main one, by its descendants that are alive and by its reaped
        children.  Descendants are found by their parent pid among the pids
        above this process's own (Linux /proc; none elsewhere)."""
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = time.process_time() - time.thread_time() + \
            reaped.ru_utime + reaped.ru_stime
        me = os.getpid()
        try:
            entries = os.listdir("/proc")
        except OSError:
            return total
        stats = {}
        for entry in entries:
            if entry.isdigit() and int(entry) > me:
                try:
                    with open(f"/proc/{entry}/stat") as f:
                        text = f.read()
                except OSError:
                    continue
                fields = text[text.rindex(")") + 2:].split()
                stats[int(entry)] = (int(fields[1]),
                                     int(fields[11]) + int(fields[12]))
        ours = {me}
        for pid in sorted(stats):  # a process's pid exceeds its parent's
            if stats[pid][0] in ours:
                ours.add(pid)
                total += stats[pid][1] / CLOCK_TICKS
        return total

    def tick(self, signum=None, frame=None):
        if self._ticking:  # the timer fired during a tick called directly
            return
        self._ticking = True
        start = time.perf_counter()
        try:
            acc = 0.0
            for i in range(self.LOOPS):
                t = 1e-3 * i + 1e-6
                acc += math.exp(-1.5 * t) * \
                    math.sin(0.3 * t + t * math.log(t)) / t
            loop = time.perf_counter() - start
            other = self.other_cpu()
            now = time.perf_counter()
            if self._last is not None and other - self._last[1] > \
                    self.BUSY_SHARE * (now - self._last[0]):
                self.dropped += 1
            else:
                self.loop_times.append(loop)
            self._last = (now, other)
        finally:
            self.spent += time.perf_counter() - start
            self._ticking = False

    @contextlib.contextmanager
    def running(self):
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return max(len(self.loop_times) - 1, 0)

    @contextlib.contextmanager
    def stopwatch(self, add):
        """Passes ``add`` the block's wall time less the handler's."""
        start, spent = time.perf_counter(), self.spent
        try:
            yield
        finally:
            add(time.perf_counter() - start - (self.spent - spent))

    def calibrated(self, seconds: float, mark: int) -> float:
        """``seconds`` of a step that began at ``mark``, rescaled."""
        loops = self.loop_times[mark:]
        if not loops:
            return seconds
        return seconds * self.REF_LOOP_S * len(loops) / sum(loops)


def _exit_failure(code: int, err: str) -> str:
    lines = err.strip().splitlines()
    return f"exit {code}: {lines[-1] if lines else 'no message'}"


class Sample:
    """The operations of one workload run and their outcomes."""

    def __init__(self, workdir: Path, monitor: SpeedMonitor):
        import numpy as np
        import yaml

        import oppenheimlab
        from oppenheimlab import cli, limitlaw
        self.np, self.yaml = np, yaml
        self.package, self.cli, self.limitlaw = oppenheimlab, cli, limitlaw
        self.workdir = workdir
        self.monitor = monitor
        self.reference = None
        self.seconds = 0.0  # wall time of the current operation's calls
        self.wall_s = 0.0
        self.run_s = 0.0
        self.failures: list = []
        self.failed_laws: set = set()
        self.cdf_err_max = 0.0
        self.outputs = hashlib.sha256()

    def _add_seconds(self, seconds: float):
        self.seconds += seconds

    def _run_cli(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.monitor.stopwatch(self._add_seconds):
                code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run(self, ops: list):
        for index, op in enumerate(ops):
            mark = self.monitor.mark()
            self.seconds = 0.0
            failure = getattr(self, "_" + op["kind"].replace("-", "_"))(
                index, op)
            self.monitor.tick()  # the package is idle between operations
            self.wall_s += self.seconds
            self.run_s += self.monitor.calibrated(self.seconds, mark)
            self.outputs.update(f"{op['label']}\n{failure}\n".encode())
            if failure is not None:
                self.failures.append(f"{op['label']}: {failure}")
                if "law" in op:
                    self.failed_laws.add(op["law"])

    def _run(self, index: int, op: dict):
        config = op["config"]
        if isinstance(config, str):
            path = Path(self.package.__file__).parent / "configs" / \
                f"{config}.yaml"
            target, doc = config, self.yaml.safe_load(path.read_text())
        else:
            path = self.workdir / f"op{index}.yaml"
            path.write_text(self.yaml.safe_dump(config))
            target, doc = str(path), config
        code, out, err = self._run_cli([
            "run", target, "--force", "--seed", str(op["seed"]),
            "--out", str(self.workdir / "results"), "--format", "json"])
        if code != 0:
            return _exit_failure(code, err)
        try:
            record = json.loads(out)
        except ValueError:
            return "output is not a JSON record"
        payload = {k: v for k, v in record.items() if k != "wall_time"}
        self.outputs.update(json.dumps(payload, sort_keys=True).encode())
        return workloads.check_record(op, doc, record)

    def _limit_cdf(self, index: int, op: dict):
        code, out, err = self._run_cli(op["argv"])
        if code != 0:
            return _exit_failure(code, err)
        self.outputs.update(out.encode())
        if self.reference is None:
            self.reference = workloads.load_reference()
        failure, worst = workloads.check_cdf_table(op, out, self.reference)
        if math.isfinite(worst):
            self.cdf_err_max = max(self.cdf_err_max, worst)
        return failure

    def _ks(self, index: int, op: dict):
        rng = self.np.random.default_rng(op["seed"])
        try:
            with self.monitor.stopwatch(self._add_seconds):
                law = self.package.StableLimitLaw(c=op["c"],
                                                  delta=op["delta"])
                draws = self.limitlaw.sample_many(law, rng, op["draws"])
                ks = self.limitlaw.ks_distance(draws, law)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            return f"{type(exc).__name__}: {exc}"
        self.outputs.update(repr(ks).encode())
        return workloads.check_cms_ks(ks)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    src = (Path(args.root) / "src").resolve()

    monitor = SpeedMonitor()
    with monitor.running():
        mark, setup = monitor.mark(), []
        with monitor.stopwatch(setup.append):
            import oppenheimlab.cli
        monitor.tick()
        setup_s = monitor.calibrated(setup[0], mark)
        if src not in Path(oppenheimlab.cli.__file__).resolve().parents:
            print(f"imported {oppenheimlab.cli.__file__}, not the copy in "
                  f"{src}", file=sys.stderr)
            return 2

        ops = workloads.plan(args.workload, args.seed)
        tracer = None
        with tempfile.TemporaryDirectory(dir=args.root,
                                         prefix=".perfbench-") as tmp:
            sample = Sample(Path(tmp), monitor)
            cpu_start, spent = time.process_time(), monitor.spent
            if args.trace:
                from tracing import Tracer
                tracer = Tracer()
                with tracer.installed():
                    sample.run(ops)
            else:
                sample.run(ops)
            cpu_s = time.process_time() - cpu_start - (monitor.spent - spent)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s, "run_s": sample.run_s, "wall_s": sample.wall_s,
        "cpu_s": cpu_s, "peak_rss_mb": peak_kib / 1024.0,
        "dropped_ticks": monitor.dropped,
        "attempted": len(ops),
        "failed": len(sample.failures), "failures": sample.failures,
        "failed_scales": len(sample.failed_laws),
        "cdf_err_max": sample.cdf_err_max,
        "outputs": sample.outputs.hexdigest(),
    }
    if tracer is not None:
        result["trace"] = {k: v for k, (v, _) in tracer.metrics().items()}
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
