"""Per-layer tracing by wrapping the package's public functions.

Each traced function is replaced, for the duration of ``Tracer.installed()``,
in its defining module and in every loaded ``oppenheimlab`` module that
imported it by name, so calls are timed wherever the package looks the name
up.  Family samplers are timed by wrapping the factories that ``experiments``
calls.  Spans nest: a span's self time is its duration minus the time of the
spans it called directly.  Totals are aggregated in memory, because the
per-k sampler alone makes over 1e5 calls per run.

A name that no longer exists is recorded in ``absent`` and reports zeros.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time

# span name -> (module, function) pairs it times
SPANS = {
    "cli": [("cli", "main")],
    "experiments.run": [("experiments", "exact_weak_law_run"),
                        ("experiments", "distributional_run")],
    "experiments.replication_rng": [("experiments", "replication_rng")],
    "experiments.centering_constants": [("experiments",
                                         "centering_constants")],
    "specfun.c2_discrete": [("specfun", "c2_discrete")],
    "weights.check_conditions": [("weights", "check_theorem_3_2_conditions"),
                                 ("weights", "check_theorem_4_1_conditions")],
    "weights.weights_row": [("weights", "weights_row")],
    "expansions.ratio_path": [("expansions", "ratio_path")],
    "limitlaw.cdf": [("limitlaw", "cdf")],
    "limitlaw.cdf_many": [("limitlaw", "cdf_many")],
    "limitlaw.ks_distance": [("limitlaw", "ks_distance")],
    "limitlaw.sample_many": [("limitlaw", "sample_many")],
}
# the first cdf/cdf_many call at a scale not seen before builds its table
COLD_SPAN = "limitlaw.cold_eval"
COLD_FUNCTIONS = {"cdf", "cdf_many"}
SAMPLER_SPAN = "distributions.sampler"
FAMILY_FACTORIES = ("family_from_config", "discrete_beta_family",
                    "uniform_family")
PACKAGE = "oppenheimlab"


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.child: dict = {}
        self.absent: list = []
        self._stack: list = []  # time spent in direct children, per open span
        self._scales: set = set()

    def _record(self, name: str, seconds: float, child: float = 0.0):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + seconds
        self.child[name] = self.child.get(name, 0.0) + child

    def wrap(self, name: str, fn, cold: bool = False):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            is_cold = False
            if cold:
                scale = getattr(args[0] if args else kwargs.get("law"),
                                "c", None)
                is_cold = scale not in self._scales
                self._scales.add(scale)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._stack.pop()
                self._record(name, elapsed, child)
                if is_cold:
                    self._record(COLD_SPAN, elapsed)
                if self._stack:
                    self._stack[-1] += elapsed
        return span

    def _timed_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            family = factory(*args, **kwargs)
            return dataclasses.replace(
                family, sampler=self.wrap(SAMPLER_SPAN, family.sampler))
        return make

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        patches = []  # (module, attribute, original)

        def patch(original, replacement, where):
            for module in where:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, value))
                        setattr(module, attr, replacement)

        try:
            for span, targets in SPANS.items():
                for module_name, func in targets:
                    original = self._lookup(module_name, func)
                    if original is None:
                        self.absent.append(f"{module_name}.{func}")
                        continue
                    patch(original, self.wrap(span, original,
                                              cold=func in COLD_FUNCTIONS),
                          modules)
            experiments = self._module("experiments")
            for factory in FAMILY_FACTORIES:
                original = getattr(experiments, factory, None)
                if original is None:
                    self.absent.append(f"experiments.{factory}")
                    continue
                patch(original, self._timed_factory(original), [experiments])
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    @staticmethod
    def _module(name: str):
        try:
            return importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            return None

    def _lookup(self, module_name: str, func: str):
        module = self._module(module_name)
        return getattr(module, func, None) if module is not None else None

    def metrics(self) -> dict:
        """Per-layer figures, in seconds and call counts."""
        def calls(name):
            return float(self.calls.get(name, 0))

        def seconds(name):
            return self.total.get(name, 0.0)

        def self_seconds(name):
            return seconds(name) - self.child.get(name, 0.0)

        out = {}
        for name in ("experiments.replication_rng", "specfun.c2_discrete",
                     "weights.weights_row", SAMPLER_SPAN,
                     "expansions.ratio_path", COLD_SPAN, "limitlaw.cdf"):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.s"] = (seconds(name), "s")
        for name in ("experiments.centering_constants",
                     "weights.check_conditions", "limitlaw.cdf_many",
                     "limitlaw.ks_distance", "limitlaw.sample_many"):
            out[f"{name}.s"] = (seconds(name), "s")
        out["experiments.run.self_s"] = (self_seconds("experiments.run"), "s")
        out["cli.self_s"] = (self_seconds("cli"), "s")
        return out
