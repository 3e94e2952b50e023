"""Command-line entry point.

Subcommands: expand (digit codec), verify (deterministic identity suite),
limit-cdf (CDF tables of the stable limit laws), run (Monte Carlo experiment
configs), ks-test (samples vs a limit law).  Exit codes: 0 success, 1 check
failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .distributions import proposition_2_4_profile, uniform_family
from .errors import DomainError
from .expansions import extract_digits
from .experiments import (
    ExperimentConfig,
    distributional_run,
    exact_weak_law_run,
    gamma_from_harmonic,
    load_record,
    save_record,
)
from .limitlaw import StableLimitLaw, cdf, ks_distance, levy_cf_law, \
    table_error
from .specfun import EULER_GAMMA, c2_discrete, c2_discrete_quad, cin, \
    cosine_integral, gauss_2f1_unit, lemma_a1

DEFAULT_SEED = 20260823


def _parse_number(text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse number {text!r}") from exc


def _emit(text: str, out):
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def cmd_expand(args) -> int:
    seq = extract_digits(args.kind, _parse_number(args.number), args.count)
    if args.format == "json":
        payload = {"kind": seq.kind, "digits": list(seq.digits),
                   "terminated": seq.terminated}
        _emit(json.dumps(payload), args.out)
    else:
        _emit(" ".join(str(d) for d in seq.digits)
              + (" (terminated)" if seq.terminated else ""), args.out)
    return 0


def _verify_checks(tolerance):
    """Yields (name, achieved_error, tol) for the deterministic suite."""
    a_val, b_val, total = lemma_a1()
    yield ("lemma_a1", abs(total - (1.0 - EULER_GAMMA)),
           tolerance or 1e-8)

    grid = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst = max(abs(cin(x) + cosine_integral(x) - math.log(x) - EULER_GAMMA)
                for x in grid)
    yield ("cin_ci_identity", worst, tolerance or 1e-10)

    worst = 0.0
    for z in (0.5, -0.5, 0.5j, -0.9):
        val = gauss_2f1_unit(0.0, z)
        worst = max(worst, abs(val * z + np.log(1.0 - complex(z))))
    yield ("gauss_2f1_beta0", worst, tolerance or 1e-10)

    yield ("c2_discrete_half", abs(c2_discrete(0.5) - math.log(2.0)),
           tolerance or 1e-8)

    betas = np.linspace(0.0, 0.95, 20)
    worst = max(abs(c2_discrete(b) - c2_discrete_quad(b)) for b in betas)
    yield ("c2_discrete_quadrature", worst, tolerance or 1e-10)

    yield ("cdf_table_midpoints", table_error(), tolerance or 2e-5)

    yield ("gamma_recovery", abs(gamma_from_harmonic(10**6) + EULER_GAMMA),
           tolerance or 1e-6)

    prof = proposition_2_4_profile(uniform_family(), 1,
                                   (0.1, 0.05, 0.02, 0.01, 0.005))
    yield ("proposition_2_4_uniform",
           abs(prof.fitted_limit - (1.0 - EULER_GAMMA)), tolerance or 1e-3)


def cmd_verify(args) -> int:
    failures = 0
    for name, achieved, tol in _verify_checks(args.tolerance):
        ok = achieved <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} "
              f"achieved={achieved:.3e} tol={tol:.1e}")
    return 0 if failures == 0 else 1


def _cdf_csv(law: StableLimitLaw, x_min: float, x_max: float,
             points: int) -> str:
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise DomainError("x_min and x_max must be finite")
    if points < 1:
        raise DomainError("points must be >= 1")
    xs = np.linspace(x_min, x_max, points)
    lines = ["x,F"] + [f"{x:.10g},{cdf(law, float(x)):.10g}" for x in xs]
    return "\n".join(lines)


def _law(kind, c, delta) -> StableLimitLaw:
    """The continued-fraction law for kind "levy", else S(c, delta)."""
    if kind == "levy":
        return levy_cf_law()
    if c is None:
        raise DomainError("a custom law needs its scale c")
    return StableLimitLaw(c=float(c), delta=float(delta))


def cmd_limit_cdf(args) -> int:
    law = _law(args.law, args.c, args.delta)
    _emit(_cdf_csv(law, args.x_min, args.x_max, args.points), args.out)
    return 0


def _config_from_mapping(doc: dict, seed_override=None) -> ExperimentConfig:
    return ExperimentConfig(
        master_seed=int(seed_override if seed_override is not None
                        else doc.get("master_seed", DEFAULT_SEED)),
        n_grid=tuple(doc["n_grid"]),
        replications=int(doc["replications"]),
        scheme=doc.get("scheme", "direct"),
        mode=doc.get("mode", "classical_1_2"),
        family=doc.get("family", {"kind": "uniform"}),
        weights=doc.get("weights", {"kind": "cesaro"}),
        beta=doc.get("beta", "constant:0"),
        epsilon=float(doc.get("epsilon", 0.3)),
        t_grid=tuple(doc.get("t_grid", (0.5, 1.0, 2.0))),
    )


def bundled_config_path(name: str) -> Path:
    return Path(__file__).parent / "configs" / f"{name}.yaml"


def cmd_run(args) -> int:
    path = Path(args.config)
    if not path.exists():
        candidate = bundled_config_path(path.stem)
        if candidate.exists():
            path = candidate
        else:
            print(f"config not found: {args.config}", file=sys.stderr)
            return 2
    try:
        doc = yaml.safe_load(path.read_text())
        if not isinstance(doc, dict) or "experiment" not in doc:
            raise DomainError("config must be a mapping with an "
                              "'experiment' key")
        experiment = doc["experiment"]
        if experiment == "limit_cdf":
            law = _law(doc.get("law"), doc.get("c"), doc.get("delta", 0.0))
            print(_cdf_csv(law, float(doc.get("x_min", -5.0)),
                           float(doc.get("x_max", 20.0)),
                           int(doc.get("points", 200))))
            return 0
        if experiment not in ("weak_law", "distributional"):
            raise DomainError(f"unknown experiment {experiment!r}")
        config = _config_from_mapping(doc, args.seed)
    except (DomainError, KeyError, TypeError, ValueError,
            yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    results_dir = args.out or "results"
    cached = load_record(config.digest(), results_dir)
    if cached is not None and not args.force:
        record = cached
        print(f"# cached record {record.config_digest[:12]}")
    else:
        record = (exact_weak_law_run(config) if experiment == "weak_law"
                  else distributional_run(config))
        save_record(record, results_dir)

    if args.format == "json":
        print(record.to_json())
    else:
        writer = csv.writer(sys.stdout)
        keys = sorted(record.per_n[0])
        writer.writerow(keys)
        for row in record.per_n:
            writer.writerow([row[k] for k in keys])
    return 0


def cmd_ks_test(args) -> int:
    samples = np.loadtxt(args.samples, ndmin=1)
    law = _law(args.law, args.c, args.delta)
    d = ks_distance(samples, law)
    print(f"ks={d:.6g} n={samples.size}")
    return 0 if d <= args.tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oppenheimlab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="digit expansion of a rational")
    pe.add_argument("number", help="decimal string or p/q")
    pe.add_argument("--kind", default="luroth",
                    choices=("luroth", "engel", "sylvester",
                             "continued_fraction"))
    pe.add_argument("--count", type=int, default=10)
    pe.add_argument("--format", default="text", choices=("text", "json"))
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_expand)

    pv = sub.add_parser("verify", help="deterministic identity suite")
    pv.add_argument("--tolerance", type=float, default=None)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("limit-cdf", help="emit (x, F(x)) CSV of a limit law")
    pc.add_argument("--c", type=float, default=1.0)
    pc.add_argument("--delta", type=float, default=0.0)
    pc.add_argument("--law", choices=("custom", "levy"), default="custom")
    pc.add_argument("--x-min", type=float, default=-5.0)
    pc.add_argument("--x-max", type=float, default=20.0)
    pc.add_argument("--points", type=int, default=200)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_limit_cdf)

    pr = sub.add_parser("run", help="run an experiment config")
    pr.add_argument("config", help="YAML path or bundled config name")
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--format", default="csv", choices=("csv", "json"))
    pr.add_argument("--out", help="results directory (default: results)")
    pr.add_argument("--force", action="store_true")
    pr.set_defaults(func=cmd_run)

    pk = sub.add_parser("ks-test", help="KS distance of samples vs a law")
    pk.add_argument("samples", help="text file, one sample per line")
    pk.add_argument("--c", type=float, default=1.0)
    pk.add_argument("--delta", type=float, default=0.0)
    pk.add_argument("--law", choices=("custom", "levy"), default="custom")
    pk.add_argument("--tolerance", type=float, default=1.0)
    pk.set_defaults(func=cmd_ks_test)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as check failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
