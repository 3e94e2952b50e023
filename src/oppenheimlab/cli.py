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
from .distributions import centering_b, centering_b_quad, char_components, \
    char_components_quad, mobius_clamped_family, mobius_remark2_family, \
    proposition_2_4_profile, uniform_family
from .errors import DomainError
from .expansions import extract_digits
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    distributional_run,
    exact_weak_law_run,
    gamma_from_harmonic,
    load_record,
    save_record,
)
from .limitlaw import StableLimitLaw, cdf_many, ks_distance, levy_cf_law, \
    reference_error, table_error
from .specfun import EULER_GAMMA, c2_discrete, c2_discrete_quad, cin, \
    cosine_integral, gauss_2f1_unit, lemma_a1


def _emit(text: str, out):
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def cmd_expand(args) -> int:
    seq = extract_digits(args.kind, args.number, args.count)
    if args.format == "json":
        payload = {"kind": seq.kind, "digits": list(seq.digits),
                   "terminated": seq.terminated}
        _emit(json.dumps(payload), args.out)
    else:
        _emit(" ".join(str(d) for d in seq.digits)
              + (" (terminated)" if seq.terminated else ""), args.out)
    return 0


def _verify_checks():
    """Yields (name, achieved_error, tol, *notes) of the identity suite."""
    a_val, b_val, total = lemma_a1()
    yield "lemma_a1", abs(total - (1.0 - EULER_GAMMA)), 1e-8

    grid = (0.01, 0.03, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst = max(abs(cin(x) + cosine_integral(x) - math.log(x) - EULER_GAMMA)
                for x in grid)
    yield "cin_ci_identity", worst, 1e-10

    worst = 0.0
    for z in (0.5, -0.5, 0.5j, -0.9):
        val = gauss_2f1_unit(0.0, z)
        worst = max(worst, abs(val * z + np.log(1.0 - complex(z))))
    yield "gauss_2f1_beta0", worst, 1e-10

    yield "c2_discrete_half", abs(c2_discrete(0.5) - math.log(2.0)), 1e-8

    betas = np.linspace(0.0, 0.95, 20)
    worst = max(abs(c2_discrete(b) - c2_discrete_quad(b)) for b in betas)
    yield "c2_discrete_quadrature", worst, 1e-10

    mobius = [make(c) for make in (mobius_clamped_family,
                                   mobius_remark2_family)
              for c in (0.5, 3.25, 1000.0)]
    worst = max(abs(centering_b_quad(fam, 1) / float(centering_b(fam, 1))
                    - 1.0) for fam in mobius)
    yield "b_closed_form", worst, 1e-10

    worst = max(abs(complex(*char_components_quad(fam, 1, t))
                    - complex(*char_components(fam, 1, t)))
                for fam in (uniform_family(), *mobius)
                for t in np.geomspace(1e-2, 10.0, 7))
    yield "char_closed_form", worst, 1e-10

    yield "cdf_table_midpoints", table_error(), 1e-8

    abs_err, rel_err = reference_error()
    yield "cdf_reference", rel_err, 1e-9, f"abs_error={abs_err:.3e}"

    yield ("gamma_recovery", abs(gamma_from_harmonic(10**6) + EULER_GAMMA),
           1e-6)

    prof = proposition_2_4_profile(uniform_family(), 1,
                                   (0.1, 0.05, 0.02, 0.01, 0.005))
    yield ("proposition_2_4_uniform",
           abs(prof.fitted_limit - (1.0 - EULER_GAMMA)), 1e-3)


def cmd_verify(args) -> int:
    failures = 0
    for name, achieved, tol, *notes in _verify_checks():
        ok = achieved <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} "
              f"achieved={achieved:.3e} tol={tol:.1e}", *notes)
    return 0 if failures == 0 else 1


def _cdf_csv(law: StableLimitLaw, x_min: float, x_max: float,
             points: int) -> str:
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise DomainError("x_min and x_max must be finite")
    if points < 1:
        raise DomainError("points must be >= 1")
    xs = np.linspace(x_min, x_max, points)
    lines = ["x,F"] + [f"{x:.10g},{f:.10g}"
                       for x, f in zip(xs, cdf_many(law, xs))]
    return "\n".join(lines)


def _law(args) -> StableLimitLaw:
    """The continued-fraction law for ``--law levy``, else S(c, delta)."""
    if args.law == "levy":
        return levy_cf_law()
    return StableLimitLaw(c=args.c, delta=args.delta)


def cmd_cdf_table(args) -> int:
    law = _law(args)
    _emit(_cdf_csv(law, args.x_min, args.x_max, args.points), args.out)
    return 0


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
        if experiment not in ("weak_law", "distributional"):
            raise DomainError(f"unknown experiment {experiment!r}")
        # the other keys are the ExperimentConfig fields
        settings = {"master_seed": DEFAULT_SEED, **doc}
        del settings["experiment"]
        if args.seed is not None:
            settings["master_seed"] = args.seed
        config = ExperimentConfig(**settings)
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
    try:
        lines = Path(args.samples).read_text().splitlines()
        # numpy warns on a file without data; ks_distance rejects it instead
        samples = np.loadtxt(lines, ndmin=1) if any(
            ln.split("#")[0].strip() for ln in lines) else np.empty(0)
    except (OSError, ValueError) as exc:
        raise DomainError(f"unreadable samples file: {exc}") from exc
    if samples.ndim != 1:
        raise DomainError("unreadable samples file: expected one sample per "
                          "line")
    law = _law(args)
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
    pv.set_defaults(func=cmd_verify)

    law = argparse.ArgumentParser(add_help=False)  # the options _law reads
    law.add_argument("--c", type=float, default=1.0)
    law.add_argument("--delta", type=float, default=0.0)
    law.add_argument("--law", choices=("custom", "levy"), default="custom")

    pc = sub.add_parser("limit-cdf", parents=[law],
                        help="emit (x, F(x)) CSV of a limit law")
    pc.add_argument("--x-min", type=float, default=-5.0)
    pc.add_argument("--x-max", type=float, default=20.0)
    pc.add_argument("--points", type=int, default=200)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_cdf_table)

    pr = sub.add_parser("run", help="run an experiment config")
    pr.add_argument("config", help="YAML path or bundled config name")
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--format", default="csv", choices=("csv", "json"))
    pr.add_argument("--out", help="results directory (default: results)")
    pr.add_argument("--force", action="store_true")
    pr.set_defaults(func=cmd_run)

    pk = sub.add_parser("ks-test", parents=[law],
                        help="KS distance of samples vs a law")
    pk.add_argument("samples", help="text file, one sample per line")
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
