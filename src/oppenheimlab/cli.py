"""Command-line entry point.

Subcommands: expand (digit codec), verify (deterministic identity suite),
limit-cdf (CDF tables of the stable limit laws), run (Monte Carlo experiment
configs), ks-test (samples vs a limit law).  Exit codes: 0 success, 1 check
failure, 2 usage/config error (a size too large to allocate among them).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .distributions import centering_b, centering_b_quad, char_components, \
    char_components_quad, mobius_clamped_family, mobius_remark2_family, \
    proposition_2_4_profile, uniform_family
from .errors import DomainError
from .expansions import KINDS, extract_digits
from .experiments import (
    ExperimentConfig,
    distributional_run,
    exact_weak_law_run,
    load_record,
    save_record,
)
from .limitlaw import StableLimitLaw, cdf_many, ks_distance, levy_cf_law, \
    reference_error, table_error
from .specfun import EULER_GAMMA, c2_discrete, c2_discrete_quad, \
    gauss_2f1_unit, lemma_a1

# libyaml's parser when it is installed: the same SafeConstructor, so the
# same documents; a 1,000-entry beta list parses in 8 ms instead of 55 ms
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# argparse takes "-1e3" for an option unless the parser's negative-number
# pattern, which has no exponent, matches it
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _emit(text: str, out):
    if not out:
        print(text)
        return
    try:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    except OSError as exc:
        raise DomainError(f"cannot write --out {out}: {exc.strerror}") from exc


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


def _mobius_families() -> list:
    return [make(c) for make in (mobius_clamped_family,
                                 mobius_remark2_family)
            for c in (0.5, 3.25, 1000.0)]


def _c2_discrete_mpmath() -> float:
    """Worst |c2_discrete - (1-beta)(psi(1) - psi(1-beta))| against
    mpmath's digamma at 30 digits, on a grid of [0, 0.999] and betas near
    both ends."""
    import mpmath  # only this check uses it

    betas = (*np.linspace(0.0, 0.999, 34), 1e-12, 1e-6, 1e-3, 0.9999,
             1.0 - 1e-6, 1.0 - 1e-9)
    with mpmath.workdps(30):
        return max(abs(c2_discrete(b) - float(
            (1 - mpmath.mpf(b)) * (mpmath.digamma(1)
                                   - mpmath.digamma(1 - mpmath.mpf(b)))))
            for b in betas)


def _cdf_reference_error() -> tuple:
    abs_err, rel_err = reference_error()
    return rel_err, f"abs_error={abs_err:.3e}"


# The identity suite, one (name, tolerance, check) entry per identity, which
# ``verify`` and the acceptance tests both run.  check() gives the achieved
# error, or (error, note), and looks its functions up when it runs.
IDENTITY_CHECKS = (
    ("lemma_a1", 1e-8, lambda: abs(lemma_a1()[2] - (1.0 - EULER_GAMMA))),
    ("gauss_2f1_beta0", 1e-10, lambda: max(
        abs(gauss_2f1_unit(0.0, z) * z + np.log(1.0 - complex(z)))
        for z in (0.5, -0.5, 0.5j, -0.9, 0.8, 0.9 + 0.1j))),
    ("c2_discrete_half", 1e-8, lambda: abs(c2_discrete(0.5)
                                           - math.log(2.0))),
    ("c2_discrete_quadrature", 1e-10, lambda: max(
        abs(c2_discrete(b) - c2_discrete_quad(b))
        for b in np.linspace(0.0, 0.95, 20))),
    ("c2_discrete_mpmath", 1e-15, _c2_discrete_mpmath),
    ("b_closed_form", 1e-10, lambda: max(
        abs(centering_b_quad(fam, 1) / float(centering_b(fam, 1)) - 1.0)
        for fam in _mobius_families())),
    ("char_closed_form", 1e-10, lambda: max(
        abs(complex(*char_components_quad(fam, 1, t))
            - complex(*char_components(fam, 1, t)))
        for fam in (uniform_family(), *_mobius_families())
        for t in np.geomspace(1e-2, 10.0, 7))),
    ("cdf_table_midpoints", 1e-8, lambda: table_error()),
    ("cdf_reference", 1e-9, _cdf_reference_error),
    ("proposition_2_4_uniform", 1e-3, lambda: abs(proposition_2_4_profile(
        uniform_family(), 1, (0.1, 0.05, 0.02, 0.01, 0.005)).fitted_limit
        - (1.0 - EULER_GAMMA))),
)


def check_identity(name: str, tol: float, check) -> tuple[bool, str]:
    """(passed, the PASS/FAIL line) of one entry of IDENTITY_CHECKS."""
    result = check()
    achieved, *notes = result if isinstance(result, tuple) else (result,)
    ok = achieved <= tol
    return ok, " ".join([f"{'PASS' if ok else 'FAIL'} {name} "
                         f"achieved={achieved:.3e} tol={tol:.1e}", *notes])


def cmd_verify(args) -> int:
    passed = True
    for entry in IDENTITY_CHECKS:
        ok, line = check_identity(*entry)
        print(line)
        passed = passed and ok
    return 0 if passed else 1


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
    """The continued-fraction law for ``--law levy``, which fixes its own c
    and delta, else S(c, delta) with c = 1 and delta = 0 by default."""
    if args.law == "levy":
        given = [f"--{name}" for name in ("c", "delta")
                 if getattr(args, name) is not None]
        if given:
            raise DomainError(f"--law levy fixes its scale and shift; drop "
                              f"{' and '.join(given)}")
        return levy_cf_law()
    return StableLimitLaw(c=1.0 if args.c is None else args.c,
                          delta=0.0 if args.delta is None else args.delta)


def cmd_cdf_table(args) -> int:
    law = _law(args)
    _emit(_cdf_csv(law, args.x_min, args.x_max, args.points), args.out)
    return 0


def bundled_config_path(name: str) -> Path:
    return Path(__file__).parent / "configs" / f"{name}.yaml"


def cmd_run(args) -> int:
    path = Path(args.config)
    if not path.exists() and path.name == args.config:  # a bare name
        path = bundled_config_path(args.config)
    if not path.exists():
        raise DomainError(f"config not found: {args.config}")
    try:
        doc = yaml.load(path.read_text(), Loader=_YAML_LOADER)
        if not isinstance(doc, dict) or "experiment" not in doc:
            raise DomainError("config must be a mapping with an "
                              "'experiment' key")
        experiment = doc["experiment"]
        if experiment not in ("weak_law", "distributional"):
            raise DomainError(f"unknown experiment {experiment!r}")
        settings = dict(doc)  # the other keys are the ExperimentConfig fields
        del settings["experiment"]
        if args.seed is not None:
            settings["master_seed"] = args.seed
        config = ExperimentConfig(**settings)
    except (DomainError, KeyError, OSError, TypeError, ValueError,
            yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    results_dir = Path(args.out or "results")
    if results_dir.exists() and not results_dir.is_dir():
        raise DomainError(f"--out {results_dir} is not a directory")
    record = None if args.force else load_record(config.digest(experiment),
                                                 results_dir)
    if record is not None:
        print(f"# cached record {record.config_digest[:12]}")
    else:
        record = (exact_weak_law_run(config) if experiment == "weak_law"
                  else distributional_run(config))
        try:
            save_record(record, results_dir)
        except OSError as exc:
            raise DomainError(f"cannot write --out {results_dir}: "
                              f"{exc.strerror}") from exc

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
    if not args.tolerance >= 0:  # also rejects nan
        raise DomainError("--tolerance must be a number >= 0")
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
    pe.add_argument("--kind", default="luroth", choices=KINDS)
    pe.add_argument("--count", type=int, default=10)
    pe.add_argument("--format", default="text", choices=("text", "json"))
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_expand)

    pv = sub.add_parser("verify", help="deterministic identity suite")
    pv.set_defaults(func=cmd_verify)

    law = argparse.ArgumentParser(add_help=False)  # the options _law reads
    law.add_argument("--c", type=float, default=None)
    law.add_argument("--delta", type=float, default=None)
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
    for parser in (pc, pk):
        parser._negative_number_matcher = _NEGATIVE_NUMBER
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
    except MemoryError as exc:  # numpy's names the array it could not get
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as check failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
