"""Seeded operation plans for the benchmark workloads, and the gates that
check each operation's output.

A plan is a list of JSON-able operations.  ``plan(workload, seed)`` depends on
nothing but its arguments (the standard library's Mersenne Twister draws every
generated input), so the same seed always gives the same plan and the program
under test sees only the generated inputs.

Every gate is seed-independent: an operation that is correct passes it for
any seed, up to a false-alarm probability below 1e-6.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("stable-mc", "weak-law", "cdf-scales", "mixed-beta")

EULER_GAMMA = 0.5772156649015329

# --- stable-mc: the two headline bundled configs, with their closed-form ell
BUNDLED_ELL = {"luroth-classical": 1.0, "cor43-beta-half": 0.5}

# --- weak-law: every scheme, long chains, few replications
WEAK_LAW_SCHEMES = ("engel", "sylvester", "luroth", "direct")
WEAK_LAW_N_GRID = (100, 1000, 10000, 100000)
WEAK_LAW_REPLICATIONS = 500

# --- mixed-beta: cor_4_3 with a list of distinct betas, then 0.5 forever.
# One n, no larger than the list, so every c2_discrete call of the run
# (one per k <= n) gets a beta it has not seen before
MIXED_BETA_COUNT = 1000
MIXED_BETA_RANGE = (0.1, 0.6)
MIXED_BETA_TAIL = 0.5
MIXED_BETA_N_GRID = (1000,)
MIXED_BETA_REPLICATIONS = 100

# --- cdf-scales: log-spaced scales, each with a body and a right-tail grid
# in the law's natural coordinate u = (x + delta)/c - log c
CDF_SCALES = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)
CDF_GRIDS = {"body": (-4.0, 12.0, 97), "tail": (40.0, 1000.0, 9)}
# the CMS-vs-CDF cross-check runs at the ends and the middle of the range
KS_SCALES = (1e-3, 1.0, 1e4)
CMS_DRAWS = 2_000_000

# --- gates
CDF_TOLERANCE = 2e-5  # |F - reference|, the ROADMAP accuracy target
ELL_TOLERANCE = 1e-9
# KS of V_n against its limit: a finite-n allowance (the largest distance
# measured with 2e4 replications is about 0.04, at n = 100) plus the DKW
# noise band lambda/sqrt(R), exceeded with probability
# 2 exp(-2 lambda^2) < 1e-9
KS_FINITE_N = 0.08
KS_LAMBDA = 3.3
# KS of CMS draws against the CDF table.  At 2e6 draws the Kolmogorov tail
# puts a correct table above 2e-3 with probability 2 exp(-16) = 2e-7; at 1e6
# draws it would be 7e-4 per check, too often to gate every run on.
CMS_KS_MAX = 2e-3

REFERENCE_PATH = Path(__file__).with_name("cdf_reference.json")


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def law_key(c: float) -> str:
    return f"c={c:g}"


def cdf_laws() -> list:
    """(key, c, delta, levy) for every law the cdf-scales workload evaluates;
    the last is the continued-fraction law selected by ``--law levy``."""
    laws = [(law_key(c), c, 0.0, False) for c in CDF_SCALES]
    laws.append(("levy", 1.0 / math.log(2.0), EULER_GAMMA / math.log(2.0),
                 True))
    return laws


def cdf_grid(c: float, delta: float, grid: str) -> tuple:
    """(x_min, x_max, points) of one grid, as passed to ``limit-cdf``."""
    u_lo, u_hi, points = CDF_GRIDS[grid]
    shift = math.log(c)
    return c * (u_lo + shift) - delta, c * (u_hi + shift) - delta, points


def mixed_betas(seed: int) -> list:
    """MIXED_BETA_COUNT distinct betas in MIXED_BETA_RANGE, then the tail 0.5.

    The ten largest betas come first and the fifteen smallest next, so the
    profile of sum_k a_{k,n} (1 - beta_k) moves most on the condition
    checker's first grid step (n = 10 to 25) and settles afterwards.  A flat
    head would leave that step at zero, which the checker cannot tell from a
    profile that never converges.
    """
    rng = random.Random(f"mixed-beta/{seed}")
    lo, hi = MIXED_BETA_RANGE
    drawn: set = set()
    while len(drawn) < MIXED_BETA_COUNT:
        drawn.add(rng.uniform(lo, hi))
    ordered = sorted(drawn)
    head = ordered[::-1][:10]
    after = ordered[:15]
    rest = ordered[15:-10]
    rng.shuffle(rest)
    return head + after + rest + [MIXED_BETA_TAIL]


def mixed_beta_ell(betas: list, n: int) -> float:
    """Closed form of ell at n: the Cesaro mean of 1 - beta_k over k <= n,
    with the list extended by its last value."""
    total = sum(1.0 - betas[min(k, len(betas)) - 1] for k in range(1, n + 1))
    return total / n


def plan(workload: str, seed: int) -> list:
    """The operations of one workload run, generated from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "stable-mc":
        return [{"kind": "run", "label": f"run {name}", "config": name,
                 "seed": _seed(rng), "ell": ell}
                for name, ell in BUNDLED_ELL.items()]
    if workload == "weak-law":
        return [{"kind": "run", "label": f"run weak-law {scheme}",
                 "config": {"experiment": "weak_law", "scheme": scheme,
                            "n_grid": list(WEAK_LAW_N_GRID),
                            "replications": WEAK_LAW_REPLICATIONS,
                            "weights": {"kind": "cesaro"}, "epsilon": 0.3},
                 "seed": _seed(rng), "ell": 1.0}
                for scheme in WEAK_LAW_SCHEMES]
    if workload == "mixed-beta":
        betas = mixed_betas(seed)
        return [{"kind": "run", "label": "run cor_4_3 mixed beta",
                 "config": {"experiment": "distributional", "mode": "cor_4_3",
                            "beta": betas,
                            "n_grid": list(MIXED_BETA_N_GRID),
                            "replications": MIXED_BETA_REPLICATIONS,
                            "weights": {"kind": "cesaro"}},
                 "seed": _seed(rng),
                 "ell": mixed_beta_ell(betas, max(MIXED_BETA_N_GRID))}]
    if workload == "cdf-scales":
        ops = []
        for key, c, delta, levy in cdf_laws():
            law_args = ["--law", "levy"] if levy else \
                ["--c", repr(c), "--delta", repr(delta)]
            for grid in CDF_GRIDS:
                x_min, x_max, points = cdf_grid(c, delta, grid)
                ops.append({"kind": "limit-cdf", "label":
                            f"limit-cdf {key} {grid}", "law": key,
                            "grid": grid, "argv": [
                                "limit-cdf", *law_args, "--x-min", repr(x_min),
                                "--x-max", repr(x_max), "--points",
                                str(points)]})
            if c in KS_SCALES:
                ops.append({"kind": "ks", "label": f"ks {key}", "law": key,
                            "c": c, "delta": delta, "draws": CMS_DRAWS,
                            "seed": _seed(rng)})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Gates.  Each returns None when the output passes, else the reason it fails.
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def check_record(op: dict, config: dict, record: dict):
    """Gate for a ``run`` operation's JSON record; ``config`` is the YAML
    mapping that was run (bundled or generated)."""
    per_n = record.get("per_n") or []
    if [row.get("n") for row in per_n] != list(config["n_grid"]):
        return "per_n does not cover the configured n_grid"
    for row in per_n:
        bad = sorted(k for k, v in row.items() if not _finite(v))
        if bad:
            return f"non-finite {', '.join(bad)} at n = {row.get('n')}"
        if abs(row["ell"] - op["ell"]) > ELL_TOLERANCE:
            return f"ell = {row['ell']!r}, closed form {op['ell']!r}"
        if "ks" in row:
            bound = KS_FINITE_N + KS_LAMBDA / math.sqrt(config["replications"])
            if row["ks"] > bound:
                return f"ks = {row['ks']:.4g} > {bound:.4g} at n = {row['n']}"
    return None


def check_cdf_table(op: dict, stdout: str, reference: dict):
    """Gate for a ``limit-cdf`` table.  Returns (reason, max |F - ref|)."""
    ref = reference["laws"][op["law"]][op["grid"]]
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "x,F" or len(lines) - 1 != len(ref["x"]):
        return "table is not the requested x,F grid", math.inf
    worst = 0.0
    for line, x_ref, f_ref in zip(lines[1:], ref["x"], ref["F"]):
        x, f = (float(v) for v in line.split(","))
        if not math.isfinite(f):
            return f"F({x:g}) is not finite", math.inf
        if abs(x - x_ref) > 1e-9 * max(1.0, abs(x_ref)):
            return f"row x = {x!r} is not the grid point {x_ref!r}", math.inf
        worst = max(worst, abs(f - f_ref))
    if worst > CDF_TOLERANCE:
        return f"max |F - reference| = {worst:.3g} > {CDF_TOLERANCE:g}", worst
    return None, worst


def check_cms_ks(ks: float):
    if not _finite(ks) or ks > CMS_KS_MAX:
        return f"CMS-vs-CDF ks = {ks:.4g} > {CMS_KS_MAX:g}"
    return None
