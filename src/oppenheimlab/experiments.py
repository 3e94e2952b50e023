"""Monte Carlo harness for the convergence experiments.

Reproducibility contract: every replication j of the grid point with index i
draws from its own stream seeded as SeedSequence(master_seed,
spawn_key=(i, j)); statistics are reduced in replication order, so a record
is bit-identical across reruns.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .distributions import (
    DistributionFamily,
    discrete_beta_family,
    family_constants,
    family_from_config,
    char_components,
    member_values,
    uniform_family,
)
from .errors import ConditionCheckError, DomainError
from .expansions import ratio_path
from .limitlaw import StableLimitLaw, char_fn, ks_distance
from .specfun import EULER_GAMMA, c2_discrete
from .weights import (
    WeightScheme,
    cesaro_scheme,
    check_theorem_3_2_conditions,
    check_theorem_4_1_conditions,
    power_alpha_scheme,
    weights_row,
)

logger = logging.getLogger(__name__)

WEAK_LAW_SCHEMES = ("direct", "luroth", "engel", "sylvester")
DISTRIBUTIONAL_MODES = ("classical_1_2", "general_4_1", "cor_4_2", "cor_4_3")
# uniforms per ratio_path call in a weak-law run (256 kB of doubles)
_CHAIN_BLOCK = 2**15


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment deterministically."""

    master_seed: int
    n_grid: tuple
    replications: int
    scheme: str = "direct"  # weak-law source: direct Y = 1/U, or a digit kind
    mode: str = "classical_1_2"  # distributional mode
    family: dict = field(default_factory=lambda: {"kind": "uniform"})
    weights: dict = field(default_factory=lambda: {"kind": "cesaro"})
    beta: object = "constant:0"  # discrete-family beta tag (cor_4_3)
    epsilon: float = 0.3
    t_grid: tuple = (0.5, 1.0, 2.0)

    def __post_init__(self):
        ng = tuple(int(n) for n in self.n_grid)
        if any(b <= a for a, b in zip(ng, ng[1:])):
            raise DomainError("n_grid must be increasing")
        if any(n < 2 for n in ng):  # the statistics divide by log n
            raise DomainError("n_grid entries must be >= 2")
        object.__setattr__(self, "n_grid", ng)
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not self.epsilon > 0:
            raise DomainError("epsilon must be > 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        d["t_grid"] = list(self.t_grid)
        return d

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Persisted outcome of one experiment.

    Equality compares the reproducible payload (digest, kind, per-n results,
    version) and ignores the wall time.
    """

    config_digest: str
    kind: str
    per_n: tuple  # one mapping per grid point
    wall_time: float
    version: str = _pkg_version

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunRecord):
            return NotImplemented
        return (self.config_digest == other.config_digest
                and self.kind == other.kind
                and self.per_n == other.per_n
                and self.version == other.version)

    def to_json(self) -> str:
        d = {"config_digest": self.config_digest, "kind": self.kind,
             "per_n": list(self.per_n), "wall_time": self.wall_time,
             "version": self.version}
        return json.dumps(d, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "RunRecord":
        d = json.loads(text)
        return RunRecord(d["config_digest"], d["kind"],
                         tuple(d["per_n"]), d["wall_time"],
                         d.get("version", "?"))


def save_record(record: RunRecord, directory) -> Path:
    """Write the record atomically: a reader sees the old file or the whole
    new one, never a partial write."""
    path = Path(directory) / f"{record.config_digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(record.to_json())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_record(digest: str, directory) -> Optional[RunRecord]:
    """The cached record for ``digest``, or None (a cache miss) when there is
    none, it cannot be parsed, or another package version wrote it."""
    path = Path(directory) / f"{digest}.json"
    if not path.exists():
        return None
    try:
        record = RunRecord.from_json(path.read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        logger.warning("cache miss for %s: unreadable record (%s)",
                       digest[:12], exc)
        return None
    if record.version != _pkg_version:
        logger.info("cache miss for %s: record version %s, package %s",
                    digest[:12], record.version, _pkg_version)
        return None
    return record


def replication_rng(master_seed: int, n_index: int,
                    rep: int) -> np.random.Generator:
    """Independent stream for replication ``rep`` of grid point ``n_index``."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(n_index, rep))
    return np.random.Generator(np.random.PCG64(ss))


def _weight_scheme(cfg: dict) -> WeightScheme:
    kind = cfg.get("kind", "cesaro")
    if kind == "cesaro":
        return cesaro_scheme(cfg.get("rho", "constant"))
    if kind == "power_alpha":
        return power_alpha_scheme(float(cfg["alpha"]),
                                  cfg.get("rho", "constant"))
    raise DomainError(f"unsupported weight kind {kind!r} in configs")


def _family(cfg) -> DistributionFamily:
    if isinstance(cfg, DistributionFamily):
        return cfg
    return family_from_config(cfg)


# ---------------------------------------------------------------------------
# Exact weak laws
# ---------------------------------------------------------------------------

def exact_weak_law_run(config: ExperimentConfig) -> RunRecord:
    """Exceedance frequencies of |T_n - ell| > epsilon where
    T_n = (1/(rho_n log n)) sum_k a_{k,n} X_k, with X the direct reciprocals
    Y_k = 1/U_k or the ratio variables of a digit chain."""
    t_start = time.perf_counter()
    if config.scheme not in WEAK_LAW_SCHEMES:
        raise DomainError(f"unknown weak-law scheme {config.scheme!r}")
    family = _family(config.family)
    scheme = _weight_scheme(config.weights)

    n_max = max(config.n_grid)
    alphas = member_values(family.alpha, np.arange(1, n_max + 1))
    report = check_theorem_3_2_conditions(scheme, alphas, n_max)
    if not report.passed:
        failing = [k for k, (_, v) in report.conditions.items() if v != "pass"]
        raise ConditionCheckError(
            "weight scheme fails weak-law conditions: " + ", ".join(failing))
    ell = report.ell

    per_n = []
    for i, n in enumerate(config.n_grid):
        a = weights_row(scheme, n)
        denom = scheme.rho(n) * math.log(n)
        stats = np.empty(config.replications)
        if config.scheme == "direct":
            ks = np.arange(1, n + 1)
            for rep in range(config.replications):
                rng = replication_rng(config.master_seed, i, rep)
                x = family.reciprocals(ks, rng, n)
                stats[rep] = float(np.dot(a, x)) / denom
        else:
            # one ratio_path call walks a block of chains, one per row of
            # n + 1 uniforms drawn from that replication's own stream
            block = max(1, _CHAIN_BLOCK // (n + 1))
            for start in range(0, config.replications, block):
                reps = range(start, min(start + block, config.replications))
                u = np.empty((len(reps), n + 1))
                for rep, row in zip(reps, u):
                    rng = replication_rng(config.master_seed, i, rep)
                    rng.random(out=row)
                for rep, x in zip(reps, ratio_path(config.scheme, 1.0 - u)):
                    stats[rep] = float(np.dot(a, x)) / denom
        exceed = float(np.mean(np.abs(stats - ell) > config.epsilon))
        per_n.append({"n": int(n), "exceedance": exceed,
                      "t_median": float(np.median(stats)),
                      "t_mean": float(np.mean(stats)), "ell": float(ell)})
    return RunRecord(config.digest(), "weak_law", tuple(per_n),
                     time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Distributional limits
# ---------------------------------------------------------------------------

def _summand_family(mode: str,
                    family_or_beta) -> Optional[DistributionFamily]:
    """The family whose reciprocals are the summands of the mode (the
    discrete-beta family for cor_4_3), or None for the classical digit law."""
    if mode == "classical_1_2":
        return None
    if mode in ("cor_4_2", "general_4_1"):
        return _family(family_or_beta)
    if mode == "cor_4_3":
        return discrete_beta_family(family_or_beta)
    raise DomainError(f"unknown mode {mode!r}")


def _mode_source(config: ExperimentConfig):
    return config.beta if config.mode == "cor_4_3" else config.family


def _c2_values(family: DistributionFamily, ks: np.ndarray) -> np.ndarray:
    """c_{2,k} of members ks: the digamma closed form for the discrete kind,
    else c_{F_k} - 1 with one quadrature per distinct member."""
    if family.is_discrete():
        return c2_discrete(member_values(family.beta, ks))
    keys = ks if family.param is None else member_values(family.param, ks)
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    c2 = np.array([family_constants(family, int(ks[i])).c - 1.0
                   for i in first])
    return c2[inverse]


def centering_constants(mode: str, family_or_beta, scheme: WeightScheme,
                        n: int) -> tuple[float, float]:
    """(subtractor, log_term) of the centered statistic V_n.

    subtractor = kappa_n + sum_k a_{k,n} c_{2,k};
    log_term = sum_k a_{k,n} c_{1,k} log a_{k,n};
    with (c1, c2) = (alpha_k, c_{F_k} - 1) for the reciprocal mode and
    ((1 - beta_k), c2_discrete(beta_k)) for the discrete-digit mode.
    """
    family = _summand_family(mode, family_or_beta)
    a = weights_row(scheme, n)
    log_a = np.log(a)
    if family is None:
        # digit law Z = ceil(1/U): c1 = 1, c2 = 0
        return float(a.sum()), float(np.sum(a * log_a))
    ks = np.arange(1, n + 1)
    c1 = member_values(family.alpha, ks)
    c2 = _c2_values(family, ks)
    return float(a.sum() + np.sum(a * c2)), float(np.sum(a * c1 * log_a))


def v_samples(config: ExperimentConfig, n: int,
              n_index: int) -> np.ndarray:
    """All replications of the centered statistic V_n at one grid point."""
    scheme = _weight_scheme(config.weights)
    a = weights_row(scheme, n)
    source = _mode_source(config)
    subtractor, log_term = centering_constants(config.mode, source, scheme, n)
    family = _summand_family(config.mode, source)
    ks = np.arange(1, n + 1)
    out = np.empty(config.replications)
    for rep in range(config.replications):
        rng = replication_rng(config.master_seed, n_index, rep)
        if family is None:  # classical digit law Z = floor(1/U) + 1
            z = np.floor(1.0 / (1.0 - rng.random(n))) + 1.0
        else:
            z = family.reciprocals(ks, rng, n)
        out[rep] = float(np.dot(a, z)) - subtractor + log_term
    return out


def limit_law_for(config: ExperimentConfig) -> StableLimitLaw:
    """Limit law of the configured mode: scale ell = lim sum_k a_{k,n} c_{1,k},
    no drift."""
    scheme = _weight_scheme(config.weights)
    family = _summand_family(config.mode, _mode_source(config))
    ks = np.arange(1, max(config.n_grid) + 1)
    c1 = np.ones(ks.size) if family is None else \
        member_values(family.alpha, ks)
    report = check_theorem_4_1_conditions(scheme, c1, ks.size)
    if not report.passed:
        failing = [k for k, (_, v) in report.conditions.items() if v != "pass"]
        raise ConditionCheckError(
            "weight scheme fails distributional conditions: "
            + ", ".join(failing))
    return StableLimitLaw(c=report.ell, delta=0.0)


def distributional_run(config: ExperimentConfig) -> RunRecord:
    """KS distance and ECF error of V_n against the stable limit law."""
    t_start = time.perf_counter()
    if config.mode not in DISTRIBUTIONAL_MODES:
        raise DomainError(f"unknown mode {config.mode!r}")
    if config.replications < 100:
        raise DomainError("distributional runs need at least 100 replications")
    law = limit_law_for(config)

    per_n = []
    for i, n in enumerate(config.n_grid):
        v = v_samples(config, n, i)
        ks = ks_distance(v, law) if law.c > 0 else float(
            np.mean(np.abs(v) > config.epsilon))
        ecf = np.array([np.mean(np.exp(1j * t * v)) for t in config.t_grid])
        xi = np.array([char_fn(law, t) for t in config.t_grid])
        per_n.append({
            "n": int(n), "ks": float(ks),
            "ecf_error": float(np.max(np.abs(ecf - xi))),
            "ell": float(law.c),
        })
    return RunRecord(config.digest(), "distributional", tuple(per_n),
                     time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Characteristic-function distance and the gamma constant
# ---------------------------------------------------------------------------

def char_distance_check(n: int, t_vector: Sequence[float], m: int,
                        scheme_kind: str = "engel",
                        master_seed: int = 20260823) -> dict:
    """Estimates |phi_{R_1..R_n}(t) - prod_k psi_k(t_k)| by Monte Carlo and
    compares with the coupling bound sum_k |t_k| plus 3 standard errors.

    psi_k is the model characteristic function 1 + A(t) + iB(t) of the
    reciprocal 1/U_k under the driving family (uniform for the built-in digit
    chains)."""
    if n > 4:
        raise DomainError("joint ECF check is limited to n <= 4")
    t = np.asarray(list(t_vector), dtype=float)
    if t.size != n:
        raise DomainError("t_vector must have length n")
    if m < 10**5:
        raise DomainError("need at least 1e5 replications")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed)))
    r = ratio_path(scheme_kind, 1.0 - rng.random((m, n + 1)))
    ecf = complex(np.mean(np.exp(1j * (r @ t))))

    family = uniform_family()
    psi_prod = 1.0 + 0.0j
    for k in range(1, n + 1):
        tk = float(t[k - 1])
        if tk == 0.0:
            continue
        a_val, b_val = char_components(family, k, tk)
        psi_prod *= complex(1.0 + a_val, b_val)

    estimate = abs(ecf - psi_prod)
    se = 1.0 / math.sqrt(m)
    bound = float(np.sum(np.abs(t)))
    return {"estimate": float(estimate), "bound": bound, "se": se,
            "passed": bool(estimate <= bound + 3.0 * se)}


def gamma_from_harmonic(n: int) -> float:
    """log n - H_n, which converges (upward) to -gamma."""
    if n < 1:
        raise DomainError("n must be >= 1")
    h = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))
    return math.log(n) - h
