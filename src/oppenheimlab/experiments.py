"""Monte Carlo harness for the convergence experiments.

Reproducibility contract: every replication j of the grid point with index i
draws from its own stream seeded as SeedSequence(master_seed,
spawn_key=(i, j)); statistics are reduced in replication order, so a record
is bit-identical across reruns.  Every Monte Carlo sum is drawn and reduced
by ``_replication_sums``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .distributions import (
    DistributionFamily,
    centering_b,
    discrete_beta_family,
    family_from_config,
    from_config,
    member_values,
    reciprocal_char,
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

DEFAULT_SEED = 20260823
_WEIGHT_KINDS = {"cesaro": cesaro_scheme, "power_alpha": power_alpha_scheme}
WEAK_LAW_SCHEMES = ("direct", "luroth", "engel", "sylvester")
# uniforms per block of replications mapped in one call (256 kB of doubles)
_BLOCK = 2**15


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment deterministically.

    The fields are the keys of a run config, and their defaults are the
    config defaults.  What the tags name is built on construction, so a bad
    tag is a config error, and none of it is a field: ``weight_scheme`` from
    ``weights``, ``reciprocal_family`` from ``family`` (the law of U in
    Y = 1/U, and of the draws that drive a digit chain), and
    ``summand_family``, whose reciprocals a distributional run sums.
    """

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
        ng = tuple(_integer("each n_grid entry", n) for n in self.n_grid)
        if any(b <= a for a, b in zip(ng, ng[1:])):
            raise DomainError("n_grid must be increasing")
        if not ng or min(ng) < 2:  # the statistics divide by log n
            raise DomainError("n_grid must be nonempty, with entries >= 2")
        object.__setattr__(self, "n_grid", ng)
        tg = tuple(float(t) for t in self.t_grid)
        if not tg or not all(map(math.isfinite, tg)):
            raise DomainError("t_grid must be a nonempty list of finite "
                              "numbers")
        object.__setattr__(self, "t_grid", tg)
        if _integer("master_seed", self.master_seed) < 0:
            raise DomainError("master_seed must be >= 0")
        if _integer("replications", self.replications) < 1:
            raise DomainError("replications must be >= 1")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not self.epsilon > 0:
            raise DomainError("epsilon must be > 0")
        object.__setattr__(self, "weight_scheme", from_config(
            "weights", self.weights, _WEIGHT_KINDS, default_kind="cesaro"))
        object.__setattr__(self, "reciprocal_family",
                           family_from_config(self.family))
        object.__setattr__(self, "summand_family", _summand_family(self))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        d["t_grid"] = list(self.t_grid)
        return d

    def digest(self) -> str:
        """Cache key of the config under this package version, so records of
        different versions sit side by side."""
        payload = json.dumps({**self.to_dict(), "version": _pkg_version},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _integer(name: str, value) -> int:
    """value as an int, if it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


_DEFAULTS = {f.name: f.default if f.default_factory is MISSING
             else f.default_factory() for f in fields(ExperimentConfig)}


def _reject_unread(config: ExperimentConfig, names, reader: str):
    """DomainError if ``config`` sets any of ``names``, which ``reader``
    never reads, away from its default."""
    unread = [f"{name}={getattr(config, name)!r}" for name in names
              if getattr(config, name) != _DEFAULTS[name]]
    if unread:
        raise DomainError(f"unread by {reader}: {', '.join(unread)}")


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


def _replication_sums(config: ExperimentConfig, n_index: int,
                      a: np.ndarray, width: int, summands) -> np.ndarray:
    """sum_k a_k X_k for every replication of grid point ``n_index``.

    Row j of a block holds ``width`` uniforms from replication j's own
    stream; ``summands`` maps the whole block of uniforms in (0, 1] to rows
    of X in one call, and each row is reduced by its own dot product in
    replication order.
    """
    sums = np.empty(config.replications)
    block = max(1, _BLOCK // width)
    for start in range(0, config.replications, block):
        reps = range(start, min(start + block, config.replications))
        u = np.empty((len(reps), width))
        for rep, row in zip(reps, u):
            replication_rng(config.master_seed, n_index, rep).random(out=row)
        for rep, x in zip(reps, summands(1.0 - u)):
            sums[rep] = float(np.dot(a, x))
    return sums


# ---------------------------------------------------------------------------
# Exact weak laws
# ---------------------------------------------------------------------------

def _chain_ratios(kind: str, family: DistributionFamily, ks: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
    """Ratios of a block of chains: column 0 stays the first digit's
    uniform, and columns ks are mapped to draws of the family's members.

    A discrete draw is U_k = 1/Z_k, so D_{k+1} = phi(D_k) Z_k + 1 and
    R_k = Z_k for every kind: the exact integer digits, where the floor of
    phi/fl(1/Z_k) in ``ratio_path`` could give phi Z_k - 1.
    """
    if family.is_discrete():
        return family.reciprocals(ks, v[:, 1:])
    v[:, 1:] = family.sampler(ks, v[:, 1:])
    return ratio_path(kind, v)


def exact_weak_law_run(config: ExperimentConfig) -> RunRecord:
    """Exceedance frequencies of |T_n - ell| > epsilon where
    T_n = (1/(rho_n log n)) sum_k a_{k,n} X_k, with X the direct reciprocals
    Y_k = 1/U_k or the ratio variables of a digit chain, U_k ~ F_k either
    way."""
    t_start = time.perf_counter()
    if config.scheme not in WEAK_LAW_SCHEMES:
        raise DomainError(f"unknown weak-law scheme {config.scheme!r}")
    _reject_unread(config, ("mode", "beta", "t_grid"), "weak-law runs")
    family = config.reciprocal_family
    scheme = config.weight_scheme

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
        ks = np.arange(1, n + 1)
        if config.scheme == "direct":
            sums = _replication_sums(config, i, a, n,
                                     lambda v: family.reciprocals(ks, v))
        else:  # a chain of n ratios walks n + 1 draws
            sums = _replication_sums(config, i, a, n + 1,
                                     lambda v: _chain_ratios(config.scheme,
                                                             family, ks, v))
        stats = sums / (scheme.rho(n) * math.log(n))
        exceed = float(np.mean(np.abs(stats - ell) > config.epsilon))
        per_n.append({"n": int(n), "exceedance": exceed,
                      "t_median": float(np.median(stats)),
                      "t_mean": float(np.mean(stats)), "ell": float(ell)})
    return RunRecord(config.digest(), "weak_law", tuple(per_n),
                     time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Distributional limits
# ---------------------------------------------------------------------------

def _summand_family(config: ExperimentConfig) -> DistributionFamily:
    """The family whose reciprocals are the summands of the mode: the
    configured family for cor_4_2 and general_4_1, the discrete-beta family
    for cor_4_3, and its beta = 0 member, the classical digit law, for
    classical_1_2.  Only cor_4_3 reads ``beta``."""
    if config.mode == "cor_4_3":
        return discrete_beta_family(config.beta)
    if config.mode not in ("classical_1_2", "cor_4_2", "general_4_1"):
        raise DomainError(f"unknown mode {config.mode!r}")
    _reject_unread(config, ("beta",), "modes other than 'cor_4_3'")
    if config.mode == "classical_1_2":
        return discrete_beta_family()
    return config.reciprocal_family


def _c2_values(family: DistributionFamily, ks: np.ndarray) -> np.ndarray:
    """c_{2,k} = c_{F_k} - 1 = b_k - alpha_k gamma of members ks: the
    digamma closed form for the discrete kind, else the closed form b_k."""
    if family.is_discrete():
        return c2_discrete(member_values(family.beta, ks))
    return centering_b(family, ks) - EULER_GAMMA * member_values(
        family.alpha, ks)


def centering_constants(family: DistributionFamily, scheme: WeightScheme,
                        n: int) -> tuple[float, float]:
    """(subtractor, log_term) of the centered statistic V_n of a sum of the
    family's reciprocals.

    subtractor = kappa_n + sum_k a_{k,n} c_{2,k};
    log_term = sum_k a_{k,n} c_{1,k} log a_{k,n};
    with (c1, c2) = (alpha_k, c_{F_k} - 1) for a continuous family and
    ((1 - beta_k), c2_discrete(beta_k)) for the discrete-beta family.
    """
    a = weights_row(scheme, n)
    log_a = np.log(a)
    ks = np.arange(1, n + 1)
    c1 = member_values(family.alpha, ks)
    c2 = _c2_values(family, ks)
    return float(a.sum() + np.sum(a * c2)), float(np.sum(a * c1 * log_a))


def v_samples(config: ExperimentConfig, n: int,
              n_index: int) -> np.ndarray:
    """All replications of the centered statistic V_n at one grid point."""
    scheme = config.weight_scheme
    a = weights_row(scheme, n)
    family = config.summand_family
    subtractor, log_term = centering_constants(family, scheme, n)
    ks = np.arange(1, n + 1)
    sums = _replication_sums(config, n_index, a, n,
                             lambda v: family.reciprocals(ks, v))
    return sums - subtractor + log_term


def limit_law_for(config: ExperimentConfig) -> StableLimitLaw:
    """Limit law of the configured mode: scale ell = lim sum_k a_{k,n} c_{1,k},
    no drift."""
    scheme = config.weight_scheme
    ks = np.arange(1, max(config.n_grid) + 1)
    c1 = member_values(config.summand_family.alpha, ks)
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
    # the modes sum family reciprocals, not digit-chain ratios, and two of
    # them sum discrete digits whatever the family
    discrete = config.mode in ("classical_1_2", "cor_4_3")
    _reject_unread(config, ("scheme", "family") if discrete else ("scheme",),
                   f"distributional runs of mode {config.mode!r}")
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
                        master_seed: int = DEFAULT_SEED) -> dict:
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

    psi_prod = complex(np.prod(reciprocal_char(uniform_family(),
                                                np.arange(1, n + 1), t)))
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
