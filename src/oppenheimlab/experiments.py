"""Monte Carlo harness for the convergence experiments.

Reproducibility contract: every replication j of the grid point with index i
draws from its own stream seeded as SeedSequence(master_seed,
spawn_key=(i, j)); statistics are reduced in replication order, so a record
is bit-identical across reruns.  A lone stream (``replication_rng``) is PCG64
on numpy's own SeedSequence.  Every Monte Carlo sum draws (``_draw``) from
the streams of a grid point, hashed in one numpy pass (``_stream_words``).
"""

from __future__ import annotations

import hashlib
import itertools
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
from .expansions import OPPENHEIM_KINDS, ratio_path
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
WEAK_LAW_SCHEMES = ("direct", *OPPENHEIM_KINDS)
# uniforms per block of replications mapped in one call (256 kB of doubles)
_BLOCK = 2**15
# ratios of an Engel or Sylvester chain walked for a block of replications at
# once; after them almost every chain has left the exact window of
# ``ratio_path``, so the rest of a row is elementwise
_HEAD = 128


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment deterministically.

    The fields are the keys of a run config, passed by keyword only, and
    their defaults are the config defaults.  What the tags name is built on
    construction, so a bad tag is a config error, and none of it is a
    field: ``weight_scheme`` from ``weights``, ``reciprocal_family`` from
    ``family`` (the law of U in Y = 1/U, and of the draws that drive a
    digit chain), and ``summand_family``, whose reciprocals a
    distributional run sums.
    """

    n_grid: tuple
    replications: int
    master_seed: int = DEFAULT_SEED
    scheme: str = "direct"  # weak-law source: direct Y = 1/U, or a digit kind
    mode: str = "classical_1_2"  # distributional mode
    family: dict = field(default_factory=lambda: {"kind": "uniform"})
    weights: dict = field(default_factory=lambda: {"kind": "cesaro"})
    beta: object = "constant:0"  # discrete-family beta tag (cor_4_3)
    epsilon: float = 0.3
    t_grid: tuple = (0.5, 1.0, 2.0)

    def __post_init__(self):
        for name in ("family", "weights", "beta"):  # as digest() writes them
            object.__setattr__(self, name, _plain(getattr(self, name)))
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
        for name, least in (("master_seed", 0), ("replications", 1)):
            value = _integer(name, getattr(self, name))
            if value < least:
                raise DomainError(f"{name} must be >= {least}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not self.epsilon > 0:
            raise DomainError("epsilon must be > 0")
        object.__setattr__(self, "weight_scheme", from_config(
            "weights", self.weights, _WEIGHT_KINDS, default_kind="cesaro"))
        object.__setattr__(self, "reciprocal_family",
                           family_from_config(self.family))
        object.__setattr__(self, "summand_family", _summand_family(self))

    def digest(self, experiment: str) -> str:
        """Cache key of the config run as ``experiment`` ("weak_law" or
        "distributional") under this package version, so the records of
        either experiment and of different versions sit side by side."""
        payload = json.dumps({**asdict(self), "experiment": experiment,
                              "version": _pkg_version},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _integer(name: str, value) -> int:
    """value as an int, if it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _plain(tag):
    """tag with every numpy array a list and every numpy number a Python
    one, inside mappings and lists too, so that it serialises as JSON."""
    if isinstance(tag, np.ndarray):
        return tag.tolist()
    if isinstance(tag, np.generic):
        return tag.item()
    if isinstance(tag, dict):
        return {key: _plain(value) for key, value in tag.items()}
    if isinstance(tag, (list, tuple)):
        return type(tag)(map(_plain, tag))
    return tag


_DEFAULTS = {f.name: f.default if f.default_factory is MISSING
             else f.default_factory() for f in fields(ExperimentConfig)}


def _reject_unread(config: ExperimentConfig, names, reader: str):
    """DomainError if ``config`` sets any of ``names``, which ``reader``
    never reads, away from its default."""
    unread = [f"{name}={getattr(config, name)!r}" for name in names
              if getattr(config, name) != _DEFAULTS[name]]
    if unread:
        raise DomainError(f"unread by {reader}: {', '.join(unread)}")


@dataclass(frozen=True)
class RunRecord:
    """Persisted outcome of one experiment.

    Equality compares the reproducible payload (digest, kind, per-n results,
    version) and ignores the wall time.
    """

    config_digest: str
    kind: str
    per_n: tuple  # one mapping per grid point
    wall_time: float = field(compare=False)
    version: str = _pkg_version

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

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


# numpy's SeedSequence hash (O'Neill's seed_seq alternative, NEP 19): its
# entropy pool, the multipliers of its mixing steps and their seeds
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list:
    """The little-endian 32-bit words of n >= 0 as SeedSequence splits an
    entropy integer ([0] for 0), each a one-element array."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return [np.array([w], dtype=np.uint32) for w in words]


def _seed_hash(entropy: list) -> np.ndarray:
    """(m, 4) uint64 words of SeedSequence.generate_state(4, np.uint64) for
    m entropy inputs, given word by word: ``entropy[i]`` holds word i of
    every input (or one word that all share), as a uint32 array.

    The hash constant advances the same way for every input, so the steps
    of SeedSequence's mix_entropy and generate_state run on whole arrays.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])],
                    axis=-1)


def _stream_words(master_seed: int, n_index: int, reps) -> np.ndarray:
    """(len(reps), 4) uint64 rows: row j is
    SeedSequence(master_seed, spawn_key=(n_index, reps[j]))
    .generate_state(4, np.uint64), the PCG64 seed of that replication.

    The seed, padded to the pool size, and n_index are words every row
    shares; a replication index takes one word below 2**32 and two from
    there on, so the two lengths are hashed as separate groups.
    """
    reps = np.asarray(reps, dtype=np.uint64)
    shared = _uint32_words(master_seed)
    shared += [np.zeros(1, dtype=np.uint32)] * (_POOL - len(shared))
    shared += _uint32_words(n_index)
    out = np.empty((reps.size, 4), dtype=np.uint64)
    wide = reps > _MASK32
    for group, n_words in ((~wide, 1), (wide, 2)):
        if group.any():
            r = reps[group]
            words = [(r & _MASK32).astype(np.uint32),
                     (r >> 32).astype(np.uint32)]
            out[group] = _seed_hash(shared + words[:n_words])
    return out


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """The PCG64 seed of one stream of a grid point, already hashed: PCG64
    asks for generate_state(4, np.uint64) and gets ``words``, the stream's
    row of ``_stream_words``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a hashed seed holds only the PCG64 state")
        return self.words


def replication_rng(master_seed: int, n_index: int, rep: int,
                    words: Optional[np.ndarray] = None) -> np.random.Generator:
    """Independent stream for replication ``rep`` of grid point ``n_index``:
    PCG64 seeded by SeedSequence(master_seed, spawn_key=(n_index, rep)),
    which it spawns from.  ``words``, the stream's row of ``_stream_words``
    when the caller has hashed a whole grid point, seeds the same PCG64
    without that SeedSequence; such a stream does not spawn."""
    seed = (np.random.SeedSequence(master_seed, spawn_key=(n_index, rep))
            if words is None else _HashedSeed(words))
    return np.random.Generator(np.random.PCG64(seed))


def _replication_rngs(config: ExperimentConfig, n_index: int):
    """The streams of every replication of grid point ``n_index``, in
    order, each built only when it is taken."""
    words = _stream_words(config.master_seed, n_index,
                          np.arange(config.replications))
    return (replication_rng(config.master_seed, n_index, rep, row)
            for rep, row in enumerate(words))


def _draw(rngs, rows: int, width: int) -> np.ndarray:
    """A block of uniforms in (0, 1]: row j is 1 - u for the next ``width``
    doubles u of the j-th stream taken from ``rngs``."""
    u = np.empty((rows, width))
    for row, rng in zip(u, rngs):  # zip takes no stream past the block
        rng.random(out=row)
    return np.subtract(1.0, u, out=u)


def _replication_sums(config: ExperimentConfig, n_index: int,
                      a: np.ndarray, width: int, summands) -> np.ndarray:
    """sum_k a_k X_k for every replication of grid point ``n_index``.

    Row j of a block holds ``width`` uniforms from replication j's own
    stream; ``summands`` maps the whole block of uniforms in (0, 1] to rows
    of X in one call, and each row is reduced by its own dot product in
    replication order.
    """
    sums = np.empty(config.replications)
    rngs = _replication_rngs(config, n_index)
    block = max(1, _BLOCK // width)
    for start in range(0, config.replications, block):
        u = _draw(rngs, min(block, config.replications - start), width)
        for rep, x in enumerate(summands(u), start):
            sums[rep] = float(np.dot(a, x))
    return sums


# ---------------------------------------------------------------------------
# Exact weak laws
# ---------------------------------------------------------------------------

def _chain_ratios(kind: str, family: DistributionFamily, ks: np.ndarray,
                  v: np.ndarray, return_live: bool = False):
    """Ratios of a block of chains: column 0 stays the first digit's
    uniform, and columns ks are mapped to draws of the family's members.
    ``return_live`` is passed to ``ratio_path`` (continuous families only).

    A discrete draw is U_k = 1/Z_k, so D_{k+1} = phi(D_k) Z_k + 1 and
    R_k = Z_k for every kind: the exact integer digits, where the floor of
    phi/fl(1/Z_k) in ``ratio_path`` could give phi Z_k - 1.
    """
    if family.is_discrete():
        return family.reciprocals(ks, v[:, 1:])
    v[:, 1:] = family.sampler(ks, v[:, 1:])
    return ratio_path(kind, v, return_live)


def _chain_sums(config: ExperimentConfig, n_index: int,
                a: np.ndarray) -> np.ndarray:
    """``_replication_sums`` of the ratios of the configured Engel or
    Sylvester chain, driven by a continuous family.

    A chain leaves the exact window of ``ratio_path`` within a few dozen
    ratios, after which its ratios are 1/U_k.  So ``_chain_ratios`` maps
    the first ``_HEAD`` ratios of a block of replications in one call, and
    the rest of each row is mapped elementwise as its stream continues; a
    row still inside the window after the head is mapped whole by
    ``_chain_ratios``, as the block loop maps it.  A stream's doubles are
    sequential, so drawing a row in two pieces draws the same numbers, and
    every sum is the same full-row dot product as in ``_replication_sums``.
    """
    kind, family = config.scheme, config.reciprocal_family
    n = a.size
    ks = np.arange(1, n + 1)
    h = min(_HEAD, n) + 1  # the head's draws: first digit and _HEAD ratios
    sums = np.empty(config.replications)
    rngs = _replication_rngs(config, n_index)
    chunk = max(1, _BLOCK // (_HEAD + 1))
    x = np.empty(n)  # one replication's ratios
    tail = np.empty(n + 1 - h)
    for start in range(0, config.replications, chunk):
        streams = list(itertools.islice(rngs, chunk))
        u = _draw(streams, len(streams), h)
        head, live = _chain_ratios(kind, family, ks[:h - 1], u.copy(),
                                   return_live=True)
        for j, rng in enumerate(streams):
            rng.random(out=tail)
            np.subtract(1.0, tail, out=tail)
            if live[j]:
                row = np.concatenate((u[j], tail))[np.newaxis]
                x[:] = _chain_ratios(kind, family, ks, row)[0]
            else:
                x[:h - 1] = head[j]
                np.divide(1.0, family.sampler(ks[h - 1:], tail),
                          out=x[h - 1:])
            sums[start + j] = float(np.dot(a, x))
    return sums


def _passing_ell(check, config: ExperimentConfig,
                 family: DistributionFamily, conditions: str) -> float:
    """The ell of ``check``'s report on the configured weights and the
    alphas of ``family`` up to the largest n, or ConditionCheckError naming
    the conditions that fail."""
    n_max = max(config.n_grid)
    alphas = member_values(family.alpha, np.arange(1, n_max + 1))
    report = check(config.weight_scheme, alphas, n_max)
    if not report.passed:
        failing = [k for k, (_, v) in report.conditions.items() if v != "pass"]
        raise ConditionCheckError(f"weight scheme fails {conditions} "
                                  "conditions: " + ", ".join(failing))
    return report.ell


def exact_weak_law_run(config: ExperimentConfig) -> RunRecord:
    """Exceedance frequencies of |T_n - ell| > epsilon where
    T_n = (1/(rho_n log n)) sum_k a_{k,n} X_k, with X the direct reciprocals
    Y_k = 1/U_k or the ratio variables of a digit chain, U_k ~ F_k either
    way."""
    t_start = time.perf_counter()
    if config.scheme not in WEAK_LAW_SCHEMES:
        raise DomainError(f"unknown weak-law scheme {config.scheme!r}")
    _reject_unread(config, ("mode", "beta", "t_grid"), "weak-law runs")
    family, scheme = config.reciprocal_family, config.weight_scheme
    ell = _passing_ell(check_theorem_3_2_conditions, config, family,
                       "weak-law")

    per_n = []
    for i, n in enumerate(config.n_grid):
        a = weights_row(scheme, n)
        ks = np.arange(1, n + 1)
        if config.scheme == "direct":
            sums = _replication_sums(config, i, a, n,
                                     lambda v: family.reciprocals(ks, v))
        elif config.scheme != "luroth" and not family.is_discrete():
            sums = _chain_sums(config, i, a)
        else:  # a chain of n ratios walks n + 1 draws
            sums = _replication_sums(config, i, a, n + 1,
                                     lambda v: _chain_ratios(config.scheme,
                                                             family, ks, v))
        stats = sums / (scheme.rho(n) * math.log(n))
        exceed = float(np.mean(np.abs(stats - ell) > config.epsilon))
        per_n.append({"n": int(n), "exceedance": exceed,
                      "t_median": float(np.median(stats)),
                      "t_mean": float(np.mean(stats)), "ell": float(ell)})
    return RunRecord(config.digest("weak_law"), "weak_law", tuple(per_n),
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
    return StableLimitLaw(_passing_ell(
        check_theorem_4_1_conditions, config, config.summand_family,
        "distributional"))


def distributional_run(config: ExperimentConfig) -> RunRecord:
    """KS distance and ECF error of V_n against the stable limit law."""
    t_start = time.perf_counter()
    # the modes sum family reciprocals, not digit-chain ratios, and two of
    # them sum discrete digits whatever the family
    discrete = config.mode in ("classical_1_2", "cor_4_3")
    reader = f"distributional runs of mode {config.mode!r}"
    _reject_unread(config, ("scheme", "family") if discrete else ("scheme",),
                   reader)
    if "rho" in config.weights:  # V_n and Theorem 4.1 never read rho_n
        raise DomainError(f"unread by {reader}: "
                          f"weights.rho={config.weights['rho']!r}")
    if config.replications < 100:
        raise DomainError("distributional runs need at least 100 replications")
    law = limit_law_for(config)
    t = np.asarray(config.t_grid)
    xi = char_fn(law, t)

    per_n = []
    for i, n in enumerate(config.n_grid):
        v = v_samples(config, n, i)
        ks = ks_distance(v, law) if law.c > 0 else float(
            np.mean(np.abs(v) > config.epsilon))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            ecf = np.exp(1j * np.multiply.outer(t, v)).mean(axis=1)
        if not np.isfinite(ecf).all():
            raise DomainError(f"t_grid {list(config.t_grid)} overflows the "
                              f"empirical characteristic function")
        per_n.append({
            "n": int(n), "ks": float(ks),
            "ecf_error": float(np.max(np.abs(ecf - xi))),
            "ell": float(law.c),
        })
    return RunRecord(config.digest("distributional"), "distributional",
                     tuple(per_n), time.perf_counter() - t_start)


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
    rng = np.random.default_rng(master_seed)
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
