"""Monte Carlo harness for the convergence experiments.

Reproducibility contract: every replication j of the grid point with index i
draws from its own stream seeded as SeedSequence(master_seed,
spawn_key=(i, j)); statistics are reduced in replication order, so a record
is bit-identical across reruns.  A lone stream (``replication_rng``) is PCG64
on numpy's own SeedSequence.  Every Monte Carlo sum, direct or along a digit
chain, is one ``_replication_sums`` call: it draws (``_draw``) from the
streams of a grid point, hashed in one numpy pass (``_stream_words``).

The blocks of replications of a grid point run on the calling thread and,
for long rows where the process may use a second CPU, one helper thread:
each row has its own stream and is written to the sums by its own index,
and each row's dot product is split into pieces that BLAS never threads
(``_row_sum``), so a record depends on neither thread count.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
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
    parse_integer,
    parse_real,
    reciprocal_char,
    uniform_family,
)
from .errors import ConditionCheckError, DomainError
from .expansions import OPPENHEIM_KINDS, ratio_path
from .limitlaw import StableLimitLaw, char_fn, ks_distance
from .specfun import EULER_GAMMA, c2_discrete
from .weights import (
    MIN_CHECK_N,
    WeightScheme,
    cesaro_scheme,
    check_theorem_3_2_conditions,
    check_theorem_4_1_conditions,
    iterated_scheme,
    power_alpha_scheme,
    weights_row,
)

logger = logging.getLogger(__name__)

DEFAULT_SEED = 20260823
_WEIGHT_KINDS = {"cesaro": cesaro_scheme, "iterated": iterated_scheme,
                 "power_alpha": power_alpha_scheme}
_BETA_UNREAD_BY = "all runs but distributional runs of mode 'cor_4_3'"
WEAK_LAW_SCHEMES = ("direct", *OPPENHEIM_KINDS)
# uniforms per block of replications mapped in one call (256 kB of doubles)
_BLOCK = 2**15
# np.dot under OpenBLAS splits a dot product of more elements across its
# threads, and the last bit of the sum then depends on their number
_DOT_PIECE = 10_000
# threads that take blocks of replications beside the caller: one when the
# process may use a second CPU
_HELPERS = min(1, (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1) - 1)
# the helpers take blocks only of rows at least this long: on shorter rows
# each numpy call is so short that the threads lose more time handing the
# interpreter lock to each other than they gain (on a 2-CPU VM a helper made
# sums over rows of 1,000 24-59 % slower, of 3,000 from 7 % faster to 24 %
# slower, and of 10,000 to 50,000 18-49 % faster)
_HELPER_WIDTH = 10_000


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
        for name in ("family", "weights", "beta", "n_grid", "t_grid"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        for name in ("n_grid", "t_grid"):  # a string or number is no list
            if not isinstance(getattr(self, name), (list, tuple)):
                raise DomainError(f"{name} must be a list, got "
                                  f"{getattr(self, name)!r}")
        ng = tuple(parse_integer("each n_grid entry", n)
                   for n in self.n_grid)
        if any(b <= a for a, b in zip(ng, ng[1:])):
            raise DomainError("n_grid must be increasing")
        if not ng or min(ng) < 2:  # the statistics divide by log n
            raise DomainError("n_grid must be nonempty, with entries >= 2")
        object.__setattr__(self, "n_grid", ng)
        tg = tuple(map(parse_real, self.t_grid))
        if not tg or not all(t is not None and math.isfinite(t) for t in tg):
            raise DomainError("t_grid must be a nonempty list of finite "
                              f"numbers, got {self.t_grid!r}")
        object.__setattr__(self, "t_grid", tg)
        for name, least in (("master_seed", 0), ("replications", 1)):
            value = parse_integer(name, getattr(self, name))
            if value < least:
                raise DomainError(f"{name} must be >= {least}")
            object.__setattr__(self, name, value)
        # numpy raises ValueError, not MemoryError, for arrays this long
        for name, size in (("replications", self.replications),
                           ("the largest n_grid entry", ng[-1])):
            if 8 * size > np.iinfo(np.intp).max:
                raise DomainError(f"{name}, {size}, is too large for an "
                                  "array of doubles")
        epsilon = parse_real(self.epsilon)
        if epsilon is None or not epsilon > 0:
            raise DomainError(f"epsilon must be a number > 0, got "
                              f"{self.epsilon!r}")
        object.__setattr__(self, "epsilon", epsilon)
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
    none or it is unreadable: unparsable, another config's or version's (the
    digest hashes the version), or without rows of one set of keys."""
    path = Path(directory) / f"{digest}.json"
    if not path.exists():
        return None
    try:
        record = RunRecord.from_json(path.read_text())
        if (record.config_digest, record.version) != (digest, _pkg_version):
            raise ValueError(f"the record of {record.config_digest[:12]} "
                             f"under version {record.version}")
        if not record.per_n or not all(
                isinstance(row, dict) and row.keys() == record.per_n[0].keys()
                for row in record.per_n):
            raise ValueError("per_n is not a nonempty list of mappings with "
                             "one set of keys")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        logger.warning("cache miss for %s: unreadable record (%s)",
                       digest[:12], exc)
        return None
    return record


# numpy's SeedSequence hash (O'Neill's seed_seq alternative, NEP 19): its
# entropy pool, the multipliers of its mixing steps and their seeds
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _word_count(n: int) -> int:
    """How many 32-bit words SeedSequence splits an entropy integer n >= 0
    into (one for 0)."""
    return max(1, -(-n.bit_length() // 32))


def _seed_hash(pool: np.ndarray, n_mixed: int, entropy: list) -> np.ndarray:
    """(m, 4) uint64 words of SeedSequence.generate_state(4, np.uint64) for
    m entropy inputs that share their first ``n_mixed`` words, whose mix is
    ``pool`` (numpy's own SeedSequence.pool), and differ in the words after
    them: ``entropy[i]`` holds the next word i of every input, as a uint32
    array.

    SeedSequence's mix_entropy advances its hash constant by 4 steps per
    word, the same way for every input, so the mix of the remaining words
    and generate_state run on whole arrays.
    """
    const = _INIT_A * pow(_MULT_A, 4 * n_mixed, 1 << 32) & _MASK32
    pool = list(pool[:, None])  # arrays, since numpy scalars warn on a wrap
    for word in entropy:
        for dst in range(_POOL):
            value = word ^ np.uint32(const)
            const = const * _MULT_A & _MASK32
            value = value * np.uint32(const)
            r = (np.uint32(_MIX_L) * pool[dst]
                 - np.uint32(_MIX_R) * (value ^ (value >> 16)))
            pool[dst] = r ^ (r >> 16)
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

    The words every row shares, the seed padded to the pool size and
    n_index, are mixed once by SeedSequence(master_seed,
    spawn_key=(n_index,)); a replication index takes one word below 2**32
    and two from there on, so the two lengths are hashed as separate groups.
    """
    reps = np.asarray(reps, dtype=np.uint64)
    pool = np.random.SeedSequence(master_seed, spawn_key=(n_index,)).pool
    n_mixed = max(_POOL, _word_count(master_seed)) + _word_count(n_index)
    out = np.empty((reps.size, 4), dtype=np.uint64)
    wide = reps > _MASK32
    for group, n_words in ((~wide, 1), (wide, 2)):
        if group.any():
            r = reps[group]
            words = [(r & _MASK32).astype(np.uint32),
                     (r >> 32).astype(np.uint32)]
            out[group] = _seed_hash(pool, n_mixed, words[:n_words])
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


def _draw(streams: list, u: np.ndarray) -> np.ndarray:
    """u filled with uniforms in (0, 1]: row j is 1 - v for the next
    doubles v of ``streams[j]``."""
    for row, rng in zip(u, streams):
        rng.random(out=row)
    return np.subtract(1.0, u, out=u)


def _row_sum(a: np.ndarray, x: np.ndarray) -> float:
    """sum_k a_k x_k as the in-order sum of the dot products of consecutive
    pieces of at most ``_DOT_PIECE`` elements, none of which BLAS threads;
    a row of at most that many is one dot product."""
    total = float(np.dot(a[:_DOT_PIECE], x[:_DOT_PIECE]))
    for lo in range(_DOT_PIECE, a.size, _DOT_PIECE):
        total += float(np.dot(a[lo:lo + _DOT_PIECE], x[lo:lo + _DOT_PIECE]))
    return total


def _replication_sums(config: ExperimentConfig, n_index: int,
                      a: np.ndarray, width: int, summands) -> np.ndarray:
    """sum_k a_k X_k for every replication of grid point ``n_index``.

    A block holds ``max(1, _BLOCK // width)`` replications, and its row j
    the first ``width`` uniforms in (0, 1] of replication j's own stream
    (``_draw``).  ``summands`` maps the whole block to rows of X in one
    call, and each row is reduced by ``_row_sum`` into its own index of the
    sums.

    The calling thread and, for rows of at least ``_HELPER_WIDTH`` in more
    than one block, ``_HELPERS`` helper threads run one loop: it takes the
    next block and builds its streams in replication order under one lock,
    and draws and maps the block outside it.

    A loop ends when no block is left or a block it runs raises, and no
    loop takes a block once one has raised: the caller, its loop ended,
    waits only for the blocks the helpers hold, then re-raises.
    """
    sums = np.empty(config.replications)
    rows = max(1, _BLOCK // width)
    words = _stream_words(config.master_seed, n_index,
                          np.arange(config.replications))
    starts = iter(range(0, config.replications, rows))
    lock = threading.Lock()
    errors = []  # what the blocks raised

    def take_blocks():
        try:
            while True:
                with lock:
                    start = None if errors else next(starts, None)
                    if start is None:
                        return
                    streams = [replication_rng(config.master_seed, n_index,
                                               rep, words[rep]) for rep in
                               range(start, min(start + rows, len(sums)))]
                u = np.empty((len(streams), width))
                for rep, x in enumerate(summands(_draw(streams, u)), start):
                    sums[rep] = _row_sum(a, x)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=take_blocks) for _ in range(
        _HELPERS if width >= _HELPER_WIDTH and len(sums) > rows else 0)]
    for thread in helpers:
        thread.start()
    take_blocks()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
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


def _passing_ell(check, config: ExperimentConfig,
                 family: DistributionFamily, conditions: str) -> float:
    """The ell of ``check``'s report on the configured weights and the
    alphas of ``family`` up to the largest n.  A report that does not pass
    names each condition that does not with its verdict: in a
    ConditionCheckError if some verdict is "fail", else in a DomainError,
    since the grid is too short to decide.  The check's grid needs two
    points from n = 10, so a grid that ends below ``MIN_CHECK_N`` is a
    DomainError too."""
    n_max = max(config.n_grid)
    if n_max < MIN_CHECK_N:
        raise DomainError(f"the largest n_grid entry, {n_max}, must be >= "
                          f"{MIN_CHECK_N}")
    alphas = member_values(family.alpha, np.arange(1, n_max + 1))
    report = check(config.weight_scheme, alphas, n_max)
    if not report.passed:
        named = ", ".join(f"{k} ({v})" for k, (_, v)
                          in report.conditions.items() if v != "pass")
        if any(v == "fail" for _, v in report.conditions.values()):
            raise ConditionCheckError(f"weight scheme fails {conditions} "
                                      f"conditions: {named}")
        raise DomainError(f"n_grid up to {n_max} is too short to decide the "
                          f"{conditions} conditions: {named}")
    return report.ell


def exact_weak_law_run(config: ExperimentConfig) -> RunRecord:
    """Exceedance frequencies of |T_n - ell| > epsilon where
    T_n = (1/(rho_n log n)) sum_k a_{k,n} X_k, with X the direct reciprocals
    Y_k = 1/U_k or the ratio variables of a digit chain, U_k ~ F_k either
    way."""
    t_start = time.perf_counter()
    if config.scheme not in WEAK_LAW_SCHEMES:
        raise DomainError(f"unknown weak-law scheme {config.scheme!r}")
    _reject_unread(config, ("beta",), _BETA_UNREAD_BY)
    _reject_unread(config, ("mode", "t_grid"), "weak-law runs")
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
    _reject_unread(config, ("beta",), _BETA_UNREAD_BY)
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
    log_a = np.log(a, where=a > 0, out=np.zeros(n))  # 0 log 0 = 0
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
