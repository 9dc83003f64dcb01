"""LSH candidate search over level sketches.

Each set is inserted at the sketch levels admissible for its exact
cardinality s: levels k in [log2(r1^2*p*s), log2(p*s)] drawn from a grid
spaced by log2(1/r1), where p = (eps/5)^2 * r1 * delta.  At each admissible
level the index takes min-hash signatures of the nonzero bucket pattern,
concatenates r of them per repetition (AND), and keeps l independent
repetitions (OR).  Pairs sharing a signature in any table become
candidates with probability 1 - (1 - s^r)^l for per-signature match
probability s; a verification pass can then re-check candidates against a
distance estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from itertools import combinations, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distance import DistanceEstimator
from .errors import ConfigMismatchError
from .hashing import SketchRandomness, deepest_level, minhash_positions, random_hash_spec
from .sketch import LevelSketch

DEFAULT_PAIR_CAP = 10_000

# verify scores pairs in chunks that read at most this many snapshot
# entries (one per nonzero counter of either side, plus one per pair), so
# each of its int64 work arrays stays within a quarter of a MiB
_VERIFY_CHUNK_ENTRIES = 1 << 15

SetId = int | str


@dataclass(frozen=True)
class LshConfig:
    """Thresholds and banding shape for an index.

    r1 is the similarity users want to retrieve, r2 < r1 the similarity
    they want to reject; epsilon and delta are the sampling accuracy and
    failure-probability knobs that size the admissible-level window via
    p = (epsilon/5)^2 * r1 * delta (override with sampling_p).  bands_r
    signatures are concatenated per repetition and repetitions_l tables
    are kept.
    """

    r1: float
    r2: float
    epsilon: float = 0.5
    delta: float = 0.1
    bands_r: int = 1
    repetitions_l: int = 1
    sampling_p: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.r2 < self.r1 < 1.0):
            raise ValueError(
                f"need 0 < r2 < r1 < 1, got r1={self.r1!r} r2={self.r2!r}"
            )
        for name in ("epsilon", "delta"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v!r}")
        for name in ("bands_r", "repetitions_l"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.sampling_p is not None and not (0.0 < self.sampling_p < 1.0):
            raise ValueError(f"sampling_p must lie in (0, 1), got {self.sampling_p!r}")

    @property
    def p(self) -> float:
        """Effective sampling budget used by the level window."""
        if self.sampling_p is not None:
            return self.sampling_p
        return (self.epsilon / 5.0) ** 2 * self.r1 * self.delta


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """An unordered candidate pair, canonicalized so id_a < id_b.

    level and repetition record the first table in scan order where the
    two sets shared a signature; verified_distance is filled by verify().
    """

    id_a: SetId
    id_b: SetId
    level: int
    repetition: int
    verified_distance: float | None = None


# The frozen __init__ sets each field through object.__setattr__; candidates()
# builds its pairs by writing the slots directly instead, at half the cost.
_set_a, _set_b, _set_level, _set_repetition, _set_distance = (
    getattr(CandidatePair, f.name).__set__ for f in fields(CandidatePair)
)


def _new_pair(id_a: SetId, id_b: SetId, level: int, repetition: int) -> CandidatePair:
    pair = object.__new__(CandidatePair)
    _set_a(pair, id_a)
    _set_b(pair, id_b)
    _set_level(pair, level)
    _set_repetition(pair, repetition)
    _set_distance(pair, None)
    return pair


def amplification_probability(s: float, r: int, l: int) -> float:
    """Candidate probability 1 - (1 - s^r)^l of (r, l) banding."""
    return 1.0 - (1.0 - s**r) ** l


def level_grid(r1: float, d: int) -> tuple[int, ...]:
    """Levels {floor(m * log2(1/r1)) : m = 0, 1, ...} within [0, ceil(log2 d)].

    Steps of less than one level collapse to step one after flooring and
    deduplication, so the grid always starts at 0 and never skips more
    than log2(1/r1) levels.
    """
    if not (0.0 < r1 < 1.0):
        raise ValueError(f"r1 must lie in (0, 1), got {r1!r}")
    max_level = deepest_level(d)
    step = math.log2(1.0 / r1)
    if step < 1.0:
        return tuple(range(max_level + 1))
    out: list[int] = []
    m = 0
    while True:
        k = math.floor(m * step)
        if k > max_level:
            break
        if not out or out[-1] != k:
            out.append(k)
        m += 1
    return tuple(out)


def candidate_levels(cardinality: int, cfg: LshConfig, grid: Sequence[int]) -> tuple[int, ...]:
    """Grid levels admissible for a set of the given exact cardinality.

    The window is [floor(log2(r1^2*p*s)), floor(log2(p*s))]; windows that
    fall entirely below level 0 clamp to {0}, and an empty set (s = 0) is
    admissible nowhere.
    """
    if cardinality < 0:
        raise ValueError(f"cardinality must be non-negative, got {cardinality!r}")
    if cardinality == 0:
        return ()
    ps = cfg.p * cardinality
    lo = math.floor(math.log2(cfg.r1 * cfg.r1 * ps)) if cfg.r1 * cfg.r1 * ps > 0 else 0
    hi = math.floor(math.log2(ps))
    lo, hi = max(lo, 0), max(hi, 0)
    return tuple(k for k in grid if lo <= k <= hi)


class LshIndex:
    """Signature tables over a frozen sparse copy of each inserted set.

    Tables are keyed by (level, repetition); each maps a signature tuple to
    the ids inserted under it.  insert scans a sketch's counters once: the
    nonzero positions, split by row with searchsorted, give both the set's
    stored entry (sorted flat positions, their values, the row cuts and
    the cardinality) and each admissible row's l * r min-hashes,
    taken in one pass under that level's cached multipliers
    (SketchRandomness.minhash_arrays).  The index keeps no reference to the
    caller's sketch, so changing or dropping it afterwards changes nothing
    here; re-insert to update.  Re-inserting an existing id replaces its
    entry and postings, and remove() drops an id with all of them.
    Single-writer: concurrent inserts are not supported, reads may proceed
    in parallel once building is done.
    """

    def __init__(
        self,
        cfg: LshConfig,
        randomness: SketchRandomness,
        pair_cap: int = DEFAULT_PAIR_CAP,
    ) -> None:
        if pair_cap < 1:
            raise ValueError(f"pair_cap must be positive, got {pair_cap!r}")
        self.cfg = cfg
        self.randomness = randomness
        self.pair_cap = pair_cap
        self.grid = level_grid(cfg.r1, randomness.d)
        self._tables: dict[tuple[int, int], dict[tuple[int, ...], list[SetId]]] = {}
        self._postings: dict[SetId, list[tuple[int, int, tuple[int, ...]]]] = {}
        # per id, the sparse form of its sketch at insert: sorted flat nonzero
        # positions and their counters, each in the narrowest signed dtype
        # that holds it and its negation; the row cuts, so row k's entries
        # are cuts[k] : cuts[k + 1]; and the cardinality
        self._entries: dict[SetId, tuple[np.ndarray, np.ndarray, np.ndarray, int]] = {}
        self._row_starts = np.arange(randomness.num_levels + 1) * randomness.c_squared
        self._position_dtype = _narrowest_signed(randomness.num_levels * randomness.c_squared)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, set_id: SetId) -> bool:
        return set_id in self._entries

    def insert(self, set_id: SetId, sketch: LevelSketch) -> None:
        """Index a sparse copy of the sketch under set_id, replacing any previous one."""
        if sketch.randomness != self.randomness:
            raise ConfigMismatchError("sketch randomness does not match the index")
        if set_id in self._postings:
            self.remove(set_id)
        flat = sketch.buckets.reshape(-1)
        nonzero = np.flatnonzero(flat != 0)
        row_cuts = nonzero.searchsorted(self._row_starts)
        cuts = row_cuts.tolist()
        postings: list[tuple[int, int, tuple[int, ...]]] = []
        l, r, width = self.cfg.repetitions_l, self.cfg.bands_r, self.randomness.c_squared
        for level in candidate_levels(sketch.cardinality, self.cfg, self.grid):
            start, stop = cuts[level], cuts[level + 1]
            if start == stop:
                continue  # an empty row: every min-hash would be the sentinel
            arrays = self.randomness.minhash_arrays(level, l, r)
            sigs = minhash_positions(nonzero[start:stop] - level * width, arrays)
            for repetition, sig in enumerate(map(tuple, sigs.reshape(l, r).tolist())):
                self._tables.setdefault((level, repetition), {}).setdefault(sig, []).append(set_id)
                postings.append((level, repetition, sig))
        values = flat[nonzero]
        peak = max(int(values.max(initial=0)), -int(values.min(initial=0)))
        self._postings[set_id] = postings
        self._entries[set_id] = (
            nonzero.astype(self._position_dtype),
            values.astype(_narrowest_signed(peak)),
            row_cuts,
            sketch.cardinality,
        )

    def remove(self, set_id: SetId) -> None:
        """Drop set_id and its postings, as if it had never been inserted.

        Raises KeyError for an id that is not indexed.
        """
        for level, repetition, sig in self._postings.pop(set_id):
            table = self._tables[(level, repetition)]
            ids = table[sig]
            ids.remove(set_id)
            if not ids:
                del table[sig]
                if not table:
                    del self._tables[(level, repetition)]
        del self._entries[set_id]

    def candidates(self) -> list[CandidatePair]:
        """All distinct pairs sharing a signature in some table.

        Deterministic for a fixed master seed and content: tables are
        scanned in (level, repetition) order and buckets in signature
        order, and each pair is reported once, tagged with its first
        colliding table.  Buckets whose pair expansion exceeds pair_cap
        contribute only the first pair_cap pairs and raise a warning.
        """
        seen: set[tuple[SetId, SetId]] = set()
        out: list[CandidatePair] = []
        see, emit, cap = seen.add, out.append, self.pair_cap
        for level, repetition in sorted(self._tables):
            table = self._tables[(level, repetition)]
            for sig in sorted(sig for sig, ids in table.items() if len(ids) > 1):
                ids = table[sig]
                keys = combinations(sorted(ids), 2)
                total = len(ids) * (len(ids) - 1) // 2
                if total > cap:
                    warnings.warn(
                        f"bucket at level {level} repetition {repetition} expands to "
                        f"{total} pairs; emitting the first {cap}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    keys = islice(keys, cap)
                for key in keys:
                    if key not in seen:
                        see(key)
                        emit(_new_pair(key[0], key[1], level, repetition))
        return out

    def verify(
        self,
        pairs: Iterable[CandidatePair],
        estimator: DistanceEstimator,
        threshold: float,
    ) -> list[CandidatePair]:
        """Keep pairs whose estimated distance is at most threshold.

        Each surviving pair, in input order, carries in verified_distance
        the value estimator.estimate_distance gives the two sketches as
        they were inserted, bit for bit.  The estimator needs metric
        rational weights and exactly one randomness slot, this index's;
        pairs naming an unindexed id raise KeyError before any pair is
        scored.

        All pairs are scored in one batched pass.  A pair's estimate needs
        only the per-row nonzero counts of A + B and A - B and |A| + |B|,
        and by linearity those counts follow from the two sparse supports:
        a position in both supports drops out of A - B when the counters
        are equal and out of A + B when they are opposite.  So verify
        concatenates the stored entries of the ids its pairs name, and
        counts shared, equal and opposite positions per pair and row, chunk
        by chunk, without building any merge or reading a dense sketch.
        """
        estimator.require_metric()
        if estimator.repetitions != 1 or estimator.randomness[0] != self.randomness:
            raise ConfigMismatchError(
                "verify needs an estimator with one randomness slot equal to the "
                f"index's; got {estimator.repetitions} slot(s)"
            )
        pairs = list(pairs)
        row_of: dict[SetId, int] = {}
        n = len(pairs)
        rows_a = np.fromiter((row_of.setdefault(p.id_a, len(row_of)) for p in pairs), np.int64, n)
        rows_b = np.fromiter((row_of.setdefault(p.id_b, len(row_of)) for p in pairs), np.int64, n)
        for set_id in row_of:
            if set_id not in self._entries:
                raise KeyError(f"pair references unindexed id {set_id!r}")
        if not n:
            return []
        snap = _SparseSnapshot([self._entries[set_id] for set_id in row_of], self.randomness)
        kept: list[CandidatePair] = []
        cost = np.cumsum(snap.length[rows_a] + snap.length[rows_b] + 1)
        start = 0
        while start < n:
            done = cost[start - 1] if start else 0
            stop = max(int(np.searchsorted(cost, done + _VERIFY_CHUNK_ENTRIES, "right")), start + 1)
            sym_nz, union_nz, cards = snap.pair_counts(rows_a[start:stop], rows_b[start:stop])
            dist = estimator.distances_from_counts(sym_nz, union_nz, cards)
            kept += [
                replace(pairs[start + j], verified_distance=float(dist[j]))
                for j in np.flatnonzero(dist <= threshold).tolist()
            ]
            start = stop
        return kept


def _narrowest_signed(bound: int) -> np.dtype:
    """The smallest signed integer dtype holding -bound .. bound (else int64)."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class _SparseSnapshot:
    """LshIndex entries concatenated into CSR arrays.

    Entry i owns items offset[i] : offset[i] + length[i] of position and
    value, widened to the widest dtype among the entries; nz and card
    stack the per-row nonzero counts and the cardinalities.
    """

    def __init__(self, entries: Sequence[tuple], randomness: SketchRandomness) -> None:
        self.num_levels = randomness.num_levels
        self.width = randomness.num_levels * randomness.c_squared
        self.bucket_bits = randomness.bucket_bits
        position, value, cuts, card = zip(*entries)
        self.position = np.concatenate(position)
        self.value = np.concatenate(value)
        cuts = np.stack(cuts)
        self.nz = np.diff(cuts, axis=1)
        self.card = np.array(card, dtype=np.int64)
        self.length = cuts[:, -1]
        self.offset = np.cumsum(self.length) - self.length

    def _gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entry indices of the sketches in rows, concatenated, and their keys.

        A key is pair * width + position, so keys ascend across the chunk.
        """
        lengths = self.length[rows]
        ends = np.cumsum(lengths)
        entry = np.arange(ends[-1]) + np.repeat(self.offset[rows] - (ends - lengths), lengths)
        pair = np.repeat(np.arange(rows.size), lengths)
        return entry, pair * self.width + self.position[entry]

    def pair_counts(
        self, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row nonzero counts of A - B and A + B, and |A| + |B|, per pair."""
        n, levels = rows_a.size, self.num_levels
        # every count is symmetric in A and B, so look up each entry of the
        # smaller support (side a below) among the larger one (side b)
        swap = self.length[rows_a] > self.length[rows_b]
        entry_a, key_a = self._gather(np.where(swap, rows_b, rows_a))
        entry_b, key_b = self._gather(np.where(swap, rows_a, rows_b))
        if key_b.size:
            hit = np.minimum(np.searchsorted(key_b, key_a), key_b.size - 1)
            shared = np.flatnonzero(key_b[hit] == key_a)
        else:
            hit = shared = np.zeros(0, dtype=np.int64)
        value_a = self.value[entry_a[shared]]
        value_b = self.value[entry_b[hit[shared]]]
        key = key_a[shared]
        cells = (key // self.width) * levels + ((key % self.width) >> self.bucket_bits)
        size = n * levels
        common = np.bincount(cells, minlength=size)
        equal = np.bincount(cells[value_a == value_b], minlength=size)
        opposite = np.bincount(cells[value_a == -value_b], minlength=size)
        both = self.nz[rows_a] + self.nz[rows_b] - common.reshape(n, levels)
        return (
            both - equal.reshape(n, levels),
            both - opposite.reshape(n, levels),
            self.card[rows_a] + self.card[rows_b],
        )


def sensitivity_report(
    sketches: Mapping[SetId, LevelSketch],
    exact_similarities: Mapping[tuple[SetId, SetId], float],
    cfg: LshConfig,
    randomness: SketchRandomness,
) -> tuple[float, float]:
    """Empirical (p_high, p_low) of single-signature collisions.

    Builds a throwaway index at r = l = 1 and measures the fraction of
    labeled pairs that came out candidates, separately for pairs with
    similarity >= r1 (p_high) and <= r2 (p_low).  Sections with no labeled
    pairs report nan.  The internal index is sized so candidate
    enumeration never truncates; the frequencies are exact for the corpus.
    """
    single = replace(cfg, bands_r=1, repetitions_l=1)
    n = len(sketches)
    index = LshIndex(single, randomness, pair_cap=max(1, n * (n - 1) // 2))
    for set_id, sketch in sketches.items():
        index.insert(set_id, sketch)
    hits = {(p.id_a, p.id_b) for p in index.candidates()}  # canonical: id_a < id_b
    high_total = high_hit = low_total = low_hit = 0
    for pair, sim in exact_similarities.items():
        key = pair if pair[0] < pair[1] else (pair[1], pair[0])
        if sim >= cfg.r1:
            high_total += 1
            high_hit += key in hits
        elif sim <= cfg.r2:
            low_total += 1
            low_hit += key in hits
    p_high = high_hit / high_total if high_total else float("nan")
    p_low = low_hit / low_total if low_total else float("nan")
    return p_high, p_low


def minhash_pair_collides(
    a_items: np.ndarray,
    b_items: np.ndarray,
    r: int,
    l: int,
    master_seed: int,
) -> bool:
    """Uncompressed (r, l)-banded min-hash over raw item sets.

    The level-free baseline: signatures are taken directly over item ids,
    so the collision probability per signature is the pairs' exact Jaccard
    similarity (up to the hash family's mixing).  Useful for calibrating
    the banding curve without sketch effects.
    """
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    specs = [random_hash_spec(rng, 64) for _ in range(r * l)]
    sig_a, sig_b = (
        minhash_positions(np.unique(np.asarray(items, dtype=np.uint64)), specs).reshape(l, r)
        for items in (a_items, b_items)
    )
    return bool(np.any(np.all(sig_a == sig_b, axis=1)))

