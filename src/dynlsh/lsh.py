"""LSH candidate search over level sketches.

Each set is inserted at the sketch levels admissible for its exact
cardinality s: levels k in [log2(r1^2*p*s), log2(p*s)] drawn from a grid
spaced by log2(1/r1), where p = (eps/5)^2 * r1 * delta.  At each admissible
level the index takes min-hash signatures of the nonzero bucket pattern,
concatenates r of them per repetition (AND), and keeps l independent
repetitions (OR).  Pairs sharing a (level, repetition, signature) bucket,
found by one sort over all sets' signature rows, become candidates with
probability 1 - (1 - s^r)^l for per-signature match probability s.
LshIndex.search scores the same candidates against a distance estimate in
one batched pass and keeps those within a threshold.  A set enters as a
sketch (insert) or in a block of net item sets (insert_many, which the
stream's block walk feeds), and only its nonzero counters are kept.
"""

from __future__ import annotations

import gc
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from operator import neg
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distance import DistanceEstimator
from .errors import ConfigMismatchError
from .hashing import SketchRandomness, deepest_level
from .similarity import RationalSimilarity
from .sketch import LevelSketch, _narrowest_signed

DEFAULT_PAIR_CAP = 10_000

# _distances' chunk budget: at most this many dense scratch cells (one levels x c^2
# row per distinct id_a), and a sixteenth of it in side b's entries plus 16 per
# count cell (pairs x levels), so every work array stays bounded
_VERIFY_CHUNK_CELLS = 1 << 21

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
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.sampling_p is not None and not (0.0 < self.sampling_p < 1.0):
            raise ValueError(f"sampling_p must lie in (0, 1), got {self.sampling_p!r}")

    @property
    def p(self) -> float:
        """Effective sampling budget used by the level window."""
        if self.sampling_p is not None:
            return self.sampling_p
        return (self.epsilon / 5.0) ** 2 * self.r1 * self.delta


class CandidatePair(NamedTuple):
    """An unordered candidate pair, canonicalized so id_a < id_b.

    level and repetition record the first table in scan order where the
    two sets shared a signature; verified_distance is filled by search().
    A tuple: pairs compare, order, hash and unpack as their five fields.
    """

    id_a: SetId
    id_b: SetId
    level: int
    repetition: int
    verified_distance: float | None = None


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
    while (k := math.floor(m * step)) <= max_level:
        out.append(k)  # distinct: a step of one level or more raises k every time
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
    return tuple(grid[bisect_left(grid, max(lo, 0)) : bisect_right(grid, max(hi, 0))])


class LshIndex:
    """One record per id: a frozen sparse copy of its set and its signatures.

    insert scans a sketch's counters once, and insert_many counts a block
    of sets' counters from their net items at once; the nonzero positions,
    split by row, give each entry (sorted flat positions, their values, the
    row cuts, the cardinality), and the block's admissible nonempty rows
    give all their l * r min-hashes in one SketchRandomness.minhash_rows
    call (one gather from the packed rank table, one reduceat).  No tables
    are kept: candidates() groups the records' signature rows by sorting,
    and remove() is one dict delete.  candidates() ranks all ids with one
    sort, so ids must be mutually orderable: mixing int and str ids raises
    TypeError even when the two kinds never share a bucket.  The index
    keeps no reference to the caller's sketch; re-insert to update.
    Single-writer.  The garbage collector's switch is process-wide, so
    another thread that enables or disables it while candidates() runs may
    have its setting overwritten when candidates() restores its own.
    """

    def __init__(
        self,
        cfg: LshConfig,
        randomness: SketchRandomness,
        pair_cap: int = DEFAULT_PAIR_CAP,
    ) -> None:
        if not isinstance(pair_cap, int) or isinstance(pair_cap, bool) or not 1 <= pair_cap < 2**63:
            raise ValueError(f"pair_cap must be an integer in [1, 2**63), got {pair_cap!r}")
        self._pair_cap = pair_cap
        self._cfg = cfg
        self._randomness = randomness
        self._grid = level_grid(cfg.r1, randomness.d)
        # per id: sorted flat nonzero positions and their counters, each in
        # the narrowest signed dtype holding it and its negation; row cuts
        # (row k is cuts[k] : cuts[k + 1]); cardinality; the admissible
        # nonempty levels; (levels * l) x r min-hashes, row i * l + t for
        # repetition t at the i-th level
        self._entries: dict[SetId, tuple] = {}
        self._row_starts = np.arange(randomness.num_levels + 1) * randomness.c_squared
        self._position_dtype = _narrowest_signed(randomness.num_levels * randomness.c_squared)

    @property
    def cfg(self) -> LshConfig:
        """The index's thresholds and banding shape, fixed at construction."""
        return self._cfg

    @property
    def randomness(self) -> SketchRandomness:
        """The sketch family the index accepts, fixed at construction."""
        return self._randomness

    @property
    def grid(self) -> tuple[int, ...]:
        """level_grid(cfg.r1, randomness.d): the levels a set may be indexed at."""
        return self._grid

    @property
    def pair_cap(self) -> int:
        """The most pairs a bucket emits, fixed at construction."""
        return self._pair_cap

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, set_id: SetId) -> bool:
        return set_id in self._entries

    def insert(self, set_id: SetId, sketch: LevelSketch) -> None:
        """Index a sparse copy of the sketch under set_id, replacing any previous one."""
        if sketch.randomness is not self._randomness and sketch.randomness != self._randomness:
            raise ConfigMismatchError("sketch randomness does not match the index")
        flat = sketch.buckets.reshape(-1)
        nonzero = (flat != 0).nonzero()[0]  # one scan: a valid block of one set, posted unchecked
        own = nonzero.searchsorted(self._row_starts)  # a lone set's positions are its own search keys
        self._post((set_id,), nonzero, flat.take(nonzero), (sketch.cardinality,), [own.tolist()], [own])

    def insert_many(self, ids: Sequence[SetId], items: np.ndarray, sizes: Sequence[int]) -> None:
        """Index a block of sets by their net items, replacing any previous entries.

        Set ids[i] is the next sizes[i] items, back to back after set i - 1's,
        and its entry is what insert stores for the sketch update_many(items)
        builds from them.  The items are checked as update_many checks them:
        a non-integer dtype raises TypeError and an item outside [0, d)
        ItemRangeError; sizes that do not match the ids, are negative or do
        not sum to items.size raise ValueError.  A refused block changes
        nothing.  Each item is hashed once to its flat cell (cells_of), and
        one sort of set * width + cell, run-length counted, gives every
        set's sorted nonzero flat positions and their counters.  One
        searchsorted finds every set's row cuts, and one
        SketchRandomness.minhash_rows call min-hashes every admissible
        nonempty row of the block.  Each entry stores its own copies, so
        remove() frees them.
        """
        items = np.ravel(items)
        if items.dtype.kind not in "iu":
            raise TypeError(f"items must have an integer dtype, got {items.dtype}")
        n = len(ids)
        if len(sizes) != n or min(sizes, default=0) < 0 or sum(sizes) != items.size:
            raise ValueError(
                f"a block of {n} ids needs as many non-negative sizes, summing to its {items.size} items"
            )
        keys = items.view(np.uint64) if items.dtype in (np.int64, np.uint64) else items.astype(np.uint64)
        self.randomness.check_keys(keys)
        # set i's cells shifted by i * width: sorted, each set keeps its span
        width = int(self._row_starts[-1])
        rank = np.repeat(np.arange(n), sizes)
        cells = self.randomness.cells_of(keys)
        cells += rank * width
        cells.sort()
        first = np.flatnonzero(np.r_[bool(cells.size), cells[1:] != cells[:-1]])
        positions, values = cells[first], np.diff(first, append=cells.size)
        cuts = positions.searchsorted(np.add.outer(np.arange(n) * width, self._row_starts))
        positions -= rank[first] * width  # rank ascends, so sorting left each cell's rank in place
        self._post(ids, positions, values, sizes, cuts.tolist(), map(np.array, cuts - cuts[:, :1]))

    def _post(
        self,
        ids: Sequence[SetId],
        positions: np.ndarray,
        values: np.ndarray,
        cardinalities: Sequence[int],
        bounds: Sequence[list[int]],
        own: Iterable[np.ndarray],
    ) -> None:
        """insert_many on a valid block: each set's row cuts into it (bounds) and its own (own)."""
        cfg, grid, l, r = self.cfg, self.grid, self.cfg.repetitions_l, self.cfg.bands_r
        # per set its levels; per admissible nonempty row its level, start and
        # offset in flat; where each nonempty set starts
        posted, levels, starts, offsets, nonempty = [], [], [], [0], []
        for cut, cardinality in zip(bounds, cardinalities):
            # an empty row posts nothing: every min-hash would be the sentinel
            ks = tuple(k for k in candidate_levels(cardinality, cfg, grid) if cut[k] < cut[k + 1])
            posted.append(ks)
            levels += ks
            for k in ks:
                starts.append(cut[k])
                offsets.append(offsets[-1] + cut[k + 1] - cut[k])
            if cut[0] < cut[-1]:
                nonempty.append(cut[0])
        first = starts[0] if starts else 0
        if not starts or starts[-1] - first == offsets[-2]:  # the rows lie back to back
            flat = positions[first : first + offsets[-1]]
        else:  # other rows' entries lie between them
            skip = np.repeat(np.subtract(starts, offsets[:-1]), np.diff(offsets))
            flat = positions[np.arange(offsets[-1]) + skip]
        sigs = self.randomness.minhash_rows(flat, offsets, levels, l, r).reshape(-1, r)
        peaks = iter(())  # max |value| per nonempty set, as Python ints: np.abs leaves -2**63 negative
        if nonempty:
            top, bottom = np.maximum.reduceat(values, nonempty), np.minimum.reduceat(values, nonempty)
            peaks = map(max, top.tolist(), map(neg, bottom.tolist()))
        dtype = self._position_dtype
        if len(ids) == 1:  # a lone set's arrays need no slicing
            self._entries[ids[0]] = (
                positions.astype(dtype),
                values.astype(_narrowest_signed(next(peaks, 0))),
                next(iter(own)),
                cardinalities[0],
                posted[0],
                sigs.astype(dtype),
            )
            return
        at = 0
        for set_id, cut, row_cuts, cardinality, ks in zip(ids, bounds, own, cardinalities, posted):
            lo, hi, end = cut[0], cut[-1], at + len(ks) * l
            self._entries[set_id] = (
                positions[lo:hi].astype(dtype),
                values[lo:hi].astype(_narrowest_signed(next(peaks) if lo < hi else 0)),
                row_cuts,
                cardinality,
                ks,
                sigs[at:end].astype(dtype),
            )
            at = end

    def remove(self, set_id: SetId) -> None:
        """Drop set_id, as if it had never been inserted; KeyError if it is not indexed."""
        del self._entries[set_id]

    def candidates(self) -> list[CandidatePair]:
        """All distinct pairs sharing a signature in some table.

        Deterministic for a fixed master seed and content: tables are
        scanned in (level, repetition) order, buckets in signature order,
        a bucket's pairs in combinations order over its sorted ids, and
        each pair is reported once, tagged with its first colliding table.
        Buckets whose pair expansion exceeds pair_cap contribute only the
        first pair_cap pairs and raise a warning.  The pairs come from the
        one scan search() also takes them from (see _scan).  They are
        built with the cyclic garbage collector paused: they refer only to
        ids, ints and None, so they cannot form a cycle, and a collection
        during the burst could free nothing that reference counting does
        not.  The collector is left enabled or disabled as the caller had
        it, also when an exception escapes.
        """
        names, members, level, rep = self._scan()
        columns = (*names[members].tolist(), level.tolist(), rep.tolist(), repeat(None))
        # the pairs form no cycle, so the collector is paused while they are
        # allocated rather than scanning every tracked object in the process
        enabled = gc.isenabled()
        gc.disable()
        try:
            return list(map(tuple.__new__, repeat(CandidatePair), zip(*columns)))
        finally:
            if enabled:
                gc.enable()

    def _scan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """candidates() as arrays: ids by rank, each pair's two ranks, level and repetition.

        A rank is an id's place in sorted order, so names[rank] is the id,
        and a pair's ranks (first row, then second) are its canonical
        id_a < id_b.  Pairs are in candidates() order, and pair_cap warns
        as candidates() documents, at the caller of candidates() or
        search().  The scan is one sort of all record rows by (level,
        repetition, signatures, id rank), packed into as few non-negative
        int64 words as the columns' bit widths allow.  A full key is
        unique (one row per id and table), so one word needs no stable
        sort, and several are lexsorted.  All buckets then expand
        together, with no loop over bucket sizes: each row of a bucket (one
        id and the ids after it) emits the pairs the cap has left it, and
        two np.repeat calls place every pair.  A second such sort, of
        (pair, position) keys, finds each pair's first sighting.
        """
        ids = list(self._entries)
        by_rank = sorted(range(len(ids)), key=ids.__getitem__)
        names = np.fromiter(ids, object, len(ids))[by_rank]
        rank = np.argsort(by_rank)  # the inverse permutation: each id's rank
        records, l, cap = self._entries.values(), self.cfg.repetitions_l, self.pair_cap
        level = np.repeat(np.fromiter(chain.from_iterable(e[4] for e in records), np.int64), l)
        if not level.size:
            return names, np.empty((2, 0), np.int64), level, level
        rank = np.repeat(rank, [e[5].shape[0] for e in records])
        sigs = np.concatenate([e[5] for e in records])  # buckets, never negative
        rep = np.arange(level.size) % l  # a level's l rows: t = 0..l-1
        rank_bits = (len(ids) - 1).bit_length()
        columns = [(level, int(level.max())), (rep, l - 1), *((c, int(c.max())) for c in sigs.T)]
        words = _pack_words([(c, top.bit_length()) for c, top in columns] + [(rank, rank_bits)])
        order = _sorting_order(words)
        words, rank = [w[order] for w in words], rank[order]
        words[-1] >>= rank_bits  # what is left names the table and the signatures
        change = np.zeros(level.size - 1, bool)
        for w in words:
            change |= w[1:] != w[:-1]
        starts = np.flatnonzero(np.r_[True, change, True])
        sizes = np.diff(starts)
        starts, sizes = starts[:-1][sizes > 1], sizes[sizes > 1]
        totals = sizes * (sizes - 1) // 2
        over = np.flatnonzero(totals > cap)
        at = order[starts[over]]
        for lvl, t, total in zip(level[at].tolist(), rep[at].tolist(), totals[over].tolist()):
            message = f"bucket at level {lvl} repetition {t} expands to {total} pairs"
            warnings.warn(f"{message}; emitting the first {cap}", RuntimeWarning, stacklevel=3)
        # a bucket of k sorted ids has rows i = 0 .. k-2: row i pairs id i with
        # ids i+1 .. k-1, after i(2k-i-1)/2 pairs in earlier rows, and the cap
        # may end the bucket mid-row
        bucket = np.repeat(np.arange(sizes.size), sizes - 1)  # each row's bucket
        k, i = sizes[bucket], np.arange(bucket.size) - (np.cumsum(sizes - 1) - sizes + 1)[bucket]
        width = np.clip(np.minimum(totals, cap)[bucket] - i * (2 * k - i - 1) // 2, 0, k - 1 - i)
        head = starts[bucket] + i  # the row's first id, by sorted position
        row = np.repeat(np.arange(head.size), width)  # each pair's row, in scan order
        second = np.arange(row.size) + (head + 1 - np.cumsum(width) + width)[row]
        members, bucket = rank[np.stack((head[row], second))], bucket[row]  # now per pair
        # each pair at its first sighting, in scan order: sorted by (pair,
        # position), a pair's run starts at its first position
        code = members[0] * len(ids) + members[1]
        position = (np.arange(code.size), (code.size - 1).bit_length())
        kept = _sorting_order(_pack_words([(code, (len(ids) ** 2 - 1).bit_length()), position]))
        code = code[kept]
        new = np.ones(kept.size, bool)
        new[1:] = code[1:] != code[:-1]
        kept = np.sort(kept[new])
        seen_at = order[starts[bucket[kept]]]
        # take copies the 2-D column gather faster than members[:, kept] does
        return names, members.take(kept, axis=1), level[seen_at], rep[seen_at]

    def search(self, similarity: RationalSimilarity, threshold: float) -> tuple[list[CandidatePair], int]:
        """candidates() within threshold by estimated distance, and how many were scored.

        Each kept pair, in candidates() order, carries in verified_distance
        what DistanceEstimator(similarity, self.randomness) estimates for
        the two sketches as inserted, bit for bit; pair_cap warns as in
        candidates().  Before the scan, a threshold that is not >= 0 (NaN or
        negative; estimates never are) and non-metric weights raise
        ValueError, and a similarity over another universe raises
        ConfigMismatchError.  No candidate is built as an object: the
        scan's ranks are rows into the entries in id order, so they go
        straight to the batched pass (see _distances); only a kept pair
        becomes a CandidatePair.
        """
        if not threshold >= 0:
            raise ValueError(f"search threshold must be >= 0, got {threshold!r}")
        estimator = DistanceEstimator(similarity, self.randomness)
        estimator.require_metric()
        names, members, level, rep = self._scan()
        if not level.size:
            return [], 0
        entries = [self._entries[set_id] for set_id in names.tolist()]
        dist = self._distances(members[0], members[1], entries, estimator)
        keep = np.flatnonzero(dist <= threshold)
        columns = (*names[members.take(keep, axis=1)].tolist(), level[keep].tolist(), rep[keep].tolist())
        return list(map(CandidatePair, *columns, dist[keep].tolist())), level.size

    def _distances(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        entries: Sequence[tuple],
        estimator: DistanceEstimator,
    ) -> np.ndarray:
        """The pairs' distances, in input order: pair j is rows rows_a[j] and rows_b[j] of entries.

        A pair's estimate needs only the per-row nonzero counts of A + B
        and A - B and |A| + |B|, and by linearity those counts follow from
        the two sparse supports: a position in both supports drops out of
        A - B when the counters are equal and out of A + B when they are
        opposite.  These counts are symmetric in the two sets, so each
        pair is oriented to read back the set with fewer stored entries
        (side b) from the other's (side a); the pairs are sorted stably by
        side a and walked in chunks.  Per chunk each distinct side a's
        stored counters are scattered once into its own zeroed dense
        scratch row (one scratch per call, re-zeroed where written), read
        back at the stored positions of every pair's side b, and shared,
        equal and opposite positions are counted per pair and row.
        """
        n = rows_a.size
        position, value, cuts, card, *_ = zip(*entries)
        cuts = np.stack(cuts)
        nz, length, card = np.diff(cuts, axis=1), cuts[:, -1], np.array(card, np.int64)
        levels, bits = self.randomness.num_levels, self.randomness.bucket_bits
        width = levels * self.randomness.c_squared
        swap = length[rows_a] < length[rows_b]  # side b, read back, has fewer entries
        rows_a, rows_b = np.where(swap, rows_b, rows_a), np.where(swap, rows_a, rows_b)
        order = np.argsort(rows_a, kind="stable")
        rows_a, rows_b = rows_a[order], rows_b[order]
        first = np.r_[True, rows_a[1:] != rows_a[:-1]]
        distinct, slot = rows_a[first], np.cumsum(first) - 1  # slot: the pair's a in distinct
        # a chunk holds at most most_a distinct a, one scratch row each; a pair
        # spends side b's entries plus 16 per count cell against budget
        most_a, budget = max(1, _VERIFY_CHUNK_CELLS // width), _VERIFY_CHUNK_CELLS // 16
        spent = np.r_[0, np.cumsum(length[rows_b] + 16 * levels)]
        dtype = np.result_type(*{v.dtype for v in value})
        scratch = np.zeros(min(most_a, distinct.size) * width, dtype)
        dist = np.empty(n)
        start = 0
        while start < n:
            stop = min(
                slot.searchsorted(slot[start] + most_a),
                spent.searchsorted(spent[start] + budget, "right") - 1,
            )
            stop = max(stop, start + 1)
            chunk = slice(start, stop)
            a, b = rows_a[chunk], rows_b[chunk]
            own = distinct[slot[start] : slot[stop - 1] + 1].tolist()
            key_a = np.repeat(np.arange(len(own)) * width, length[own])
            key_a += np.concatenate([position[r] for r in own])
            scratch[key_a] = np.concatenate([value[r] for r in own])
            b_list, length_b = b.tolist(), length[b]
            position_b = np.concatenate([position[r] for r in b_list])
            key_b = np.repeat((slot[chunk] - slot[start]) * width, length_b)
            key_b += position_b
            # stored counters are never zero: a nonzero read-back is a shared position
            value_a = scratch[key_b]
            scratch[key_a] = 0  # zeroed again for the next chunk
            shared = np.flatnonzero(value_a != 0)  # a bool scan is faster than an int one
            value_a, value_b = value_a[shared], np.concatenate([value[r] for r in b_list])[shared]
            pair = np.repeat(np.arange(a.size), length_b)[shared]  # each shared entry's pair
            cells = pair * levels + (position_b[shared] >> bits)
            size = a.size * levels
            common = np.bincount(cells, minlength=size)
            equal = np.bincount(cells[value_a == value_b], minlength=size)
            opposite = np.bincount(cells[value_a == -value_b], minlength=size)
            both = nz[a] + nz[b] - common.reshape(-1, levels)
            dist[order[chunk]] = estimator.distances_from_counts(
                both - equal.reshape(-1, levels),
                both - opposite.reshape(-1, levels),
                card[a] + card[b],
            )
            start = stop
        return dist


def _pack_words(columns: Sequence[tuple[np.ndarray, int]]) -> list[np.ndarray]:
    """Non-negative (column, bit width) pairs packed into int64 words, most significant first.

    A word takes columns in order while their widths sum to at most 63
    bits, the first column in its high bits; lexicographic order on the
    words is then lexicographic order on the columns.
    """
    words: list[np.ndarray] = []
    used = 64  # no word is open yet
    for column, width in columns:
        if used + width > 63:
            words.append(np.zeros(column.size, np.int64))
            used = 0
        words[-1] <<= width
        words[-1] |= column
        used += width
    return words


def _sorting_order(words: Sequence[np.ndarray]) -> np.ndarray:
    """The permutation that sorts rows by their packed words; rows must be distinct.

    Distinct rows leave one sorted order, so one word needs no stable sort.
    """
    return np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])

