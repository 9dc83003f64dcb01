"""Linear level sketches over dynamic item streams.

A sketch is an exact cardinality counter s plus a (num_levels x c_squared)
matrix B of signed counters, stored in the narrowest of int16, int32 and
int64 that holds a running bound on max |B|.  An update (i, v)
adds v to B[k, h_k(i)] where k = lsb(h(i)), so every item lands in exactly
one level row and deeper rows keep geometrically fewer items: row k holds
an item with probability 2^-(k+1), and the tail of rows >= k holds it with
probability exactly 2^-k.  Updates commute, so insert/delete streams in
any order produce the sketch of the net set, and two sketches built with
the same SketchRandomness merge by entrywise addition or subtraction.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Iterable

import numpy as np

from .errors import ConfigMismatchError, CounterOverflowError
from .hashing import SketchRandomness, _count_nonzero, _frozen_scalar, deepest_level
from .similarity import RationalSimilarity, _similarity_from_counts

# the signed dtypes _narrowest_signed chooses from, narrowest first, to their largest values
_SIGNED = {np.dtype(t): int(np.iinfo(t).max) for t in (np.int8, np.int16, np.int32, np.int64)}
_INT64 = np.dtype(np.int64)
# counter storage starts at int16: an int8 bound would run out every 127 updates
_COUNTER_FLOOR = np.dtype(np.int16)

# the only update values, as 0-d operands of update_many's value check
_ONE = _frozen_scalar(1, np.int64)
_MINUS_ONE = _frozen_scalar(-1, np.int64)

# update_many applies its queue once this many items would be pending:
# large enough that one pass pays the hashing's fixed cost for many small
# batches, small enough that a sketch's queue buffers take 9 KiB
_QUEUE_CAP = 1024

_WIRE_VERSION = 2
_HEADER = struct.Struct("<BQQQqQ")  # version, d, c_squared, num_levels, s, master_seed


class LevelSketch:
    """One set's sketch: cardinality counter plus level/bucket counter matrix.

    Instances are cheap to copy and merge; mutation happens only through
    update/update_many.  LshIndex.insert takes a sparse copy, so a sketch
    changed after insert must be re-inserted to update the index.  A
    sketch is bound to the SketchRandomness it was built with, and only
    sketches sharing equal randomness may be compared or merged.

    update_many checks a batch at once but may queue it: small batches
    wait until _QUEUE_CAP items would be pending, then all of them are
    hashed and added in one pass.  Updates commute, so the grouping never
    shows in the counters.  Every read of the counters (buckets, copy, ==,
    and through buckets merge, serialization, distances and
    LshIndex.insert) applies the queue first, so a read can write: a
    sketch is not safe for concurrent use, reads included, while updates
    are queued.

    Counters are int16 until widened to int32, then int64, never back.
    _bound is a Python int at least max |counter| over applied and queued
    updates: each accepted +/-1 update adds one to it, merge sets it to
    the sum of its inputs' peaks, and sketch_from_bytes to the exact peak.
    _add re-tightens it and widens the tier when it applies the queue, so
    a counter never overflows and never reaches its dtype's minimum, and
    scans come at least 4,095 updates apart.
    Sketches of any dtype compare, merge and serialize alike.
    """

    __slots__ = (
        "randomness", "_buckets", "_cardinality", "_bound",
        "_queued_keys", "_queued_values", "_queued",
    )

    def __init__(self, randomness: SketchRandomness) -> None:
        self.randomness = randomness
        self._buckets = np.zeros((randomness.num_levels, randomness.c_squared), _counter_dtype(0))
        self._cardinality = 0
        self._bound = 0
        # the first _queued entries of two buffers allocated on first use
        self._queued_keys: np.ndarray | None = None
        self._queued_values: np.ndarray | None = None
        self._queued = 0

    @classmethod
    def _of(
        cls, randomness: SketchRandomness, buckets: np.ndarray, cardinality: int, bound: int
    ) -> "LevelSketch":
        """A sketch with these counters, cardinality and bound, and nothing queued."""
        out = cls.__new__(cls)
        out.randomness, out._buckets, out._cardinality, out._bound = randomness, buckets, cardinality, bound
        out._queued_keys = out._queued_values = None
        out._queued = 0
        return out

    @property
    def buckets(self) -> np.ndarray:
        """The live counter matrix, queued updates applied; treat as read-only."""
        if self._queued:
            end, self._queued = self._queued, 0
            self._add(self._queued_keys[:end], self._queued_values[:end])
        return self._buckets

    @property
    def cardinality(self) -> int:
        """Net number of insertions minus deletions."""
        return self._cardinality

    @property
    def d(self) -> int:
        return self.randomness.d

    @property
    def c_squared(self) -> int:
        return self.randomness.c_squared

    def copy(self) -> "LevelSketch":
        return LevelSketch._of(self.randomness, self.buckets.copy(), self._cardinality, self._bound)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LevelSketch):
            return NotImplemented
        return (
            self.randomness == other.randomness
            and self._cardinality == other._cardinality
            and np.array_equal(self.buckets, other.buckets)
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("LevelSketch is mutable and unhashable")

    def update(self, item: int, value: int) -> None:
        """Apply one signed update, +1 inserts and -1 deletes; a one-item update_many."""
        if not isinstance(item, (int, np.integer)) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"item and value must be integers, got {item!r} and {value!r}")
        self.update_many([item], value)

    def update_many(self, items: Iterable[int], values: int | np.ndarray = 1) -> None:
        """Check a batch of signed updates now; queue it, or apply it with the queue.

        values is a scalar +1/-1 applied to every item, or an array of
        +1/-1 broadcastable to items.  Non-integer dtypes raise TypeError,
        items outside [0, d) ItemRangeError and other values ValueError; a
        rejected batch leaves the sketch and its queue untouched.  An
        accepted batch counts in cardinality at once.  Its items are cast
        to uint64 keys into their slot past the waiting ones, their only
        copy, and checked there: in the queue if fewer than _QUEUE_CAP
        items would then wait, else in a fresh buffer behind the waiting
        items, all of which _add then applies.  The batch adds its size to
        the bound and no more: the tier is decided when the queue is
        applied.  The queue grows only once every check has passed, and
        fewer than _QUEUE_CAP items ever wait.
        """
        arr = np.asarray(items)
        if arr.size == 0:
            return
        vals = np.asarray(values)
        if arr.dtype.kind not in "iu" or vals.dtype.kind not in "iu":
            raise TypeError(
                f"items and values must have an integer dtype, got {arr.dtype} and {vals.dtype}"
            )
        n = arr.size
        start, end = self._queued, self._queued + n
        waits = end < _QUEUE_CAP
        if waits:
            if self._queued_keys is None:
                self._queued_keys = np.empty(_QUEUE_CAP, np.uint64)
                self._queued_values = np.empty(_QUEUE_CAP, np.int8)
            keys, signs = self._queued_keys, self._queued_values
        else:
            keys, signs = np.empty(end, np.uint64), np.empty(end, np.int8)
            if start:
                keys[:start], signs[:start] = self._queued_keys[:start], self._queued_values[:start]
        # a copy, as the caller may change its arrays after the call; 1-D input,
        # strided or not, is copied as it is, with no ravel call (that copies a strided view)
        batch = keys[start:end]
        batch[...] = arr if arr.ndim == 1 else arr.ravel()
        self.randomness.check_keys(batch)
        if vals.shape != arr.shape:
            vals = np.broadcast_to(vals, arr.shape)
        plus, minus = _count_nonzero(vals == _ONE), _count_nonzero(vals == _MINUS_ONE)
        if plus + minus != n:
            raise ValueError("update values must be +1 or -1")
        signs[start:end] = vals if vals.ndim == 1 else vals.ravel()
        self._cardinality += int(plus - minus)  # the counts are numpy integers, not Python ints
        self._bound += n
        if waits:
            self._queued = end
        else:
            self._queued = 0
            self._add(keys, signs)

    def _add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Add each +/-1 value to its key's counter; the only writer of counters.

        A bound past the dtype's maximum (int64 aside) is re-tightened by
        one scan to the applied peak plus len(keys), and the matrix widens
        a tier or more unless an eighth of the range is left.
        """
        counters = self._buckets
        top = _SIGNED[counters.dtype]
        if self._bound > top and counters.dtype != _INT64:
            self._bound = need = _peak(counters) + keys.size
            if need > top - (top >> 3):
                counters = self._buckets = counters.astype(_counter_dtype(max(need, top + 1)))
        flat = self.randomness.cells_of(keys)
        np.add.at(counters.reshape(-1), flat, values.astype(counters.dtype, copy=False))


def merge(a: LevelSketch, b: LevelSketch, sign: int = 1) -> LevelSketch:
    """Entrywise a + sign*b; sign -1 yields the difference sketch.

    Both sketches must share equal SketchRandomness (hence d and
    c_squared).  The result is a fresh sketch; inputs are untouched, and
    its counters take _counter_dtype's tier for their peaks' sum, so a sum
    of 2^62 or more raises CounterOverflowError.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if a.randomness != b.randomness:
        raise ConfigMismatchError("cannot merge sketches built with different randomness")
    peak = _peak(a.buckets) + _peak(b.buckets)
    op = np.add if sign == 1 else np.subtract
    counters = op(a.buckets, b.buckets, dtype=_counter_dtype(peak))
    return LevelSketch._of(a.randomness, counters, a.cardinality + sign * b.cardinality, peak)


def _counter_dtype(bound: int) -> np.dtype:
    """The counter tier for a bound on max |counter|: the narrowest of int16, int32 and int64.

    From 2^62 up raises CounterOverflowError: no real stream's counts come
    near it, and below it a sum or difference of two sketches' counters fits.
    """
    if bound >= 1 << 62:
        raise CounterOverflowError(f"counter bound {bound} reaches the 2^62 overflow guard")
    return _narrowest_signed(bound, _COUNTER_FLOOR)


def _peak(counters: np.ndarray) -> int:
    """max |counter| as a Python int; np.abs would leave -2**63 negative."""
    return max(int(counters.max(initial=0)), -int(counters.min(initial=0)))


def _narrowest_signed(bound: int, floor: np.dtype = np.dtype(np.int8)) -> np.dtype:
    """The smallest signed dtype, floor or wider, holding -bound .. bound (else int64)."""
    bound = max(bound, _SIGNED[floor])
    return next((t for t, top in _SIGNED.items() if top >= bound), _INT64)


def similarity_from_level(
    a: LevelSketch, b: LevelSketch, level: int, params: RationalSimilarity
) -> float:
    """Similarity of the nonzero bucket patterns over the tail of rows >= level, compared jointly.

    The tail retains each item with probability exactly 2^-level, so the
    universe substitute is d * 2^-level; level 0 therefore compares the
    complete (collision-compressed) sets with no subsampling at all.
    Result is always in [0, 1].
    """
    if a.randomness != b.randomness:
        raise ConfigMismatchError("sketches must share randomness")
    if not (0 <= level < a.randomness.num_levels):
        raise ValueError(f"level {level} outside [0, {a.randomness.num_levels})")
    na = a.buckets[level:] != 0
    nb = b.buckets[level:] != 0
    inter = int(np.count_nonzero(na & nb))
    sym = int(np.count_nonzero(na ^ nb))
    universe = a.randomness.d * 2.0 ** -level
    return _similarity_from_counts(params, inter, sym, max(universe - inter - sym, 0.0))


# Jaccard, Hamming, Anderberg and Rogers-Tanimoto: weights (x, y, z, z')
# up to scale, whether the budget scales d instead of size_hint, divisor
_LEVEL_RULES: tuple[tuple[tuple[float, float, float, float], bool, float], ...] = (
    ((1.0, 0.0, 0.0, 1.0), False, 1.0),
    ((1.0, 1.0, 0.0, 1.0), True, 2.0),
    ((1.0, 0.0, 0.0, 2.0), False, 3.0),
    ((1.0, 1.0, 0.0, 2.0), True, 3.0),
)


def _matches_scaled(params: RationalSimilarity, ref: tuple[float, float, float, float]) -> bool:
    ours = (params.x, params.y, params.z, params.z_prime)
    hi = max(ours)
    if hi == 0.0:
        return False
    scale = hi / max(ref)
    return all(math.isclose(o, scale * r, rel_tol=1e-9, abs_tol=1e-12) for o, r in zip(ours, ref))


def sample_level(
    params: RationalSimilarity,
    epsilon: float,
    delta: float,
    r: float,
    size_hint: int,
) -> int:
    """Deepest level whose sample still concentrates to a (1 +/- epsilon) estimate.

    Returns floor(log2(arg)) clamped to [0, ceil(log2 d)], where arg is the
    similarity-specific budget: eps^2*delta*r*|A| for Jaccard,
    eps^2*delta*r*d/2 for Hamming, the same over 3 for Anderberg and
    Rogers-Tanimoto respectively.  size_hint supplies |A| for the
    cardinality-driven rules; parameterizations outside the four named
    families fall back to the conservative general bound
    (eps/5)^2*delta*r*size_hint / max(x+y, z'+y, z+y) with size_hint read
    as a stand-in for the pair's denominator.

    The returned value counts levels in units of halvings of the universe:
    it is a tail level for similarity_from_level, whose rows >= k retain
    each item with probability exactly 2^-k.
    """
    for name, v in (("epsilon", epsilon), ("delta", delta), ("r", r)):
        if not (0.0 < v < 1.0):
            raise ValueError(f"{name} must lie in (0, 1), got {v!r}")
    if size_hint < 1:
        raise ValueError(f"size_hint must be positive, got {size_hint!r}")
    budget = epsilon * epsilon * delta * r
    for weights, reads_d, divisor in _LEVEL_RULES:
        if _matches_scaled(params, weights):
            arg = budget * (params.d if reads_d else size_hint) / divisor
            break
    else:
        top = max(params.x + params.y, params.z_prime + params.y, params.z + params.y)
        if top == 0.0:
            raise ValueError("all-zero similarity weights admit no sampling level")
        arg = (epsilon / 5.0) ** 2 * delta * r * size_hint / top
    if arg < 1.0:
        return 0
    return min(int(math.floor(math.log2(arg))), deepest_level(params.d))


def l0_estimate(sketch: LevelSketch) -> float:
    """Estimate the number of items with nonzero net count.

    Scans for the shallowest level k whose tail rows all have at most
    c^2/2 nonzero buckets, inverts the balls-in-bins occupancy of each tail
    row via ln(1 - nz/c^2) / ln(1 - 1/c^2), sums the corrected counts, and
    scales by 2^k (the tail retention probability is exactly 2^-k).
    Returns 0.0 for the all-zero sketch.  On difference sketches opposite
    counts may cancel inside one bucket; that residual bias shrinks with
    c^2 and is accepted.  Reads one sketch, so it takes _l0_from_counts.
    """
    return _l0_from_counts(np.count_nonzero(sketch.buckets, axis=1).tolist(), sketch.c_squared)


def _l0_from_counts(counts: list[int], c_squared: int) -> float:
    """l0_estimate of one sketch from its per-row nonzero counts as Python ints.

    The readout of a live query's few rows: a Python scan picks the level
    and numpy's 1-D sum adds the tail's terms, so the bits equal that
    sketch's row of l0_from_row_counts without its fixed cost.
    """
    if not any(counts):
        return 0.0
    half, k = c_squared // 2, len(counts) - 1
    while k >= 0 and counts[k] <= half:
        k -= 1  # k ends at the deepest row over c^2 / 2, or -1
    level = min(k + 1, len(counts) - 1)
    tail = _occupancy_terms(c_squared)[counts[level:]].sum()
    return math.ldexp(float(tail) / math.log1p(-1.0 / c_squared), level)


def l0_from_row_counts(nz: np.ndarray, c_squared: int) -> np.ndarray:
    """l0_estimate of many sketches at once, from their per-row nonzero counts.

    The readout of LshIndex.search's chunks of pairs, through
    distances_from_counts.  nz is an (n, num_levels) integer array, one
    sketch per row; returns n float64 estimates.  Sketches are grouped by
    their chosen level k, so each tail sum is a reduction over contiguous
    rows of one length and every estimate carries the same float
    operations, in the same order, as it would alone; the exact
    power-of-two scaling by 2^k is one ldexp after the groups.
    """
    nz = np.asarray(nz, dtype=np.int64)
    suffix_max = np.maximum.accumulate(nz[:, ::-1], axis=1)[:, ::-1]
    eligible = suffix_max <= c_squared // 2  # once true, true for every deeper level
    # the first eligible level; when every tail saturates, the deepest row
    level = np.where(eligible[:, -1], eligible.argmax(axis=1), nz.shape[1] - 1)
    terms = _occupancy_terms(c_squared)[nz]
    sums = np.empty(nz.shape[0])
    for k in set(level.tolist()):
        sel = level == k
        sums[sel] = terms[sel, k:].sum(axis=1)
    out = np.ldexp(sums / math.log1p(-1.0 / c_squared), level)
    out[suffix_max[:, 0] == 0] = 0.0  # the all-zero sketch estimates exactly 0.0
    return out


@functools.cache
def _occupancy_terms(c_squared: int) -> np.ndarray:
    """Read-only occupancy inversion terms log1p(-min(k, c^2 - 1) / c^2) for k = 0..c^2.

    A row's term depends only on its nonzero count k; capping k below c^2
    keeps the log argument positive.
    """
    k = np.arange(c_squared + 1)
    terms = np.log1p(-np.minimum(k, c_squared - 1) / c_squared)
    terms.flags.writeable = False
    return terms


def sketch_to_bytes(sketch: LevelSketch) -> bytes:
    """Serialize to the length-prefixed wire layout.

    Layout (version 2), little-endian: u64 payload length, then the payload
    of u8 version, u64 d, u64 c_squared, u64 num_levels, i64 cardinality,
    u64 master_seed, followed by num_levels * c_squared row-major i64
    counters, whatever the sketch's storage dtype.
    """
    rnd = sketch.randomness
    payload = _HEADER.pack(
        _WIRE_VERSION, rnd.d, rnd.c_squared, rnd.num_levels, sketch.cardinality, rnd.master_seed
    ) + np.ascontiguousarray(sketch.buckets, dtype="<i8").tobytes()
    return struct.pack("<Q", len(payload)) + payload


def sketch_from_bytes(data: bytes, randomness: SketchRandomness) -> LevelSketch:
    """Inverse of sketch_to_bytes; validates the header against randomness.

    Only version 2 is read.  A sketch whose shape or master_seed differs
    from randomness raises ConfigMismatchError: its counters hash items
    differently, so any comparison with it would be meaningless.  The
    counters load in _counter_dtype's tier for their peak, so a counter of
    2^62 or more in absolute value, -2^63 included, raises
    CounterOverflowError.
    """
    if len(data) < 8:
        raise ValueError("truncated sketch: missing length prefix")
    (length,) = struct.unpack_from("<Q", data, 0)
    payload = data[8 : 8 + length]
    if len(payload) != length:
        raise ValueError("truncated sketch: payload shorter than prefix")
    if len(data) != 8 + length:
        raise ValueError(f"{len(data) - 8 - length} bytes after the declared payload")
    if length < _HEADER.size:
        raise ValueError("truncated sketch: payload shorter than header")
    version, d, c2, num_levels, cardinality, seed = _HEADER.unpack_from(payload, 0)
    if version != _WIRE_VERSION:
        raise ValueError(f"unsupported sketch version {version}")
    if (d, c2, num_levels) != (randomness.d, randomness.c_squared, randomness.num_levels):
        raise ConfigMismatchError(
            "serialized sketch shape does not match the supplied randomness"
        )
    if seed != randomness.master_seed:
        raise ConfigMismatchError(
            f"serialized sketch has master_seed {seed}, expected {randomness.master_seed}"
        )
    body = payload[_HEADER.size :]
    expected = num_levels * c2 * 8
    if len(body) != expected:
        raise ValueError(f"counter block is {len(body)} bytes, expected {expected}")
    counters = np.frombuffer(body, dtype="<i8").reshape(num_levels, c2)
    peak = _peak(counters)
    return LevelSketch._of(randomness, counters.astype(_counter_dtype(peak)), int(cardinality), peak)
