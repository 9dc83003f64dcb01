"""Multiply-shift hashing, level assignment, and min-wise signatures.

Every random choice in a sketch family is derived from one 64-bit master
seed through numpy SeedSequence spawn keys, so identical seeds reproduce
identical sketches bit for bit across runs and processes.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ItemRangeError

WORD_BITS = 64
_MASK64 = (1 << 64) - 1

# spawn-key tags for the seed derivation tree
_TAG_LEVEL = 0
_TAG_BUCKET = 1
_TAG_MINHASH = 2


def _frozen_scalar(value: int, dtype: type = np.uint64) -> np.ndarray:
    """value as a read-only 0-d array of dtype, for use as a ufunc operand.

    On small arrays a ufunc's fixed cost dominates, and a 0-d array operand
    skips the scalar conversion an np.uint64 or a Python int pays on every
    call.
    """
    out = np.array(value, dtype=dtype)
    out.flags.writeable = False
    return out


# np.count_nonzero under numpy's __array_function__ dispatcher, which costs about
# as much again as the count of 64 elements; inspect.unwrap follows the
# __wrapped__ attribute the dispatcher sets, and returns the public function
# itself where there is none
_count_nonzero = inspect.unwrap(np.count_nonzero)

# the splitmix64 finalizer's shifts and multipliers, as _mix64_inplace applies them
_MIX_SHIFTS = tuple(_frozen_scalar(k) for k in (30, 27, 31))
_MIX_MULTS = tuple(_frozen_scalar(k) for k in (0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
# a power of two's float64 bit pattern: its biased exponent sits above 52 bits
_EXPONENT_SHIFT = _frozen_scalar(52, np.int64)
_EXPONENT_BIAS = _frozen_scalar(1023, np.int64)

# the largest universe: items are int64, and 2^max_level must fit in uint64
MAX_UNIVERSE = 1 << 63


@dataclass(frozen=True)
class HashSpec:
    """One multiply-shift function: key -> ((a*key + b) mod 2^64) >> (64 - output_bits).

    The multiplier a must be odd; output_bits selects how many of the
    well-mixed high bits survive, so the output range is [0, 2^output_bits).
    """

    a: int
    b: int
    output_bits: int

    def __post_init__(self) -> None:
        if not (0 < self.a <= _MASK64) or self.a % 2 == 0:
            raise ValueError(f"multiplier a must be odd and fit in 64 bits, got {self.a!r}")
        if not (0 <= self.b <= _MASK64):
            raise ValueError(f"offset b must fit in 64 bits, got {self.b!r}")
        if not (1 <= self.output_bits <= WORD_BITS):
            raise ValueError(f"output_bits must lie in [1, {WORD_BITS}], got {self.output_bits!r}")


def _affine(keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * keys + b modulo 2^64 as a new uint64 array; a, b are 0-d or per-key uint64 arrays."""
    out = np.asarray(keys, dtype=np.uint64) * a
    out += b
    return out


def _mix64_inplace(z: np.ndarray, top_bits: int = WORD_BITS) -> np.ndarray:
    """The splitmix64 finalizer in place on a uint64 array the caller owns; returns it.

    A bijection, so it keeps the collision law of the hash before it while
    hiding input structure such as a stride.  Only the top top_bits bits
    are promised: the last step, z ^= z >> 31, changes bits 0..32 alone,
    so it is skipped when top_bits <= 31.
    """
    z ^= z >> _MIX_SHIFTS[0]
    z *= _MIX_MULTS[0]
    z ^= z >> _MIX_SHIFTS[1]
    z *= _MIX_MULTS[1]
    if top_bits > 31:
        z ^= z >> _MIX_SHIFTS[2]
    return z


def random_hash_spec(rng: np.random.Generator, output_bits: int) -> HashSpec:
    """Draw a fresh spec; the multiplier is forced odd."""
    a = int.from_bytes(rng.bytes(8), "little") | 1
    b = int.from_bytes(rng.bytes(8), "little")
    return HashSpec(a, b, output_bits)


def deepest_level(d: int) -> int:
    """Deepest sketch level over universe [0, d): ceil(log2 d), 0 when d == 1.

    Integer arithmetic keeps it exact at every d; the float log2 rounds
    2^k + 1 down to k for k >= 49.
    """
    return (d - 1).bit_length()


def _spec_arrays(specs: Sequence[HashSpec]) -> tuple[np.ndarray, np.ndarray]:
    """The specs' multipliers a and offsets b as read-only uint64 arrays."""
    a, b = (np.array([getattr(s, f) for s in specs], dtype=np.uint64) for f in "ab")
    a.flags.writeable = b.flags.writeable = False
    return a, b


def derived_rng(master_seed: int, *spawn_key: int) -> np.random.Generator:
    """The generator at spawn_key under master_seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=spawn_key))


def derived_seed(master_seed: int, *spawn_key: int) -> int:
    """A 64-bit master seed for a child family, at spawn_key under master_seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=spawn_key)
    return int(seq.generate_state(1, np.uint64)[0])


class SketchRandomness:
    """All hash functions for one sketch family over universe [0, d).

    Holds the level-assignment function h : [d] -> [2^ceil(log2 d)], one
    bucket function per level h_k : [d] -> [c^2], and the min-hash seed of
    each (level, repetition, band) triple, derived when asked for.  Per
    (repetitions, bands) shape it keeps one packed rank table for
    minhash_rows, filled a level at a time on first use.  Instances hash
    identically after construction (their hash arrays and tables are
    read-only, and a table level is marked filled only once it is written
    in full) and are safe to share across threads; two instances compare
    equal iff they were built from the same (d, c_squared, master_seed) and
    therefore hash identically.
    """

    __slots__ = (
        "d",
        "c_squared",
        "master_seed",
        "_item_bound",
        "max_level",
        "num_levels",
        "bucket_bits",
        "level_spec",
        "bucket_specs",
        "_level_a",
        "_level_b",
        "_clamp_bit",
        "_bucket_a",
        "_bucket_b",
        "_bucket_shift",
        "_row_width",
        "_minhash_tables",
    )

    def __init__(self, d: int, c_squared: int, master_seed: int) -> None:
        if not isinstance(d, int) or not 1 <= d <= MAX_UNIVERSE:
            raise ValueError(f"universe size d must be an integer in [1, 2^63], got {d!r}")
        if not isinstance(c_squared, int) or c_squared < 2 or c_squared & (c_squared - 1):
            raise ValueError(f"c_squared must be a power of two >= 2, got {c_squared!r}")
        if not (0 <= master_seed <= _MASK64):
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}")
        self.d = d
        self.c_squared = c_squared
        self.master_seed = master_seed
        self._item_bound = _frozen_scalar(d)  # uint64 against uint64 keys: exact on numpy 1.x too
        self.max_level = deepest_level(d)
        self.num_levels = self.max_level + 1
        self.bucket_bits = c_squared.bit_length() - 1
        rng = derived_rng(master_seed, _TAG_LEVEL)
        # The level function keeps the full product width: for odd a the
        # map key -> (a*key + b) mod 2^j is a bijection on the low j bits,
        # so lsb(hash) is exactly geometric for keys uniform over a
        # power-of-two range.  Taking only the top bits instead leaves the
        # output's low bits poorly mixed whenever a has many leading
        # zeros, which hollows out entire levels.
        self.level_spec = random_hash_spec(rng, WORD_BITS)
        self._level_a = _frozen_scalar(self.level_spec.a)
        self._level_b = _frozen_scalar(self.level_spec.b)
        self._clamp_bit = _frozen_scalar(1 << self.max_level)
        rng = derived_rng(master_seed, _TAG_BUCKET)
        self.bucket_specs = tuple(
            random_hash_spec(rng, self.bucket_bits) for _ in range(self.num_levels)
        )
        self._bucket_a, self._bucket_b = _spec_arrays(self.bucket_specs)
        self._bucket_shift = _frozen_scalar(WORD_BITS - self.bucket_bits)
        self._row_width = _frozen_scalar(c_squared, np.int64)  # cells_of's flat offset per level
        # per (repetitions, bands): the writable table, its read-only view, the
        # filled levels, the bucket mask and the signed dtype of the results
        self._minhash_tables: dict[tuple[int, int], tuple] = {}

    def __repr__(self) -> str:
        return (
            f"SketchRandomness(d={self.d}, c_squared={self.c_squared}, "
            f"master_seed={self.master_seed})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SketchRandomness):
            return NotImplemented
        return (
            self.d == other.d
            and self.c_squared == other.c_squared
            and self.master_seed == other.master_seed
        )

    def __hash__(self) -> int:
        return hash((self.d, self.c_squared, self.master_seed))

    def check_keys(self, keys: np.ndarray) -> None:
        """ItemRangeError unless every key, an integer item cast to uint64, lies in [0, d).

        A negative item wraps to at least 2^63 >= d, so one comparison
        checks both ends.
        """
        if _count_nonzero(keys >= self._item_bound):
            raise ItemRangeError(f"items outside universe [0, {self.d})")

    def levels_of(self, items: np.ndarray) -> np.ndarray:
        """Level index per item as int64: lsb of the level hash, clamped to max_level.

        Only the low max_level bits ever decide an unclamped level, so the
        split across levels 0..max_level-1 is exactly 1/2, 1/4, ... for
        keys uniform over a power-of-two universe, with the remaining
        2^-max_level mass (a zero hash included) clamped onto the deepest
        level.  Keys whose ids share a common power-of-two stride collapse
        onto few levels; scramble such ids before sketching.

        The clamp is one bit: lsb(h | 2^max_level) = min(lsb(h), max_level),
        and the or-ed hash is never 0.  h & -h then isolates a power of two
        that float64 holds exactly, whose biased exponent is 1023 + lsb.
        """
        h = _affine(items, self._level_a, self._level_b)
        h |= self._clamp_bit
        h &= np.negative(h)  # two's complement keeps only the lowest set bit
        levels = h.astype(np.float64).view(np.int64)
        levels >>= _EXPONENT_SHIFT
        levels -= _EXPONENT_BIAS
        return levels

    def buckets_of(self, levels: int | np.ndarray, items: np.ndarray) -> np.ndarray:
        """Bucket index per item in its row, as uint64; levels is one level or one per item.

        Items reaching a level agree on the low bits of the level hash,
        which makes them an arithmetic progression with power-of-two
        stride; the bucket hash therefore mixes its affine product before
        taking the high bits, otherwise resonant multipliers would crowd
        whole rows into a few buckets.  The product is mixed and shifted
        in place, so the result is the only item-sized array kept.
        """
        z = _affine(items, self._bucket_a[levels], self._bucket_b[levels])
        z = _mix64_inplace(z, self.bucket_bits)
        z >>= self._bucket_shift
        return z

    def cells_of(self, keys: np.ndarray) -> np.ndarray:
        """Flat counter index level * c_squared + bucket per uint64 key, as int64.

        The one map from items to counters, for update_many and LshIndex.insert_many.
        """
        levels = self.levels_of(keys)
        flat = self.buckets_of(levels, keys).view(np.int64)
        levels *= self._row_width
        flat += levels
        return flat

    def minhash_spec(self, level: int, repetition: int, band: int) -> HashSpec:
        """Signature seed for one (level, repetition, band) slot, derived afresh on each call.

        Derivation depends only on the triple, never on how many slots a
        caller enumerates, so growing the repetition count keeps all
        previously issued seeds.
        """
        rng = derived_rng(self.master_seed, _TAG_MINHASH, level, repetition, band)
        return random_hash_spec(rng, WORD_BITS)

    def minhash_rows(
        self, flat: np.ndarray, cuts: Sequence[int], levels: Sequence[int], repetitions: int, bands: int
    ) -> np.ndarray:
        """Min-hashes of many sketch rows at once, one table row take and one reduceat.

        Row i is flat[cuts[i] : cuts[i + 1]], the flat positions (level *
        c_squared + bucket) of the nonzero counters of row levels[i]; flat
        holds the rows back to back.  Entry [i, t * bands + q] of the
        returned len(levels) x (repetitions * bands) array is the bucket of
        row i whose affine image under minhash_spec(levels[i], t, q) is
        least, and -1 throughout for an empty row.  The dtype is the signed
        twin of the table's (int32 or int64).

        The table row of a flat position holds, per slot, the bucket's rank
        among all c_squared buckets under the slot's map (a bijection for
        odd a, so ranks are unique) shifted left by bucket_bits, or-ed with
        the bucket: the least packed value of a row is its min-hash, and
        its low bits name the bucket.  The table rows are gathered with
        take(flat, axis=0), which copies the same rows as table[flat] with
        less overhead.
        """
        key = (repetitions, bands)
        entry = self._minhash_tables.get(key)
        if entry is None:
            entry = self._minhash_tables.setdefault(key, self._new_minhash_table(repetitions, bands))
        table, view, filled, mask, signed = entry
        if not filled.issuperset(levels):
            for level in set(levels) - filled:
                self._fill_minhash_level(table, level, repetitions, bands)
                filled.add(level)
        # reduceat would read an empty segment as one entry of the next row
        full = [i for i in range(len(levels)) if cuts[i] < cuts[i + 1]]
        packed = np.minimum.reduceat(view.take(flat, axis=0), [cuts[i] for i in full], axis=0)
        packed &= mask
        if len(full) == len(levels):
            return packed.view(signed)
        out = np.full((len(levels), repetitions * bands), -1, signed)
        out[full] = packed
        return out

    def _new_minhash_table(self, repetitions: int, bands: int) -> tuple:
        """An all-zero (num_levels * c_squared) x (repetitions * bands) table entry, no level filled.

        A packed cell takes 2 * bucket_bits bits: uint32 while that fits,
        else uint64; wider would not fit a word, so it raises ValueError.
        Levels never filled stay zero, and a large zeroed allocation takes
        no memory until it is written.
        """
        if 2 * self.bucket_bits > WORD_BITS:
            raise ValueError(
                f"c_squared = 2^{self.bucket_bits} is too large for packed min-hash ranks "
                f"(at most 2^{WORD_BITS // 2})"
            )
        dtype, signed = (np.uint32, np.int32) if 2 * self.bucket_bits <= 32 else (np.uint64, np.int64)
        table = np.zeros((self.num_levels * self.c_squared, repetitions * bands), dtype)
        view = table.view()
        view.flags.writeable = False
        return table, view, set(), _frozen_scalar(self.c_squared - 1, dtype), np.dtype(signed)

    def _fill_minhash_level(self, table: np.ndarray, level: int, repetitions: int, bands: int) -> None:
        """Write one level's block of packed ranks into table.

        Column t * bands + q ranks the buckets under minhash_spec(level, t, q).
        """
        slots = [(t, q) for t in range(repetitions) for q in range(bands)]
        a, b = _spec_arrays([self.minhash_spec(level, *tq) for tq in slots])
        width, dtype = self.c_squared, table.dtype
        # order[s, i] is the bucket that slot s ranks i-th
        order = np.argsort(a[:, None] * np.arange(width, dtype=np.uint64) + b[:, None], axis=1).astype(dtype)
        packed = np.empty_like(order)
        ranks = np.arange(width, dtype=dtype) << dtype.type(self.bucket_bits)
        np.put_along_axis(packed, order, ranks | order, axis=1)
        table[level * width : (level + 1) * width] = packed.T
