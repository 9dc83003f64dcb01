"""Reference twins of the package's array code, for checking it.

The hash twins work on Python ints, one key at a time, with none of the
package's numpy code, so a test that compares the two checks the package
against an independent statement of the same maths.  sample_distinct is
the generator's draw in its earlier np.unique and np.isin form.
minhash_positions min-hashes a raw position set under HashSpecs, the
minimum the package's packed rank tables must find.  banding_collides and
similarity_at_level are baselines the acceptance criteria measure against:
min-hash banding over raw item ids, with no sketch in between, and the
similarity readout of one sketch row.
"""

import numpy as np

from dynlsh import random_hash_spec

_MASK64 = (1 << 64) - 1


def hash_key(spec, key):
    """Multiply-shift: ((a * key + b) mod 2^64) >> (64 - output_bits)."""
    return ((spec.a * key + spec.b) & _MASK64) >> (64 - spec.output_bits)


def hash_array(spec, keys):
    """hash_key over each key, as a uint64 array."""
    return np.array([hash_key(spec, int(k)) for k in keys], dtype=np.uint64)


def mix64(z):
    """The splitmix64 finalizer on one 64-bit int."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mixed_hash_array(spec, keys):
    """Like hash_array, with the affine product mixed by mix64 before the shift."""
    shift = 64 - spec.output_bits
    return np.array(
        [mix64((spec.a * int(k) + spec.b) & _MASK64) >> shift for k in keys], dtype=np.uint64
    )


def lsb(value, width=64):
    """Index of the least significant set bit; width for value == 0."""
    if value == 0:
        return width
    return (value & -value).bit_length() - 1


def minhash_signature(buckets, spec):
    """Position of the hash-minimal nonzero bucket, the lowest on ties; None for an all-zero row."""
    positions = np.flatnonzero(np.asarray(buckets)).tolist()
    if not positions:
        return None
    return min(positions, key=lambda p: hash_key(spec, p))


def minhash_positions(positions, specs):
    """Min-hash of one position set under many specs at once.

    The specs must share output_bits.  Returns int64 minimizing positions,
    one per spec, all -1 for an empty position set; ties break toward the
    first position given, the lowest when sorted.
    """
    if len({s.output_bits for s in specs}) != 1:
        raise ValueError("all specs must share output_bits")
    a, b = (np.array([getattr(s, f) for s in specs], dtype=np.uint64) for f in "ab")
    pos = np.asarray(positions, dtype=np.uint64)
    if pos.size == 0:
        return np.full(a.size, -1, dtype=np.int64)
    values = (a[:, None] * pos + b[:, None]) >> np.uint64(64 - specs[0].output_bits)
    return pos[np.argmin(values, axis=1)].astype(np.int64)


def banding_collides(a_items, b_items, r, l, master_seed):
    """Whether two item sets share one of l bands of r min-hashes over their raw ids."""
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    specs = [random_hash_spec(rng, 64) for _ in range(r * l)]
    sig_a, sig_b = (minhash_positions(items, specs).reshape(l, r) for items in (a_items, b_items))
    return bool(np.any(np.all(sig_a == sig_b, axis=1)))


def similarity_at_level(a, b, level, params):
    """Similarity of the nonzero bucket patterns of sketches a and b in the single row `level`.

    d * 2^-(level+1), the row's expected population, stands in for the
    universe size in the complement term.
    """
    na, nb = a.buckets[level] != 0, b.buckets[level] != 0
    inter, sym = int(np.count_nonzero(na & nb)), int(np.count_nonzero(na ^ nb))
    comp = max(a.randomness.d * 2.0 ** -(level + 1) - inter - sym, 0.0)
    num = params.x * inter + params.y * comp + params.z * sym
    den = params.x * inter + params.y * comp + params.z_prime * sym
    return num / den if den else 1.0


def sample_distinct(rng, d, count, exclude=None):
    """count distinct ids from [0, d) avoiding exclude, by batched rejection:
    each round's draw is deduped to first occurrences in draw order, then
    stripped of excluded and already pooled ids."""
    pool = np.empty(0, dtype=np.int64)
    while pool.size < count:
        need = count - pool.size
        draw = rng.integers(0, d, size=need + need // 4 + 16, dtype=np.int64)
        _, first = np.unique(draw, return_index=True)
        draw = draw[np.sort(first)]
        if exclude is not None and exclude.size:
            draw = draw[~np.isin(draw, exclude)]
        draw = draw[~np.isin(draw, pool)]
        pool = np.concatenate([pool, draw])
    return pool[:count]
