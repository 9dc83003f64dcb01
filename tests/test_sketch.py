"""Level sketch mechanics: linear updates, deletions, merge, readouts."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import dynlsh.sketch
from dynlsh.sketch import _l0_from_counts, l0_from_row_counts
from oracles import hash_key, lsb, mixed_hash_array

from dynlsh import (
    ConfigMismatchError,
    CounterOverflowError,
    DistanceEstimator,
    ItemRangeError,
    LevelSketch,
    LshConfig,
    LshIndex,
    RationalSimilarity,
    SketchRandomness,
    anderberg,
    hamming,
    jaccard,
    l0_estimate,
    merge,
    rogers_tanimoto,
    sample_level,
    similarity_from_level,
    sketch_from_bytes,
    sketch_to_bytes,
)


@pytest.fixture
def randomness():
    return SketchRandomness(d=1024, c_squared=64, master_seed=42)


def build_multiset(randomness, items, value):
    """The sketch after update(i, value) for each item in turn, duplicates included."""
    sk = LevelSketch(randomness)
    for i in items:
        sk.update(int(i), value)
    return sk


def build(randomness, items):
    sk = LevelSketch(randomness)
    arr = np.asarray(sorted(items), dtype=np.int64)
    if arr.size:
        sk.update_many(arr, 1)
    return sk


def with_counter(randomness, flat_position, value, base=None):
    """base (default empty) with one counter overwritten, loaded through the wire format."""
    raw = bytearray(sketch_to_bytes(base or LevelSketch(randomness)))
    start = len(raw) - randomness.num_levels * randomness.c_squared * 8
    struct.pack_into("<q", raw, start + 8 * flat_position, value)
    return sketch_from_bytes(bytes(raw), randomness)


class TestUpdates:
    def test_fresh_sketch_is_empty(self, randomness):
        sk = LevelSketch(randomness)
        assert sk.cardinality == 0
        assert not sk.buckets.any()
        assert sk.buckets.shape == (randomness.num_levels, randomness.c_squared)
        assert sk.buckets.dtype == np.int16  # int16 until widened

    def test_insert_then_delete_restores_zero(self, randomness):
        sk = LevelSketch(randomness)
        sk.update(17, 1)
        assert sk.cardinality == 1
        sk.update(17, -1)
        assert sk.cardinality == 0
        assert not sk.buckets.any()

    def test_single_insert_touches_one_bucket(self, randomness):
        sk = LevelSketch(randomness)
        sk.update(5, 1)
        assert sk.buckets.sum() == 1
        assert np.count_nonzero(sk.buckets) == 1

    def test_update_many_matches_update_loop(self, randomness):
        rng = np.random.default_rng(73100)
        items = rng.integers(0, 1024, size=300)
        values = rng.choice([1, -1], size=300)
        batched = LevelSketch(randomness)
        batched.update_many(items, values)
        looped = LevelSketch(randomness)
        for i, v in zip(items, values):
            looped.update(int(i), int(v))
        assert batched == looped

    @pytest.mark.parametrize("d", [1, 2, 1025, 2**14, 2**63])
    def test_update_many_matches_python_reference(self, d):
        """One vectorized pass equals per-item lsb level and splitmix64 bucket."""
        rnd = SketchRandomness(d=d, c_squared=64, master_seed=73102)
        rng = np.random.default_rng(d)
        pool = rng.integers(0, d, size=40)  # a small pool forces duplicate items
        sk = LevelSketch(rnd)
        expected = np.zeros_like(sk.buckets)
        for n in (1, 7, 300):
            items = rng.choice(pool, size=n)
            values = rng.choice([1, -1], size=n)
            sk.update_many(items, values)
            for i, v in zip(items.tolist(), values.tolist()):
                k = min(lsb(hash_key(rnd.level_spec, i)), rnd.max_level)
                expected[k, mixed_hash_array(rnd.bucket_specs[k], [i])[0]] += v
        assert_array_equal(sk.buckets, expected)
        assert sk.cardinality == int(expected.sum())

    def test_update_many_scalar_broadcast(self, randomness):
        a = LevelSketch(randomness)
        a.update_many([3, 9, 40], 1)
        b = LevelSketch(randomness)
        b.update_many([3, 9, 40], np.asarray([1, 1, 1]))
        assert a == b

    def test_thousand_inserts_minus_half_equals_direct_build(self, randomness):
        """Deleting 500 of 1000 items leaves exactly the 500-item sketch."""
        rng = np.random.default_rng(73101)
        items = rng.choice(1024, size=1000, replace=False)
        doomed = rng.choice(items, size=500, replace=False)
        sk = build(randomness, items)
        sk.update_many(doomed, -1)
        survivors = np.setdiff1d(items, doomed)
        assert sk == build(randomness, survivors)
        assert sk.cardinality == 500

    def test_cardinality_is_a_python_int_on_every_path(self, randomness):
        """Counts of NumPy calls must not leak fixed-width integers into cardinality."""
        one, scalar, array = (LevelSketch(randomness) for _ in range(3))
        one.update(np.int64(3), np.int64(1))
        scalar.update_many(np.arange(5), np.int8(1))
        array.update_many(np.arange(5, 9), np.array([1, -1, 1, 1], np.int16))
        sketches = [one, scalar, array, merge(scalar, array), merge(scalar, array, -1), array.copy()]
        sketches.append(sketch_from_bytes(sketch_to_bytes(array), randomness))
        assert [sk.cardinality for sk in sketches] == [1, 5, 2, 7, 3, 2, 2]
        assert all(type(sk.cardinality) is int for sk in sketches)

    def test_empty_update_many_is_noop(self, randomness):
        sk = LevelSketch(randomness)
        sk.update_many(np.empty(0, dtype=np.int64), 1)
        assert sk == LevelSketch(randomness)

    def test_update_validation(self, randomness):
        sk = LevelSketch(randomness)
        with pytest.raises(ValueError):
            sk.update(3, 0)
        with pytest.raises(ValueError):
            sk.update(3, 2)
        with pytest.raises(ItemRangeError):
            sk.update(1024, 1)
        with pytest.raises(ItemRangeError):
            sk.update(-1, 1)
        with pytest.raises(ItemRangeError):
            sk.update_many([0, 2048], 1)
        with pytest.raises(ValueError):
            sk.update_many([0, 1], np.asarray([1, 3]))
        # |int64 min| wraps back to int64 min, which must not pass as +-1
        with pytest.raises(ValueError):
            sk.update(3, np.iinfo(np.int64).min)
        with pytest.raises(ValueError):
            sk.update_many([0, 1], np.asarray([1, np.iinfo(np.int64).min]))
        assert sk == LevelSketch(randomness)

    @pytest.mark.parametrize("d", [1024, 2**63])
    def test_items_outside_the_universe_rejected(self, d):
        sk = LevelSketch(SketchRandomness(d=d, c_squared=64, master_seed=73103))
        for items in (
            np.array([3, -1]),
            np.array([-(2**63)]),
            np.array([0, 2**63], dtype=np.uint64),
            np.array([2**64 - 1], dtype=np.uint64),
            [2**63],
        ):
            with pytest.raises(ItemRangeError):
                sk.update_many(items, 1)
            with pytest.raises(ItemRangeError):
                sk.update_many(items, np.ones(len(items), dtype=np.int64))
        sk.update_many(np.array([0, d - 1], dtype=np.uint64), 1)
        assert sk.cardinality == 2

    def test_unbroadcastable_values_rejected(self, randomness):
        sk = LevelSketch(randomness)
        for values in (np.ones(2, dtype=np.int64), np.ones(4, dtype=np.int8), np.ones((3, 2), dtype=np.int64)):
            with pytest.raises(ValueError):
                sk.update_many([1, 2, 3], values)
        assert sk == LevelSketch(randomness)

    def test_narrow_dtypes_count_as_int64(self, randomness):
        rng = np.random.default_rng(73104)
        items = rng.integers(0, 1024, size=200)
        signs = rng.choice([1, -1], size=200)
        want = LevelSketch(randomness)
        want.update_many(items, signs.astype(np.int64))
        for values in (signs.astype(np.int8), signs.astype(np.int16)):
            got = LevelSketch(randomness)
            got.update_many(items, values)
            assert got == want
        ones = LevelSketch(randomness)
        ones.update_many(items, np.ones(200, dtype=np.uint8))
        assert ones == build_multiset(randomness, items, 1)
        minus = LevelSketch(randomness)
        minus.update_many(items, np.int8(-1))
        assert minus == build_multiset(randomness, items, -1)
        for item_dtype in (np.int16, np.uint16, np.uint64):
            got = LevelSketch(randomness)
            got.update_many(items.astype(item_dtype), signs)
            assert got == want

    def test_bool_items_and_values_rejected(self, randomness):
        sk = LevelSketch(randomness)
        for items, values in (
            (np.array([True, False]), 1),
            ([True], 1),
            ([1, 2], True),
            ([1, 2], np.array([True, True])),
            ([1, 2], np.True_),
        ):
            with pytest.raises(TypeError):
                sk.update_many(items, values)
        with pytest.raises(TypeError):
            sk.update(True, 1)
        with pytest.raises(TypeError):
            sk.update(3, True)
        assert sk == LevelSketch(randomness)

    def test_rejected_batch_leaves_the_sketch_untouched(self, randomness):
        sk = build(randomness, range(0, 1024, 3))
        before = sk.copy()
        rejected = (
            ([1, 2, -5], 1, ItemRangeError),
            ([1, 2, 1024], np.array([1, -1, 1]), ItemRangeError),
            ([1, 2, 3], np.array([1, -1, 0]), ValueError),
            ([1, 2, 3], np.array([1, -1]), ValueError),
            ([1, 2, 3], -2, ValueError),
            # unsigned values that wrap to -1 as int64 are not -1
            ([1], np.array([2**64 - 1], np.uint64), ValueError),
            ([1, 2, 3], np.uint64(2**64 - 1), ValueError),
            ([1], np.array([255], np.uint8), ValueError),
            ([1, 2, 3], np.array([1.0, 1.0, 1.0]), TypeError),
            ([1.0, 2.0], 1, TypeError),
        )
        for items, values, error in rejected:
            with pytest.raises(error):
                sk.update_many(items, values)
            assert sk == before
            assert sk.cardinality == before.cardinality

    def test_non_integer_items_rejected(self, randomness):
        sk = LevelSketch(randomness)
        with pytest.raises(TypeError):
            sk.update_many([3.7, 5.2])
        with pytest.raises(TypeError):
            sk.update(3.0, 1)
        assert sk == LevelSketch(randomness)

    def test_non_integer_values_rejected(self, randomness):
        sk = LevelSketch(randomness)
        with pytest.raises(TypeError):
            sk.update_many([3, 5], 1.5)
        with pytest.raises(TypeError):
            sk.update_many([3, 5], np.asarray([1.0, -1.0]))
        with pytest.raises(TypeError):
            sk.update(3, 1.0)
        assert sk == LevelSketch(randomness)
        sk.update_many([], 1.5)  # an empty batch returns before any check

    def test_nonzero_mass_bounded_by_set_size(self, randomness):
        rng = np.random.default_rng(73102)
        items = rng.choice(1024, size=37, replace=False)
        sk = build(randomness, items)
        assert np.count_nonzero(sk.buckets) <= 37
        assert sk.buckets.sum() == 37  # all counters non-negative here


@st.composite
def signed_streams(draw):
    """A net set plus cancelling churn, shuffled into one update stream."""
    net = draw(st.sets(st.integers(min_value=0, max_value=63), max_size=20))
    churn = draw(st.lists(st.integers(min_value=0, max_value=63), max_size=10))
    updates = [(i, 1) for i in net]
    for i in churn:
        if i in net:
            updates += [(i, -1), (i, 1)]
        else:
            updates += [(i, 1), (i, -1)]
    order = draw(st.permutations(range(len(updates))))
    return net, [updates[k] for k in order]


class TestDeletionSoundness:
    @given(signed_streams())
    @settings(max_examples=150, deadline=None)
    def test_any_replay_order_with_valid_prefix_nets_out(self, data):
        """Streams whose net counts are 0/1 build the net set's sketch.

        Orderings can push a counter negative mid-stream; linearity still
        guarantees the final state only depends on the net counts.
        """
        net, updates = data
        rnd = SketchRandomness(64, 16, 99)
        sk = LevelSketch(rnd)
        for item, value in updates:
            sk.update(item, value)
        assert sk == build(rnd, net)

    def test_chunked_replay_equals_single_shot(self):
        rng = np.random.default_rng(73103)
        rnd = SketchRandomness(4096, 128, 73103)
        items = rng.choice(4096, size=900, replace=False)
        doomed = rng.choice(items, size=300, replace=False)
        stream_items = np.concatenate([items, doomed])
        stream_values = np.concatenate([np.ones(900, np.int64), -np.ones(300, np.int64)])
        order = rng.permutation(1200)
        sk = LevelSketch(rnd)
        for chunk in np.array_split(order, 5):
            sk.update_many(stream_items[chunk], stream_values[chunk])
        assert sk == build(rnd, np.setdiff1d(items, doomed))


QUEUE_CAP = dynlsh.sketch._QUEUE_CAP
QUEUE_RND = SketchRandomness(d=1024, c_squared=64, master_seed=42)


def read_after_each(randomness, batches):
    """The sketch of (items, values) batches with its counters read after each, so none waits."""
    sk = LevelSketch(randomness)
    for items, values in batches:
        sk.update_many(items, values)
        sk.buckets
    return sk


def entry_bytes(index):
    """An LshIndex's entries with every array as (dtype, bytes), to compare byte for byte."""
    return {
        k: tuple((f.dtype.str, f.tobytes()) if isinstance(f, np.ndarray) else f for f in entry)
        for k, entry in index._entries.items()
    }


def _seeded_batch(size, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1024, size=size), rng.choice([-1, 1], size=size)


# sizes from one item to past the cap, so queues fill up as well as being read
_batches = st.builds(_seeded_batch, st.integers(1, 3 * QUEUE_CAP // 4), st.integers(0, 2**32 - 1))
_queue_ops = st.one_of(
    st.tuples(st.just("update"), st.sampled_from([0, 1]), _batches),
    st.tuples(
        st.sampled_from(["buckets", "copy", "eq", "merge", "bytes", "distance", "insert"]),
        st.sampled_from([0, 1]),
    ),
)


class TestUpdateQueue:
    """update_many checks a batch at once and may apply it later; no reader can tell."""

    @given(st.lists(_queue_ops, max_size=70), st.sampled_from([1, -1]))
    @settings(max_examples=100, deadline=None)
    def test_queued_updates_read_like_applied_ones(self, ops, sign):
        rnd = QUEUE_RND
        lazy = [LevelSketch(rnd), LevelSketch(rnd)]
        eager = [LevelSketch(rnd), LevelSketch(rnd)]
        estimator = DistanceEstimator(jaccard(rnd.d), rnd)
        cfg = LshConfig(r1=0.5, r2=0.1, epsilon=0.9, delta=0.5, bands_r=2, repetitions_l=3)
        lazy_index, eager_index = LshIndex(cfg, rnd), LshIndex(cfg, rnd)
        copies = []
        for op, side, *batch in ops:
            x, y = lazy[side], eager[side]
            if op == "update":
                x.update_many(*batch[0])
                y.update_many(*batch[0])
                y.buckets
                assert x._queued < QUEUE_CAP
                assert (x.cardinality, x._bound) == (y.cardinality, y._bound)
            elif op == "buckets":
                assert x.buckets.dtype == y.buckets.dtype
                assert_array_equal(x.buckets, y.buckets)
            elif op == "copy":
                copies.append((x.copy(), y.copy()))
            elif op == "eq":
                assert x == y
                assert (lazy[0] == lazy[1]) == (eager[0] == eager[1])
            elif op == "merge":
                got, want = merge(x, lazy[1 - side], sign), merge(y, eager[1 - side], sign)
                assert got.buckets.dtype == want.buckets.dtype
                assert sketch_to_bytes(got) == sketch_to_bytes(want)
            elif op == "bytes":
                assert sketch_to_bytes(x) == sketch_to_bytes(y)
            elif op == "distance":
                got = estimator.estimate_distance(x, lazy[1 - side])
                assert repr(got) == repr(estimator.estimate_distance(y, eager[1 - side]))
            elif y.cardinality < 0:
                for index, sk in ((lazy_index, x), (eager_index, y)):
                    with pytest.raises(ValueError):
                        index.insert(side, sk)
            else:
                lazy_index.insert(side, x)
                eager_index.insert(side, y)
                assert entry_bytes(lazy_index) == entry_bytes(eager_index)
        # a copy keeps what its source held then, whatever the source queued after
        for got, want in copies:
            assert sketch_to_bytes(got) == sketch_to_bytes(want)
        for x, y in zip(lazy, eager):
            assert sketch_to_bytes(x) == sketch_to_bytes(y)

    def test_equality_and_copy_apply_the_queue(self, randomness):
        sk = LevelSketch(randomness)
        sk.update_many([3, 77, 500], 1)
        assert sk._queued == 3
        want = read_after_each(randomness, [([3, 77, 500], 1)])
        assert sk == want and want == sk
        assert_array_equal(sk.copy().buckets, want.buckets)
        sk.update_many([3], -1)
        assert sk != want

    def test_queued_batches_are_copies(self, randomness):
        """Contiguous, strided, 2-D and 0-d batches queue as copies: writing
        to the caller's arrays after the call changes nothing."""
        items = np.array([3, 77, 500], dtype=np.uint64)  # already the keys' dtype, yet copied
        values = np.array([1, 1, -1])
        grid = np.array([[5, 6], [7, 8]])
        grid_values = np.array([[1, -1], [1, 1]])
        spread = np.arange(100, 120)  # every other item and value, as 1-D strided views
        spread_values = np.tile([1, 1, -1, -1, 1], 4)
        point, point_value = np.array(600), np.array(-1)
        sk = LevelSketch(randomness)
        sk.update_many(items, values)
        sk.update_many(grid, grid_values)
        sk.update_many(spread[::2], spread_values[::2])
        sk.update_many(point, point_value)
        sk.update_many(np.array(601), 1)
        sk.update_many([9], 1)
        assert sk._queued == 20  # the 2-D, strided and 0-d batches wait beside the others
        want = read_after_each(
            randomness,
            [
                (items.tolist(), values.tolist()),
                (grid.ravel().tolist(), grid_values.ravel().tolist()),
                (spread[::2].tolist(), spread_values[::2].tolist()),
                ([600], [-1]),
                ([601], 1),
                ([9], 1),
            ],
        )
        for arr in (items, grid, spread, point):
            arr[...] = 0
        for arr in (values, grid_values, spread_values, point_value):
            arr[...] = -1
        assert sk == want
        assert sk.cardinality == want.cardinality == 1 + 2 + 2 - 1 + 1 + 1

    def test_rejected_batch_after_queued_ones_changes_nothing(self, randomness):
        accepted = [([1, 2, 3], np.array([1, -1, 1])), (np.array([[4, 5]]), -1)]
        sk = LevelSketch(randomness)
        for batch in accepted:
            sk.update_many(*batch)
        state = (sk._queued, sk.cardinality, sk._bound)
        assert state == (5, -1, 5)
        for items, values, error in (
            ([6, 1024], 1, ItemRangeError),
            ([6, -1], np.array([1, -1]), ItemRangeError),
            ([6, 7], np.array([1, 0]), ValueError),
            ([6, 7, 8], np.array([1, 1]), ValueError),
            ([6.0], 1, TypeError),
            ([6], np.array([1.0]), TypeError),
        ):
            with pytest.raises(error):
                sk.update_many(items, values)
            assert (sk._queued, sk.cardinality, sk._bound) == state
        want = read_after_each(randomness, accepted)
        assert sk.buckets.dtype == want.buckets.dtype
        assert_array_equal(sk.buckets, want.buckets)

    def test_the_queue_is_applied_at_the_cap(self, randomness):
        rng = np.random.default_rng(72023)
        sk = LevelSketch(randomness)
        sk.update_many(rng.integers(0, 1024, size=QUEUE_CAP - 1))
        assert sk._queued == QUEUE_CAP - 1 and not sk._buckets.any()
        sk.update_many([5], 1)
        assert sk._queued == 0 and sk._buckets.sum() == QUEUE_CAP
        # a batch at or above the cap is applied by its own call
        for size in (QUEUE_CAP, 3 * QUEUE_CAP + 1):
            big = LevelSketch(randomness)
            big.update_many(rng.integers(0, 1024, size=size))
            assert big._queued == 0 and big._buckets.sum() == size

    @pytest.mark.parametrize(
        "queued, size",
        [(100, QUEUE_CAP - 101), (100, QUEUE_CAP - 100), (100, QUEUE_CAP), (QUEUE_CAP - 1, 2)],
        ids=["ends-below-the-cap", "ends-at-the-cap", "crosses-the-cap", "full-queue"],
    )
    def test_rejected_batch_at_the_cap_changes_nothing(self, randomness, queued, size):
        """Staged in the queue's slot or in the buffer that applies the queue,
        a rejected batch leaves the queue, cardinality, bound and applied
        counters as they were, and the next batch lands where it should."""
        rng = np.random.default_rng(72031)
        first = (rng.integers(0, 1024, size=queued), rng.choice([-1, 1], size=queued))
        items, values = rng.integers(0, 1024, size=size), rng.choice([-1, 1], size=size)
        sk = LevelSketch(randomness)
        sk.update_many(*first)

        def state():
            return sk._queued, sk.cardinality, sk._bound, sk._buckets.dtype, sk._buckets.tobytes()

        before = state()
        assert before[0] == queued
        for bad_items, bad_values, error in (
            (np.r_[items[:-1], 1024], values, ItemRangeError),  # one bad item, the last one
            (np.r_[items[:-1], -1], values, ItemRangeError),
            (items, np.r_[values[:-1], 0], ValueError),
            (items, np.r_[values, 1], ValueError),  # values that do not broadcast
            (np.array([5, -3], np.int8), 1, ItemRangeError),  # negative items cast into the slot
            (np.array([5, -300], np.int16), 1, ItemRangeError),
            (np.array([5, 2**64 - 1], np.uint64), 1, ItemRangeError),
            (np.r_[items[:-1], 1024].reshape(1, -1), 1, ItemRangeError),  # a 2-D batch
            (items.reshape(1, -1), np.r_[values, 1], ValueError),
            (np.repeat(np.r_[items[:-1], 1024], 2)[::2], values, ItemRangeError),  # strided views
            (np.repeat(items, 2)[::2], np.repeat(np.r_[values[:-1], 0], 2)[::2], ValueError),
            (np.array(1024), np.array(1), ItemRangeError),  # 0-d batches
            (np.array(5), np.array(0), ValueError),
            (items.astype(np.float64), values, TypeError),
        ):
            with pytest.raises(error):
                sk.update_many(bad_items, bad_values)
            assert state() == before
        sk.update_many(items, values)
        assert sk._queued == (queued + size if queued + size < QUEUE_CAP else 0)
        want = read_after_each(randomness, [first, (items, values)])
        assert sk.buckets.dtype == want.buckets.dtype
        assert_array_equal(sk.buckets, want.buckets)
        assert sk.cardinality == want.cardinality

    @pytest.mark.parametrize("size", [10, QUEUE_CAP])
    def test_a_bound_scan_with_items_queued_keeps_every_update(self, randomness, size):
        """The scan runs when the queue is applied, by a read or by the batch
        that fills it, and every queued update is added after it."""
        rng = np.random.default_rng(72032)
        first = (rng.integers(0, 1024, size=500), rng.choice([-1, 1], size=500))
        items, values = rng.integers(0, 1024, size=size), rng.choice([-1, 1], size=size)
        sk = LevelSketch(randomness)
        sk.update_many(*first)
        sk._bound = 2**15 - 1  # a loose bound that the next batch runs out
        sk.update_many(items, values)
        assert sk._queued == (500 + size if 500 + size < QUEUE_CAP else 0)
        want = read_after_each(randomness, [first, (items, values)])
        assert sk.buckets.dtype == want.buckets.dtype == np.int16
        assert_array_equal(sk.buckets, want.buckets)


class TestMerge:
    def test_self_subtraction_is_zero(self, randomness):
        sk = build(randomness, [1, 2, 3, 500])
        diff = merge(sk, sk, -1)
        assert diff.cardinality == 0
        assert not diff.buckets.any()

    def test_addition_accumulates_counts(self, randomness):
        a = build(randomness, [1, 2])
        b = build(randomness, [700, 800])
        both = merge(a, b, 1)
        assert both.cardinality == 4
        assert_array_equal(both.buckets, a.buckets + b.buckets)

    def test_merge_leaves_inputs_untouched(self, randomness):
        a = build(randomness, [1, 2])
        b = build(randomness, [2, 3])
        before = a.buckets.copy()
        merge(a, b, -1)
        assert_array_equal(a.buckets, before)

    def test_symmetric_difference_mass(self):
        # with seed 0 at d=16, c^2=16, items 1 and 3 occupy distinct
        # buckets, so the difference of {1,2} and {2,3} keeps both visible
        rnd = SketchRandomness(16, 16, 0)
        diff = merge(build(rnd, [1, 2]), build(rnd, [2, 3]), -1)
        assert diff.cardinality == 0
        assert np.abs(diff.buckets).sum() == 2

    def test_randomness_mismatch_rejected(self, randomness):
        other = SketchRandomness(1024, 64, 43)
        with pytest.raises(ConfigMismatchError):
            merge(LevelSketch(randomness), LevelSketch(other), 1)

    def test_bad_sign_rejected(self, randomness):
        with pytest.raises(ValueError):
            merge(LevelSketch(randomness), LevelSketch(randomness), 2)

    def test_counter_overflow_guard(self, randomness):
        a = with_counter(randomness, 0, 2**61)
        b = with_counter(randomness, 0, 2**61)
        assert a.buckets.dtype == np.int64
        with pytest.raises(CounterOverflowError):
            merge(a, b, 1)  # summed peaks of 2^62
        assert merge(a, with_counter(randomness, 0, 2**61 - 1), -1).buckets.flat[0] == 1

    def test_counter_overflow_guard_sees_the_most_negative_counter(self):
        # np.abs(-2**63) stays negative; the peak, and so the guard, must still count it
        assert dynlsh.sketch._peak(np.array([[5, -(2**63)]], np.int64)) == 2**63
        t = with_counter(SketchRandomness(16, 4, 1), 0, -(2**61))
        assert t.buckets[0, 0] == -(2**61)
        with pytest.raises(CounterOverflowError):
            merge(t, t)


def _same_sketch(x, y):
    return x.cardinality == y.cardinality and np.array_equal(x.buckets, y.buckets)


class TestMergeAlgebra:
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 63), st.sampled_from([-1, 1])), max_size=40),
            min_size=3,
            max_size=3,
        ),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_is_commutative_and_associative(self, streams, sign):
        """a + b = b + a, a - b = 0 - (b - a), and (a + s*b) + s*c =
        a + s*(b + c) for s = +-1, over signed streams sharing one randomness."""
        rnd = SketchRandomness(64, 16, 99)
        a, b, c = (LevelSketch(rnd) for _ in streams)
        for sk, updates in zip((a, b, c), streams):
            if updates:
                items, values = zip(*updates)
                sk.update_many(np.array(items), np.array(values))
        assert _same_sketch(merge(a, b), merge(b, a))
        assert _same_sketch(merge(a, b, -1), merge(LevelSketch(rnd), merge(b, a, -1), -1))
        assert _same_sketch(merge(merge(a, b, sign), c, sign), merge(a, merge(b, c), sign))


class TestObjectProtocol:
    def test_copy_is_independent(self, randomness):
        sk = build(randomness, [5, 6])
        dup = sk.copy()
        assert dup == sk
        dup.update(7, 1)
        assert dup != sk

    def test_sketches_are_unhashable(self, randomness):
        with pytest.raises(TypeError):
            hash(LevelSketch(randomness))

    def test_equality_requires_same_randomness(self, randomness):
        other = SketchRandomness(1024, 64, 43)
        assert LevelSketch(randomness) != LevelSketch(other)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, randomness):
        sk = build(randomness, [0, 5, 99, 1000])
        sk.update(5, -1)
        back = sketch_from_bytes(sketch_to_bytes(sk), randomness)
        assert back == sk

    def test_empty_and_negative_counters_survive(self, randomness):
        sk = LevelSketch(randomness)
        sk.update(9, -1)  # a pure deletion leaves a negative counter
        back = sketch_from_bytes(sketch_to_bytes(sk), randomness)
        assert back == sk
        assert back.cardinality == -1

    def test_truncated_prefix_rejected(self, randomness):
        with pytest.raises(ValueError, match="length prefix"):
            sketch_from_bytes(b"\x01\x02", randomness)

    def test_truncated_payload_rejected(self, randomness):
        data = sketch_to_bytes(build(randomness, [1]))
        with pytest.raises(ValueError, match="truncated"):
            sketch_from_bytes(data[:-4], randomness)

    def test_trailing_bytes_rejected(self, randomness):
        data = sketch_to_bytes(build(randomness, [1]))
        with pytest.raises(ValueError, match="after the declared payload"):
            sketch_from_bytes(data + b"junk", randomness)

    def test_payload_shorter_than_the_header_rejected(self, randomness):
        payload = sketch_to_bytes(build(randomness, [1]))[8:48]  # 40 of the header's 41 bytes
        with pytest.raises(ValueError, match="payload shorter than header"):
            sketch_from_bytes(struct.pack("<Q", len(payload)) + payload, randomness)

    @pytest.mark.parametrize("change", [-8, 8])
    def test_counter_block_of_the_wrong_length_rejected(self, randomness, change):
        payload = sketch_to_bytes(build(randomness, [1]))[8:]
        payload = payload[:change] if change < 0 else payload + bytes(change)
        expected = randomness.num_levels * 64 * 8
        with pytest.raises(ValueError, match=f"counter block is {expected + change} bytes, expected {expected}"):
            sketch_from_bytes(struct.pack("<Q", len(payload)) + payload, randomness)

    def test_unknown_version_rejected(self, randomness):
        data = bytearray(sketch_to_bytes(build(randomness, [1])))
        data[8] = 250
        with pytest.raises(ValueError, match="version"):
            sketch_from_bytes(bytes(data), randomness)

    def test_shape_mismatch_rejected(self, randomness):
        data = sketch_to_bytes(build(randomness, [1]))
        with pytest.raises(ConfigMismatchError):
            sketch_from_bytes(data, SketchRandomness(1024, 128, 42))

    def test_seed_mismatch_rejected(self, randomness):
        """Same d and c^2, other seed: the counters hash items differently."""
        data = sketch_to_bytes(build(randomness, [1, 2, 3]))
        with pytest.raises(ConfigMismatchError, match="master_seed 42, expected 43"):
            sketch_from_bytes(data, SketchRandomness(1024, 64, 43))

    def test_version_one_bytes_rejected(self, randomness):
        sk = build(randomness, [1])
        payload = struct.pack("<BQQQq", 1, 1024, 64, randomness.num_levels, 1)
        payload += sk.buckets.astype("<i8").tobytes()
        with pytest.raises(ValueError, match="unsupported sketch version 1"):
            sketch_from_bytes(struct.pack("<Q", len(payload)) + payload, randomness)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        d=st.integers(1, 5000),
        c2=st.sampled_from([2, 64]),
        data=st.data(),
    )
    def test_round_trip_keeps_the_seed(self, seed, d, c2, data):
        rnd = SketchRandomness(d, c2, seed)
        sk = LevelSketch(rnd)
        items = data.draw(st.lists(st.integers(0, d - 1), max_size=50))
        if items:
            sk.update_many(items, data.draw(st.sampled_from([1, -1])))
        raw = sketch_to_bytes(sk)
        assert sketch_from_bytes(raw, SketchRandomness(d, c2, seed)) == sk
        with pytest.raises(ConfigMismatchError, match="master_seed"):
            sketch_from_bytes(raw, SketchRandomness(d, c2, seed ^ 1))


class TestNarrowCounters:
    """int16 storage until a running bound could pass 2^15 - 1, then int32
    until it could pass 2^31 - 1, then int64."""

    TOP = 2**15 - 1
    # (largest value, its tier, the tier past it) at each edge of the ladder
    EDGES = [(2**15 - 1, np.int16, np.int32), (2**31 - 1, np.int32, np.int64)]

    def in_tier(self, sketch, dtype):
        """An equal copy of sketch (peak at most 2^15 - 1) stored as dtype."""
        big = with_counter(sketch.randomness, 0, {np.int16: 0, np.int32: 2**15, np.int64: 2**31}[dtype])
        out = merge(merge(sketch, big), big, -1)
        assert out.buckets.dtype == dtype and out == sketch
        return out

    def built_in(self, randomness, items, dtype):
        """The sketch of items, added to a matrix stored as dtype from the start."""
        sk = self.in_tier(LevelSketch(randomness), dtype)
        sk.update_many(np.asarray(items, dtype=np.int64))
        assert sk.buckets.dtype == dtype
        return sk

    @pytest.mark.parametrize("sign", [1, -1])
    def test_update_widens_before_the_add(self, randomness, sign):
        items = np.array([3, 3, 77, 500, 1023], dtype=np.int64)
        pos = int(np.flatnonzero(build(randomness, [3]).buckets)[0])
        for top, narrow, wide in self.EDGES:
            sk = with_counter(randomness, pos, sign * top)
            assert sk.buckets.dtype == narrow
            expected = sk.buckets.astype(np.int64) + build_multiset(randomness, items, sign).buckets
            sk.update_many(items, sign)
            assert sk.buckets.dtype == wide  # one tier up, not straight to int64
            assert sk.buckets.flat[pos] == sign * (top + 2)
            assert_array_equal(sk.buckets, expected)
            assert sk.cardinality == sign * items.size

    def test_update_many_scans_only_when_the_bound_runs_out(self, randomness, monkeypatch):
        scans = []
        real = dynlsh.sketch._peak
        monkeypatch.setattr(dynlsh.sketch, "_peak", lambda c: scans.append(c) or real(c))
        sk = LevelSketch(randomness)
        rng = np.random.default_rng(72018)
        for _ in range(50):
            sk.update_many(rng.integers(0, 1024, size=64), rng.choice([-1, 1], size=64))
        assert scans == []
        # a bound that has run out is re-tightened by one scan, and the
        # small exact peak keeps the matrix narrow
        peak = real(sk.buckets)
        sk._bound = self.TOP
        sk.update_many([5, 6], 1)
        assert sk._queued == 2 and scans == []  # the scan waits for the queue's application
        assert sk.buckets.dtype == np.int16
        assert len(scans) == 1
        assert sk._bound == peak + 2

    def test_the_bound_scan_counts_queued_updates(self, randomness):
        pos = int(np.flatnonzero(build(randomness, [3]).buckets)[0])
        for top, narrow, wide in self.EDGES:
            edge = top - (top >> 3)  # the most a scan leaves in the tier
            sk = with_counter(randomness, pos, edge - 3)
            sk.update_many([3, 3], 1)
            assert sk._queued == 2 and sk._buckets.dtype == narrow
            # a loose bound, as a merge leaves, runs out on the next pair;
            # the scan must see the queued pair, or the next pair would fit
            sk._bound = top - 1
            sk.update_many([3, 3], 1)
            assert sk.buckets.dtype == wide
            assert sk.buckets.flat[pos] == edge + 1

    def test_a_scan_widens_unless_an_eighth_of_the_range_is_left(self, randomness):
        pos = int(np.flatnonzero(build(randomness, [3]).buckets)[0])
        for top, narrow, wide in self.EDGES:
            edge = top - (top >> 3)
            for value, dtype in [(edge - 2, narrow), (edge - 1, wide), (-(edge - 2), narrow), (-(edge - 1), wide)]:
                sk = with_counter(randomness, pos, value)
                sk._bound = top  # run out: the next batch re-tightens it by a scan
                sk.update_many([3, 3], int(np.sign(value)))
                assert sk.buckets.dtype == dtype
                assert sk.buckets.flat[pos] == value + 2 * np.sign(value)
                assert sk._bound == abs(value) + 2

    def test_a_counter_parked_below_the_top_costs_one_scan(self, monkeypatch):
        """One counter at 2^15 - 5 and 10,000 alternating one-item +/-1
        updates elsewhere: the first scan widens, where a scan that only
        restored the 4 left below the top would run every 4 updates."""
        scans = []
        real = dynlsh.sketch._peak
        monkeypatch.setattr(dynlsh.sketch, "_peak", lambda c: scans.append(c) or real(c))
        rnd = SketchRandomness(2**16, 1024, 72021)
        parked = int(np.flatnonzero(build(rnd, [3]).buckets)[0])
        sk = with_counter(rnd, parked, self.TOP - 4)
        assert int(np.flatnonzero(build(rnd, [9]).buckets)[0]) != parked
        scans.clear()
        for k in range(10_000):
            sk.update_many([9], (-1) ** k)
        assert len(scans) == 1
        assert sk.buckets.dtype == np.int32
        assert sk.buckets.flat[parked] == self.TOP - 4 and sk.cardinality == 0

    def test_merge_past_the_narrow_range_is_int64_and_exact(self, randomness):
        """Past int16's range a merge is int32, past int32's it is int64."""
        for (top, narrow, wide), half in zip(self.EDGES, (2**14, 2**30)):
            a = with_counter(randomness, 7, half + 5, build(randomness, [1, 2, 3]))
            b = with_counter(randomness, 7, half, build(randomness, [2, 900]))
            assert a.buckets.dtype == b.buckets.dtype == narrow
            for sign in (1, -1):
                out = merge(a, b, sign)
                assert out.buckets.dtype == wide  # the summed peaks pass top
                expected = a.buckets.astype(np.int64) + sign * b.buckets.astype(np.int64)
                assert_array_equal(out.buckets, expected)
            assert merge(a, b).buckets.flat[7] == top + 6
        assert merge(build(randomness, [1]), build(randomness, [2])).buckets.dtype == np.int16

    def test_from_bytes_narrows_only_when_the_counters_fit(self, randomness):
        back = sketch_from_bytes(sketch_to_bytes(build(randomness, [1])), randomness)
        assert back.buckets.dtype == np.int16
        for value, dtype in [
            (self.TOP, np.int16),
            (-self.TOP, np.int16),
            (2**15, np.int32),
            (-(2**15), np.int32),
            (2**31 - 1, np.int32),
            (-(2**31 - 1), np.int32),
            (2**31, np.int64),
            (-(2**31), np.int64),
        ]:
            sk = with_counter(randomness, 9, value)
            assert sk.buckets.dtype == dtype
            assert sk.buckets.flat[9] == value

    def test_counters_of_2_to_the_62_or_more_are_refused(self, randomness):
        """Loaded counters stay below 2^62 in absolute value, so no later
        update or merge can wrap one: -2^63 once loaded, and one deletion
        turned it into 2^63 - 1."""
        for value in (2**62 - 1, -(2**62 - 1)):
            sk = with_counter(randomness, 9, value)
            assert sk.buckets.dtype == np.int64 and sk.buckets.flat[9] == value
        for value in (2**62, -(2**62), -(2**63), 2**63 - 1):
            with pytest.raises(CounterOverflowError):
                with_counter(randomness, 9, value)

    def test_widened_and_narrow_sketches_of_one_set_agree(self):
        rnd = SketchRandomness(4096, 64, 7)
        rng = np.random.default_rng(72018)
        base = rng.choice(4096, size=300, replace=False)
        sets = [np.append(base[: 200 + 20 * k], rng.choice(4096, size=40)) for k in range(5)]
        narrow = [build(rnd, s) for s in sets]
        mid = [self.built_in(rnd, s, np.int32) for s in sets]
        wide = [self.built_in(rnd, s, np.int64) for s in sets]
        estimator = DistanceEstimator(jaccard(4096), rnd)
        distance = estimator.estimate_distance
        for n, m, w in zip(narrow, mid, wide):
            assert (n.buckets.dtype, m.buckets.dtype, w.buckets.dtype) == (np.int16, np.int32, np.int64)
            for other in (m, w):
                assert n == other and other == n
                assert sketch_to_bytes(n) == sketch_to_bytes(other)
                assert l0_estimate(n) == l0_estimate(other)
                assert l0_estimate(merge(n, narrow[0], -1)) == l0_estimate(merge(other, narrow[0], -1))
                for ref in (narrow[0], mid[0], wide[0]):
                    assert distance(n, ref) == distance(other, ref)
                    assert distance(ref, n) == distance(ref, other)
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.01)
        found = []
        for group in (narrow, mid, wide, narrow[:2] + wide[2:4] + mid[4:]):
            index = LshIndex(cfg, rnd)
            for i, sk in enumerate(group):
                index.insert(i, sk)
            found.append((index.candidates(), index.search(jaccard(4096), 0.5)))
        assert found[0][0]
        assert found[0] == found[1] == found[2] == found[3]

    def test_counters_climb_the_ladder_one_tier_at_a_time(self, randomness, monkeypatch):
        """int16 -> int32 once the bound passes 2^15 - 1 and int32 -> int64
        once it passes 2^31 - 1, each after one re-tightening scan."""
        scans = []
        real = dynlsh.sketch._peak
        monkeypatch.setattr(dynlsh.sketch, "_peak", lambda c: scans.append(c) or real(c))
        pos = int(np.flatnonzero(build(randomness, [3]).buckets)[0])
        for top, narrow, wide in self.EDGES:
            sk = with_counter(randomness, pos, top)
            assert sk.buckets.dtype == narrow and sk._bound == top
            scans.clear()
            sk.update_many([3], 1)
            assert sk.buckets.dtype == wide and sk.buckets.flat[pos] == top + 1
            assert len(scans) == 1
            sk.update_many([3], -1)  # a widened sketch stays wide
            assert sk.buckets.dtype == wide and sk.buckets.flat[pos] == top
            assert len(scans) == 1

    @given(
        seed=st.integers(0, 2**32 - 1),
        tier=st.sampled_from([np.int16, np.int32]),
        parked=st.integers(-3000, 3000),
        spread=st.sampled_from([1, 8, 256]),
        rise=st.sampled_from([0.5, 0.9, 1.0]),
        batches=st.lists(st.tuples(st.integers(1, 2500), st.booleans()), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_tiers_hold_over_random_batches_and_reads(self, seed, tier, parked, spread, rise, batches):
        """A bound forced to its tier's top, item 0's counter parked within
        3,000 of the tier's edge, and a stream over the first spread items
        that moves that counter away from zero with probability rise, cut
        into random batches with reads between them: every read equals a
        direct int64 build, the dtype never narrows, and two scans in one
        dtype come more than an eighth of its range apart in updates."""
        rnd = SketchRandomness(256, 16, 72040)
        rng = np.random.default_rng(seed)
        top = int(np.iinfo(tier).max)
        sign = 1 if parked >= 0 else -1
        cell = int(rnd.cells_of(np.zeros(1, np.uint64))[0])  # item 0's
        sk = with_counter(rnd, cell, sign * (top - (top >> 3) - abs(parked)))
        assert sk.buckets.dtype == tier
        sk._bound = top
        want = sk.buckets.astype(np.int64)
        real = dynlsh.sketch._peak
        accepted, scans, widths = 0, [], [tier().itemsize]

        def counting(counters):
            scans.append((accepted, counters.dtype))
            return real(counters)

        with mock.patch.object(dynlsh.sketch, "_peak", counting):
            for k, (size, read) in enumerate(batches):
                items = rng.integers(0, spread, size=size)
                values = np.where(rng.random(size) < rise, sign, -sign)
                accepted += size
                sk.update_many(items, values)
                np.add.at(want.reshape(-1), rnd.cells_of(items.astype(np.uint64)), values)
                if read or k == len(batches) - 1:
                    got = sk.buckets
                    assert_array_equal(got, want)
                    assert sk._bound >= real(got)
                    widths.append(got.dtype.itemsize)
        assert widths == sorted(widths)
        for (was, dtype), (now, next_dtype) in zip(scans, scans[1:]):
            if dtype == next_dtype:
                assert now - was > np.iinfo(dtype).max >> 3

    def test_one_set_reads_alike_in_every_tier(self):
        """Equal distances, index entries, candidates and wire bytes for one
        set stored as int16, int32 and int64."""
        rnd = SketchRandomness(2**14, 256, 72019)
        rng = np.random.default_rng(72019)
        sets = [rng.choice(2**14, size=400, replace=False) for _ in range(3)]
        sets.append(np.append(sets[0][:360], rng.choice(2**14, size=40)))
        tiers = [[self.built_in(rnd, s, dtype) for s in sets] for dtype in (np.int16, np.int32, np.int64)]
        estimator = DistanceEstimator(jaccard(2**14), rnd)
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.01, bands_r=2, repetitions_l=3)
        wire, distances, entries, candidates = [], [], [], []
        for group in tiers:
            wire.append([sketch_to_bytes(sk) for sk in group])
            distances.append([estimator.estimate_distance(a, b) for a in group for b in group])
            index = LshIndex(cfg, rnd)
            for i, sk in enumerate(group):
                index.insert(i, sk)
            entries.append(index._entries)
            candidates.append(index.candidates())
        assert candidates[0] and 0.0 < distances[0][3] < 0.5  # sets 0 and 3 overlap
        for k in (1, 2):
            assert wire[k] == wire[0]
            assert distances[k] == distances[0]
            assert candidates[k] == candidates[0]
            for i in range(len(sets)):
                for got, want in zip(entries[k][i], entries[0][i]):
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                    else:
                        assert got == want

    def test_counters_at_the_int16_edge_estimate_like_int64_copies(self, randomness):
        """Counters at +/-(2^15 - 1) in int16, equal, opposite and against
        zero: -y.buckets in the sum count stays exact, so every shot
        equals that of the int64 copies."""
        rng = np.random.default_rng(72020)
        positions = rng.choice(randomness.num_levels * randomness.c_squared, size=40, replace=False)
        a, b = build(randomness, range(0, 600, 3)), build(randomness, range(0, 600, 5))
        for k, pos in enumerate(positions[:30].tolist()):
            a = with_counter(randomness, pos, (-1) ** k * self.TOP, a)
            b = with_counter(randomness, pos, (-1) ** (k // 2) * self.TOP, b)
        for pos in positions[30:].tolist():
            b = with_counter(randomness, pos, -self.TOP, b)
        assert a.buckets.dtype == b.buckets.dtype == np.int16
        assert (a.buckets == -b.buckets).any() and (a.buckets == b.buckets).any()
        estimator = DistanceEstimator(jaccard(1024), randomness)
        for x, y in ((a, b), (b, a), (b, b)):
            wide_x, wide_y = self.in_tier(x, np.int64), self.in_tier(y, np.int64)
            assert estimator._shots(x, y) == estimator._shots(wide_x, wide_y)
            assert estimator._shots(x, wide_y) == estimator._shots(wide_x, y)
            assert estimator.estimate_distance(x, y) == estimator.estimate_distance(wide_x, wide_y)


class TestLevelReadouts:
    def test_identical_sketches_score_one(self, randomness):
        a = build(randomness, [3, 77, 400])
        b = build(randomness, [3, 77, 400])
        assert similarity_from_level(a, b, 0, jaccard(1024)) == 1.0

    def test_disjoint_patterns_score_zero(self):
        # frozen seed: the two supports map to disjoint buckets in every row
        rnd = SketchRandomness(256, 64, 1)
        a = build(rnd, [3, 10, 20, 30])
        b = build(rnd, [100, 120, 140, 160])
        assert similarity_from_level(a, b, 0, jaccard(256)) == 0.0

    def test_pattern_magnitude_independence(self, randomness):
        """Counter magnitudes cancel out of the readout."""
        a = build(randomness, [3, 77, 400])
        doubled = merge(a, a, 1)
        params = jaccard(1024)
        b = build(randomness, [3, 77, 999])
        assert similarity_from_level(a, b, 0, params) == similarity_from_level(
            doubled, b, 0, params
        )

    def test_level_out_of_range_rejected(self, randomness):
        a = LevelSketch(randomness)
        with pytest.raises(ValueError):
            similarity_from_level(a, a, randomness.num_levels, jaccard(1024))
        with pytest.raises(ValueError):
            similarity_from_level(a, a, -1, jaccard(1024))

    def test_readout_requires_matching_randomness(self, randomness):
        other = SketchRandomness(1024, 64, 43)
        with pytest.raises(ConfigMismatchError):
            similarity_from_level(
                LevelSketch(randomness), LevelSketch(other), 0, jaccard(1024)
            )


class TestSampleLevel:
    def test_frozen_level_table(self):
        # budget eps^2 * delta * r = 0.25 * 0.1 * 0.4 = 0.01 throughout
        assert sample_level(jaccard(2**20), 0.5, 0.1, 0.4, 4096) == 5
        assert sample_level(hamming(4096), 0.5, 0.1, 0.4, 1) == 4
        assert sample_level(jaccard(2**20), 0.5, 0.1, 0.4, 8) == 0
        assert sample_level(anderberg(2**20), 0.5, 0.1, 0.4, 12288) == 5
        assert sample_level(rogers_tanimoto(12288), 0.5, 0.1, 0.4, 1) == 5

    def test_scaled_weights_use_the_same_rule(self):
        assert sample_level(jaccard(2**20).scaled(7.0), 0.5, 0.1, 0.4, 4096) == 5

    def test_general_fallback_rule(self):
        # (eps/5)^2 * delta * r * size / max(x+y, z'+y, z+y)
        # = 0.01 * 0.1 * 0.4 * 1e6 / 4 = 100 -> floor(log2) = 6
        params = RationalSimilarity(2.0, 1.0, 1.0, 3.0, 2**20)
        assert sample_level(params, 0.5, 0.1, 0.4, 10**6) == 6

    def test_level_clamped_to_universe(self):
        assert sample_level(jaccard(16), 0.9, 0.9, 0.9, 10**6) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_level(jaccard(16), 1.0, 0.1, 0.4, 8)
        with pytest.raises(ValueError):
            sample_level(jaccard(16), 0.5, 0.0, 0.4, 8)
        with pytest.raises(ValueError):
            sample_level(jaccard(16), 0.5, 0.1, 0.4, 0)
        with pytest.raises(ValueError):
            sample_level(RationalSimilarity(0.0, 0.0, 0.0, 0.0, 16), 0.5, 0.1, 0.4, 8)


@st.composite
def _count_rows(draw):
    """(rows, c^2): up to 4 count rows of one length 1..64, c^2 in 2..2^14, counts in
    [0, c^2]; each row keeps its counts at most c^2 / 2 from a drawn depth on."""
    levels, c2 = draw(st.integers(1, 64)), draw(st.integers(2, 2**14))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        depth = draw(st.integers(0, levels))
        over = draw(st.lists(st.integers(0, c2), min_size=depth, max_size=depth))
        under = st.lists(st.integers(0, c2 // 2), min_size=levels - depth, max_size=levels - depth)
        rows.append(over + draw(under))
    return rows, c2


class TestL0Estimate:
    def test_empty_sketch_estimates_zero(self, randomness):
        assert l0_estimate(LevelSketch(randomness)) == 0.0

    def test_single_item_is_exact(self):
        sk = LevelSketch(SketchRandomness(1024, 64, 7))
        sk.update(5, 1)
        assert l0_estimate(sk) == 1.0

    def test_estimate_ignores_counter_magnitude(self, randomness):
        sk = build(randomness, [4, 44, 444])
        assert l0_estimate(merge(sk, sk, 1)) == l0_estimate(sk)

    def test_relative_error_at_moderate_size(self):
        """4096 items in 1024 buckets stay within 15% across 20 seeds.

        Observed worst case for these seeds is about 9.2%.
        """
        worst = 0.0
        for s in range(20):
            rng = np.random.default_rng(73000 + s)
            rnd = SketchRandomness(2**18, 1024, 73000 + s)
            sk = LevelSketch(rnd)
            sk.update_many(rng.choice(2**18, size=4096, replace=False), 1)
            worst = max(worst, abs(l0_estimate(sk) - 4096) / 4096)
        assert worst <= 0.15

    def test_difference_sketch_measures_symmetric_difference(self):
        rng = np.random.default_rng(73200)
        rnd = SketchRandomness(2**16, 1024, 73200)
        shared = rng.choice(2**16, size=3000, replace=False)
        a = build(rnd, shared[:2000])
        b = build(rnd, shared[1000:])
        diff = merge(a, b, -1)
        estimate = l0_estimate(diff)
        assert abs(estimate - 2000) / 2000 <= 0.15


    def test_batched_inversion_matches_the_scalar_reference_bit_for_bit(self):
        rng = np.random.default_rng(73300)
        for d, c2 in ((1, 2), (1000, 2), (1000, 64), (2**16, 1024)):
            rnd = SketchRandomness(d, c2, 73300)
            sketches = [LevelSketch(rnd)]
            for size in (1, 10, 300, 5000):
                sk = LevelSketch(rnd)
                sk.update_many(rng.integers(0, d, size=size), rng.choice([-1, 1], size=size))
                sketches += [sk, merge(sk, sketches[-1], 1)]
            saturated = np.ones((rnd.num_levels, c2), dtype=np.int64)  # no level eligible
            counters = [sk.buckets for sk in sketches] + [saturated]
            nz = np.array([np.count_nonzero(b, axis=1) for b in counters])
            want = [_l0_reference(b) for b in counters]
            assert [float(v).hex() for v in l0_from_row_counts(nz, c2)] == [w.hex() for w in want]
            assert [l0_estimate(sk).hex() for sk in sketches] == [w.hex() for w in want[:-1]]
            empty = l0_from_row_counts(np.zeros((0, rnd.num_levels), np.int64), c2)
            assert empty.dtype == np.float64 and empty.shape == (0,)
        # rows that all choose level 0: 20 items never fill a row past c^2 / 2
        rnd = SketchRandomness(1000, 64, 73300)
        one_level = [build(rnd, rng.choice(1000, size=20, replace=False)).buckets for _ in range(5)]
        # a live query at d = 2^20, c^2 = 256: the difference and sum rows of
        # two near-equal sets choose different levels
        rnd = SketchRandomness(2**20, 256, 73300)
        pool = rng.choice(2**20, size=40_100, replace=False)
        a, b = build(rnd, pool[:40_000]), build(rnd, pool[100:])
        live_query = [merge(a, b, -1).buckets, merge(a, b, 1).buckets]
        for counters, distinct_levels in ((one_level, 1), (live_query, 2)):
            assert len({_l0_level(x) for x in counters}) == distinct_levels
            nz = np.array([np.count_nonzero(x, axis=1) for x in counters])
            c2 = counters[0].shape[1]
            want = [_l0_reference(x).hex() for x in counters]
            assert [float(v).hex() for v in l0_from_row_counts(nz, c2)] == want

    def test_level_groups_give_each_row_its_own_bits(self):
        """Rows that all choose one level give the same bits alone as beside
        a row of another level, and mixed levels give each row's bits alone."""
        rng = np.random.default_rng(73302)
        c2, levels = 256, 21
        half = c2 // 2

        def at_level(n, k):
            """n count rows whose first tail with every row at most c^2 / 2 starts at level k."""
            nz = rng.integers(0, half + 1, size=(n, levels))
            nz[:, :k] = rng.integers(half + 1, c2 + 1, size=(n, k))
            return nz

        saturated = rng.integers(half + 1, c2 + 1, size=(5, levels))  # fall to the deepest row
        for nz in (
            at_level(1, 0), at_level(2000, 0), at_level(20000, 0), at_level(2000, 3),
            at_level(7, levels - 1), saturated, np.zeros((3, levels), np.int64),
        ):
            one_group = l0_from_row_counts(nz, c2)
            grouped = l0_from_row_counts(np.vstack([nz, at_level(1, 5)]), c2)[:-1]  # level 5 is new
            assert [v.hex() for v in one_group.tolist()] == [v.hex() for v in grouped.tolist()]
        mixed = np.vstack([at_level(40, k) for k in (0, 2, 9, levels - 1)] + [saturated])
        together = l0_from_row_counts(mixed, c2).tolist()
        alone = [float(l0_from_row_counts(row[None, :], c2)[0]) for row in mixed]
        assert [v.hex() for v in together] == [v.hex() for v in alone]
        assert l0_from_row_counts(np.zeros((0, levels), np.int64), c2).shape == (0,)

    @given(_count_rows())
    @settings(max_examples=300, deadline=None)
    @example(([[0] * 21], 256))  # all zero
    @example(([[129] * 21, [256] * 21], 256))  # every row over c^2 / 2
    @example(([[2]], 2))
    @example(([[0] * 20 + [129], [128] * 20 + [256]], 256))  # only the deepest row over
    @example(([[5] * 10 + [129] + [0] * 10, [256] + [0] * 20], 256))  # zeros after the last one over
    def test_one_sketch_readout_equals_its_row_of_the_batch(self, case):
        """_l0_from_counts on one sketch's counts gives the bits of that sketch's
        row of l0_from_row_counts, signed zeros included."""
        rows, c2 = case
        want = [v.hex() for v in l0_from_row_counts(np.array(rows), c2).tolist()]
        assert [_l0_from_counts(row, c2).hex() for row in rows] == want

    def test_occupancy_terms_gather_equals_the_expression_bit_for_bit(self):
        """The cached table gathers the terms the per-row expression computes,
        over every count k = 0..c^2 and over a live-query-shaped count array."""
        rng = np.random.default_rng(73301)
        for c2 in (2, 64, 1024):
            table = dynlsh.sketch._occupancy_terms(c2)
            assert dynlsh.sketch._occupancy_terms(c2) is table
            assert not table.flags.writeable
            for nz in (np.arange(c2 + 1), rng.integers(0, c2 + 1, size=(242, 15))):
                want = np.log1p(-np.minimum(nz, c2 - 1) / c2)
                assert_array_equal(table[nz].view(np.int64), want.view(np.int64))


def _l0_level(buckets):
    """The tail level l0_estimate reads for one counter matrix, as _l0_reference picks it."""
    nz = np.count_nonzero(buckets, axis=1)
    suffix_max = np.maximum.accumulate(nz[::-1])[::-1]
    eligible = np.flatnonzero(suffix_max <= buckets.shape[1] / 2)
    return int(eligible[0]) if eligible.size else int(len(nz) - 1)


def _l0_reference(buckets):
    """l0_estimate on one counter matrix, written as a plain one-sketch scan."""
    nz = np.count_nonzero(buckets, axis=1)
    if not nz.any():
        return 0.0
    c2 = buckets.shape[1]
    suffix_max = np.maximum.accumulate(nz[::-1])[::-1]
    eligible = np.flatnonzero(suffix_max <= c2 / 2)
    k = int(eligible[0]) if eligible.size else int(len(nz) - 1)
    rows = np.minimum(nz[k:], c2 - 1)
    corrected = np.log1p(-rows / c2).sum() / math.log1p(-1.0 / c2)
    return float(2.0**k * corrected)


class TestLowSimilarityOvershoot:
    def test_low_pairs_rarely_overshoot_the_retrieval_band(self):
        """A similarity-0.05 pair read at its sampling level stays below
        S / (delta * (1 - (eps/5) * sqrt(r1))) in at least 80% of seeds.

        With eps=0.5, delta=0.1, r1=0.5 the ceiling is about 10.8x the
        true similarity; for these 100 frozen seeds no estimate crosses
        it at all.
        """
        d, c2, m = 2**20, 1024, 4096
        target = 0.05
        inter = round(2 * m * target / (1 + target))
        pool = np.random.default_rng(76300).choice(d, size=2 * m - inter, replace=False)
        A, B = pool[:m], pool[m - inter :]
        params = jaccard(d)
        exact = inter / (2 * m - inter)
        ceiling = exact / (0.1 * (1.0 - (0.5 / 5.0) * np.sqrt(0.5)))
        k = sample_level(params, 0.5, 0.1, 0.5, m)
        over = 0
        for s in range(100):
            rnd = SketchRandomness(d, c2, 76400 + s)
            estimate = similarity_from_level(build(rnd, A), build(rnd, B), k, params)
            over += estimate > ceiling
        assert over / 100 <= 0.2
