"""Distance estimation from sketches: per-slot shots, their median, and accuracy."""

import statistics
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynlsh import (
    ConfigMismatchError,
    DistanceEstimator,
    LevelSketch,
    RationalSimilarity,
    SketchRandomness,
    exact_distance,
    exact_similarity,
    hamming,
    jaccard,
    l0_estimate,
    merge,
    sketch_from_bytes,
    sketch_to_bytes,
    sorensen_dice,
)


def build(randomness, items):
    sk = LevelSketch(randomness)
    arr = np.asarray(items, dtype=np.int64)
    if arr.size:
        sk.update_many(arr, 1)
    return sk


def _distance_reference(p, a, b):
    """One-slot distance from the two merged sketches, in scalar float math."""
    x, y, z = p.x / p.z_prime, p.y / p.z_prime, p.z / p.z_prime
    sym = l0_estimate(merge(a, b, -1))
    union = l0_estimate(merge(a, b, 1))
    if x >= y:
        denom = y * p.d + (x - y) * union + (1.0 - x) * sym
    else:
        comp_union = p.d - (a.cardinality + b.cardinality - union)
        denom = (y - x) * comp_union + x * p.d + (1.0 - y) * sym
    return 0.0 if denom <= 0.0 else (1.0 - z) * sym / denom


def make_slots(d, c_squared, seed, repetitions=9):
    master = SketchRandomness(d, c_squared, seed)
    return [master.spawn(i) for i in range(repetitions)]


def planted_pair(rng, d, m, similarity):
    """Two m-item sets with exactly the requested Jaccard similarity."""
    inter = round(2 * m * similarity / (1 + similarity))
    pool = rng.choice(d, size=2 * m - inter, replace=False)
    return pool[:m], pool[m - inter :]


class TestConstruction:
    def test_even_slot_count_rejected(self):
        slots = make_slots(1024, 64, 1, repetitions=2)
        with pytest.raises(ValueError):
            DistanceEstimator(jaccard(1024), slots)
        with pytest.raises(ValueError):
            DistanceEstimator(jaccard(1024), [])

    def test_mixed_slot_shapes_rejected(self):
        slots = [SketchRandomness(1024, 64, 0), SketchRandomness(1024, 128, 1),
                 SketchRandomness(1024, 64, 2)]
        with pytest.raises(ConfigMismatchError):
            DistanceEstimator(jaccard(1024), slots)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ConfigMismatchError):
            DistanceEstimator(jaccard(2048), SketchRandomness(1024, 64, 0))

    def test_single_randomness_means_one_repetition(self):
        est = DistanceEstimator(jaccard(1024), SketchRandomness(1024, 64, 0))
        assert est.repetitions == 1

    def test_call_side_validation(self):
        slots = make_slots(1024, 64, 2, repetitions=3)
        est = DistanceEstimator(jaccard(1024), slots)
        sketches = [build(r, [1, 2]) for r in slots]
        with pytest.raises(ConfigMismatchError):
            est.estimate_distance(sketches[:2], sketches[:2] + sketches[:1])
        stranger = build(SketchRandomness(1024, 64, 999), [1, 2])
        with pytest.raises(ConfigMismatchError):
            est.estimate_distance([stranger] * 3, sketches)


class TestEstimateDistance:
    def test_matches_the_merge_reference_bit_for_bit(self):
        rng = np.random.default_rng(75100)
        d = 2**12
        rnd = SketchRandomness(d, 64, 75100)
        sketches = [LevelSketch(rnd)]
        for size in (1, 40, 400, 3000):
            sk = LevelSketch(rnd)
            sk.update_many(rng.choice(d, size=size, replace=False), 1)
            sketches.append(sk)
        for params in (
            jaccard(d),
            hamming(d),
            RationalSimilarity(0.5, 1.0, 0.0, 1.0, d),
            # every term of either denominator nonzero, so the float order shows
            RationalSimilarity(0.6, 0.3, 0.1, 1.3, d),
            RationalSimilarity(0.3, 0.7, 0.1, 1.3, d),
        ):
            est = DistanceEstimator(params, rnd)
            for a in sketches:
                for b in sketches:
                    want = _distance_reference(params, a, b)
                    assert est.estimate_distance(a, b).hex() == want.hex()

    def test_many_slots_give_the_median_of_the_single_slot_estimates(self):
        """Nine slots scored in one pass equal the median of nine one-slot estimators, bit for bit."""
        rng = np.random.default_rng(75200)
        d = 2**12
        slots = make_slots(d, 64, 75200)
        A = rng.choice(d, size=500, replace=False)
        B = np.concatenate([A[:300], rng.choice(d, size=150, replace=False)])
        a = [build(r, A) for r in slots]
        b = [build(r, np.unique(B)) for r in slots]
        for params in (jaccard(d), hamming(d)):
            singles = [
                DistanceEstimator(params, r).estimate_distance(x, y) for r, x, y in zip(slots, a, b)
            ]
            assert len(set(singles)) > 1  # the slots disagree, so the median picks one
            got = DistanceEstimator(params, slots).estimate_distance(a, b)
            assert got.hex() == statistics.median(singles).hex()

    def test_identical_sets_give_exact_zero(self):
        slots = make_slots(4096, 128, 3)
        est = DistanceEstimator(jaccard(4096), slots)
        a = [build(r, [5, 6, 700]) for r in slots]
        b = [build(r, [5, 6, 700]) for r in slots]
        assert est.estimate_distance(a, b) == 0.0

    @pytest.mark.parametrize(
        "weights",
        [
            (1.0, 1.0, 0.0, 1.0),
            (1.0, 0.0, 0.0, 2.0),
            (1.0, 1.0, 0.0, 2.0),
            (1.0, 2.0, 0.0, 2.0),
            (1.0, 0.5, 0.75, 1.0),
        ],
        ids=["hamming", "anderberg", "rogers-tanimoto", "complement-route", "mixed"],
    )
    def test_identical_sets_give_exact_zero_under_any_metric_weights(self, weights):
        """Identical sketches leave no symmetric difference, so every metric
        weighting, the complement route (y > x) too, reads exactly 0 and its
        additive similarity exactly 1."""
        slots = make_slots(4096, 128, 3)
        est = DistanceEstimator(RationalSimilarity(*weights, 4096), slots)
        a = [build(r, [5, 6, 700, 4000]) for r in slots]
        b = [build(r, [5, 6, 700, 4000]) for r in slots]
        assert est.estimate_distance(a, b) == 0.0
        assert est.estimate_similarity_additive(a, b) == 1.0

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(75001)
        slots = make_slots(4096, 128, 4, repetitions=3)
        est = DistanceEstimator(jaccard(4096), slots)
        A = rng.choice(4096, size=200, replace=False)
        B = rng.choice(4096, size=150, replace=False)
        a = [build(r, A) for r in slots]
        b = [build(r, B) for r in slots]
        assert est.estimate_distance(a, b) == est.estimate_distance(b, a)

    def test_non_metric_weights_rejected(self):
        slots = make_slots(1024, 64, 5)
        est = DistanceEstimator(sorensen_dice(1024), slots)
        pair = [build(r, [1]) for r in slots]
        with pytest.raises(ValueError, match="metric"):
            est.estimate_distance(pair, pair)

    def test_scale_invariance_is_bit_identical(self):
        rng = np.random.default_rng(75002)
        slots = make_slots(4096, 128, 7, repetitions=3)
        A = rng.choice(4096, size=300, replace=False)
        B = rng.choice(4096, size=300, replace=False)
        a = [build(r, A) for r in slots]
        b = [build(r, B) for r in slots]
        for family in (jaccard, hamming):
            reference = DistanceEstimator(family(4096), slots).estimate_distance(a, b)
            for factor in (2.0, 3.0, 7.0, 0.5):
                scaled = DistanceEstimator(family(4096).scaled(factor), slots)
                assert scaled.estimate_distance(a, b) == reference

    def test_planted_jaccard_distance_half(self):
        """40 estimator seeds on one distance-0.5 pair, all within 50%."""
        d, c2, m = 2**20, 1024, 4096
        rng = np.random.default_rng(74100)
        A, B = planted_pair(rng, d, m, 0.5)
        params = jaccard(d)
        exact = exact_distance(params, set(A.tolist()), set(B.tolist()))
        assert_allclose(exact, 0.5, atol=1e-3)
        hits = 0
        for s in range(40):
            slots = make_slots(d, c2, 74200 + s)
            est = DistanceEstimator(params, slots)
            value = est.estimate_distance([build(r, A) for r in slots],
                                          [build(r, B) for r in slots])
            hits += abs(value - exact) <= 0.5 * exact
        assert hits == 40

    def test_hamming_disjoint_halves_estimate_near_one(self):
        d = 2**14
        A = np.arange(0, d // 2)
        B = np.arange(d // 2, d)
        hits = 0
        for s in range(40):
            slots = make_slots(d, 1024, 74300 + s)
            est = DistanceEstimator(hamming(d), slots)
            value = est.estimate_distance([build(r, A) for r in slots],
                                          [build(r, B) for r in slots])
            hits += abs(value - 1.0) <= 0.2
        assert hits == 40

    def test_complement_route_when_y_dominates(self):
        """Weights (0, 1, 0, 1) score by the complement of the union."""
        d = 2**14
        params = RationalSimilarity(0.0, 1.0, 0.0, 1.0, d)
        rng = np.random.default_rng(74400)
        A = rng.choice(d, size=1000, replace=False)
        extra = rng.choice(np.setdiff1d(np.arange(d), A), size=300, replace=False)
        B = np.concatenate([A[:700], extra])
        exact = exact_distance(params, set(A.tolist()), set(B.tolist()))
        hits = 0
        for s in range(40):
            slots = make_slots(d, 1024, 74500 + s)
            est = DistanceEstimator(params, slots)
            value = est.estimate_distance([build(r, A) for r in slots],
                                          [build(r, B) for r in slots])
            hits += abs(value - exact) <= 0.5 * exact + 0.02
        assert hits == 40

    def test_complement_route_memory_does_not_grow_with_d(self):
        """The x < y route reads only the two sketches, never the universe."""
        d = 2**22
        slots = make_slots(d, 64, 74800, repetitions=3)
        est = DistanceEstimator(RationalSimilarity(0.0, 1.0, 0.0, 1.0, d), slots)
        a = [build(r, [1, 2, 3]) for r in slots]
        b = [build(r, [3, 4]) for r in slots]
        tracemalloc.start()
        try:
            est.estimate_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def from_counters(randomness, counters, cardinality):
    """A sketch holding exactly these counters and cardinality, loaded through the wire format."""
    raw = bytearray(sketch_to_bytes(LevelSketch(randomness)))
    body = np.asarray(counters, dtype="<i8").tobytes()
    raw[len(raw) - len(body) :] = body
    struct.pack_into("<q", raw, 33, cardinality)  # after the length, version, d, c^2 and levels
    return sketch_from_bytes(bytes(raw), randomness)


def batch_estimate(est, a, b):
    """One slot's estimate of (a, b) through distances_from_counts, the path LshIndex.search takes."""
    sym = (a.buckets != b.buckets).sum(axis=1)
    union = (a.buckets != -b.buckets).sum(axis=1)
    card = np.array([a.cardinality + b.cardinality])
    return float(est.distances_from_counts(sym[None, :], union[None, :], card)[0])


@pytest.fixture(scope="module")
def live_pairs():
    """Sketch pairs at the live-query shape (d = 2^20, c^2 = 256), one per case."""
    d = 2**20
    rnd = SketchRandomness(d, 256, 76100)
    rng = np.random.default_rng(76100)
    pool = rng.choice(d, size=40_100, replace=False)
    ones = np.ones((rnd.num_levels, rnd.c_squared), np.int64)
    pairs = {
        "empty": (LevelSketch(rnd), LevelSketch(rnd)),
        "identical": (build(rnd, pool[:300]), build(rnd, pool[:300])),
        # every row of both merges has more than c^2 / 2 nonzeros: the deepest row is read
        "saturated": (from_counters(rnd, ones, ones.size), from_counters(rnd, 2 * ones, 2 * ones.size)),
        # near-equal large sets: the difference reads level 0, the sum a deep level
        "split-levels": (build(rnd, pool[:40_000]), build(rnd, pool[100:])),
        "overlapping": (build(rnd, pool[:900]), build(rnd, pool[600:2000])),
    }
    return rnd, pairs


class TestOneSlotQuery:
    """One slot is scored without the batch arrays, with the same float operations."""

    def test_the_cases_read_what_they_name(self, live_pairs):
        rnd, pairs = live_pairs
        half = rnd.c_squared // 2

        def counts(a, b):
            return (a.buckets != b.buckets).sum(axis=1), (a.buckets != -b.buckets).sum(axis=1)

        sym, union = counts(*pairs["saturated"])
        assert sym.min() > half and union.min() > half
        sym, union = counts(*pairs["split-levels"])
        assert sym.max() <= half < union[0]  # level 0 against a deeper level
        assert not counts(*pairs["identical"])[0].any()

    @pytest.mark.parametrize(
        "weights",
        [(1.0, 0.0, 0.0, 1.0), (1.0, 1.0, 0.0, 1.0), (0.5, 0.25, 0.0, 1.0), (0.25, 0.5, 0.0, 1.0)],
        ids=["jaccard", "hamming", "three-terms", "complement-route"],
    )
    def test_matches_distances_from_counts_bit_for_bit(self, live_pairs, weights):
        rnd, pairs = live_pairs
        params = RationalSimilarity(*weights, rnd.d)
        est = DistanceEstimator(params, rnd)
        for name, (a, b) in pairs.items():
            want = batch_estimate(est, a, b)
            assert _distance_reference(params, a, b).hex() == want.hex(), name
            assert est.estimate_distance(a, b).hex() == want.hex(), name
            assert est.estimate_similarity_additive(a, b).hex() == max(0.0, 1.0 - want).hex(), name
            if name in ("empty", "identical"):
                assert est.estimate_distance(a, b).hex() == (0.0).hex()

    @pytest.mark.parametrize("bits", [14, 15])
    def test_full_rows_count_exactly_at_the_accumulator_edge(self, bits):
        """The deepest row holds c^2 nonzero counters that differ in every
        bucket and are never opposite, so both merges count c^2 there:
        int16 holds 2^14, and at 2^15 an int16 row sum would wrap."""
        rnd = SketchRandomness(2**16, 2**bits, 76300)
        rng = np.random.default_rng(76300 + bits)
        shape = (rnd.num_levels, rnd.c_squared)
        x = rng.integers(1, 4, shape) * (rng.random(shape) < 0.2)
        y = rng.integers(1, 4, shape) * (rng.random(shape) < 0.2)
        x[-1] = rng.integers(1, 4, rnd.c_squared)
        y[-1] = x[-1] + rng.integers(1, 4, rnd.c_squared)
        a, b = from_counters(rnd, x, int(x.sum())), from_counters(rnd, y, int(y.sum()))
        assert (x != y).sum(axis=1)[-1] == (x != -y).sum(axis=1)[-1] == rnd.c_squared
        est = DistanceEstimator(jaccard(rnd.d), rnd)
        for p, q in ((a, b), (b, a)):
            assert est.estimate_distance(p, q).hex() == batch_estimate(est, p, q).hex()

    def test_three_slots_take_the_median_of_their_shots(self):
        rng = np.random.default_rng(76200)
        d = 2**14
        slots = make_slots(d, 256, 76200, repetitions=3)
        A = rng.choice(d, size=900, replace=False)
        B = np.concatenate([A[:500], rng.choice(np.setdiff1d(np.arange(d), A), size=300, replace=False)])
        a, b = [build(r, A) for r in slots], [build(r, B) for r in slots]
        for weights in ((1.0, 0.0, 0.0, 1.0), (0.5, 1.0, 0.0, 1.0)):
            est = DistanceEstimator(RationalSimilarity(*weights, d), slots)
            shots = [batch_estimate(est, x, y) for x, y in zip(a, b)]
            assert len(set(shots)) == 3  # the slots disagree, so the median picks one
            assert est.estimate_distance(a, b).hex() == statistics.median(shots).hex()


class TestAdditiveSimilarity:
    def test_identical_sets_give_exact_one(self):
        slots = make_slots(4096, 128, 12)
        est = DistanceEstimator(jaccard(4096), slots)
        a = [build(r, [44, 90]) for r in slots]
        b = [build(r, [44, 90]) for r in slots]
        assert est.estimate_similarity_additive(a, b) == 1.0

    def test_non_metric_weights_are_allowed_here(self):
        slots = make_slots(1024, 64, 14)
        est = DistanceEstimator(sorensen_dice(1024), slots)
        a = [build(r, [1, 2, 3]) for r in slots]
        b = [build(r, [2, 3, 4]) for r in slots]
        assert 0.0 <= est.estimate_similarity_additive(a, b) <= 1.0

    def test_planted_high_and_disjoint_low(self):
        d = 2**14
        rng = np.random.default_rng(74800)
        A, B = planted_pair(rng, d, 1000, 0.9)
        exact = exact_similarity(jaccard(d), set(A.tolist()), set(B.tolist()))
        high_hits = low_hits = 0
        disjoint_a = np.arange(0, 1000)
        disjoint_b = np.arange(2000, 3000)
        for s in range(40):
            slots = make_slots(d, 1024, 74900 + s)
            est = DistanceEstimator(jaccard(d), slots)
            a = [build(r, A) for r in slots]
            b = [build(r, B) for r in slots]
            high_hits += abs(est.estimate_similarity_additive(a, b) - exact) <= 0.1
            da = [build(r, disjoint_a) for r in slots]
            db = [build(r, disjoint_b) for r in slots]
            low_hits += est.estimate_similarity_additive(da, db) <= 0.2
        assert high_hits == 40
        assert low_hits == 40
