"""Distance estimation from sketches: the call surface, one slot's estimate, and accuracy."""

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


# one slot's row width in the accuracy tests: fewer counters a row than
# nine slots of c^2 = 1,024
WIDE_C2 = 8192


def planted_pair(rng, d, m, similarity):
    """Two m-item sets with exactly the requested Jaccard similarity."""
    inter = round(2 * m * similarity / (1 + similarity))
    pool = rng.choice(d, size=2 * m - inter, replace=False)
    return pool[:m], pool[m - inter :]


class TestConstruction:
    def test_a_sequence_of_randomness_is_refused(self):
        r = SketchRandomness(1024, 64, 0)
        for randomness in ([r], (r, r, r)):
            with pytest.raises(TypeError, match="expected one SketchRandomness"):
                DistanceEstimator(jaccard(1024), randomness)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ConfigMismatchError):
            DistanceEstimator(jaccard(2048), SketchRandomness(1024, 64, 0))

    def test_call_side_validation(self):
        rnd = SketchRandomness(1024, 64, 2)
        est = DistanceEstimator(jaccard(1024), rnd)
        a, b = build(rnd, [1, 2]), build(rnd, [2, 3])
        for call in (est.estimate_distance, est.estimate_similarity_additive):
            for x, y in (([a], [b]), (a, [b]), ([a], b)):
                with pytest.raises(TypeError, match="one LevelSketch per side"):
                    call(x, y)
        stranger = build(SketchRandomness(1024, 64, 999), [1, 2])
        with pytest.raises(ConfigMismatchError):
            est.estimate_distance(stranger, b)
        with pytest.raises(ConfigMismatchError):
            est.estimate_distance(a, stranger)


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

    def test_all_zero_weights_give_distance_zero(self):
        """x = y = z = z' = 0 makes every similarity 1, so every estimate is 0.0."""
        d = 2**12
        rnd = SketchRandomness(d, 64, 75150)
        est = DistanceEstimator(RationalSimilarity(0.0, 0.0, 0.0, 0.0, d), rnd)
        a, b = build(rnd, range(0, 400)), build(rnd, range(300, 3000))
        assert [est.estimate_distance(x, y) for x in (a, b) for y in (a, b)] == [0.0] * 4

    def test_identical_sets_give_exact_zero(self):
        rnd = SketchRandomness(4096, 128, 3)
        est = DistanceEstimator(jaccard(4096), rnd)
        a, b = build(rnd, [5, 6, 700]), build(rnd, [5, 6, 700])
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
        rnd = SketchRandomness(4096, 128, 3)
        est = DistanceEstimator(RationalSimilarity(*weights, 4096), rnd)
        a, b = build(rnd, [5, 6, 700, 4000]), build(rnd, [5, 6, 700, 4000])
        assert est.estimate_distance(a, b) == 0.0
        assert est.estimate_similarity_additive(a, b) == 1.0

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(75001)
        rnd = SketchRandomness(4096, 128, 4)
        est = DistanceEstimator(jaccard(4096), rnd)
        a = build(rnd, rng.choice(4096, size=200, replace=False))
        b = build(rnd, rng.choice(4096, size=150, replace=False))
        assert est.estimate_distance(a, b) == est.estimate_distance(b, a)

    def test_non_metric_weights_rejected(self):
        rnd = SketchRandomness(1024, 64, 5)
        est = DistanceEstimator(sorensen_dice(1024), rnd)
        sketch = build(rnd, [1])
        with pytest.raises(ValueError, match="metric"):
            est.estimate_distance(sketch, sketch)

    def test_scale_invariance_is_bit_identical(self):
        rng = np.random.default_rng(75002)
        rnd = SketchRandomness(4096, 128, 7)
        a = build(rnd, rng.choice(4096, size=300, replace=False))
        b = build(rnd, rng.choice(4096, size=300, replace=False))
        for family in (jaccard, hamming):
            reference = DistanceEstimator(family(4096), rnd).estimate_distance(a, b)
            for factor in (2.0, 3.0, 7.0, 0.5):
                scaled = DistanceEstimator(family(4096).scaled(factor), rnd)
                assert scaled.estimate_distance(a, b) == reference

    def test_planted_jaccard_distance_half(self):
        """40 estimator seeds on one distance-0.5 pair, all within 50%."""
        d, c2, m = 2**20, WIDE_C2, 4096
        rng = np.random.default_rng(74100)
        A, B = planted_pair(rng, d, m, 0.5)
        params = jaccard(d)
        exact = exact_distance(params, set(A.tolist()), set(B.tolist()))
        assert_allclose(exact, 0.5, atol=1e-3)
        hits = 0
        for s in range(40):
            rnd = SketchRandomness(d, c2, 74200 + s)
            value = DistanceEstimator(params, rnd).estimate_distance(build(rnd, A), build(rnd, B))
            hits += abs(value - exact) <= 0.5 * exact
        assert hits == 40

    def test_hamming_disjoint_halves_estimate_near_one(self):
        d = 2**14
        A = np.arange(0, d // 2)
        B = np.arange(d // 2, d)
        hits = 0
        for s in range(40):
            rnd = SketchRandomness(d, WIDE_C2, 74300 + s)
            value = DistanceEstimator(hamming(d), rnd).estimate_distance(build(rnd, A), build(rnd, B))
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
            rnd = SketchRandomness(d, WIDE_C2, 74500 + s)
            value = DistanceEstimator(params, rnd).estimate_distance(build(rnd, A), build(rnd, B))
            hits += abs(value - exact) <= 0.5 * exact + 0.02
        assert hits == 40

    def test_complement_route_memory_does_not_grow_with_d(self):
        """The x < y route reads only the two sketches, never the universe."""
        d = 2**22
        rnd = SketchRandomness(d, 64, 74800)
        est = DistanceEstimator(RationalSimilarity(0.0, 1.0, 0.0, 1.0, d), rnd)
        a, b = build(rnd, [1, 2, 3]), build(rnd, [3, 4])
        tracemalloc.start()
        try:
            est.estimate_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestOneWideSlot:
    @pytest.mark.parametrize("similarity", [0.1, 0.5])
    def test_fails_no_more_often_than_a_median_of_nine_narrow_slots(self, similarity):
        """One slot at c^2 = 2,048 against the median of nine one-slot
        estimates at c^2 = 256 (2,304 counters a row), over 100 seeds of a
        planted pair: the wide slot misses the exact distance by more than
        10% no more often."""
        d, m = 2**20, 1024
        params = jaccard(d)
        wide_misses = narrow_misses = 0
        for s in range(100):
            A, B = planted_pair(np.random.default_rng(77000 + s), d, m, similarity)
            exact = exact_distance(params, set(A.tolist()), set(B.tolist()))

            def estimate(rnd):
                return DistanceEstimator(params, rnd).estimate_distance(build(rnd, A), build(rnd, B))

            wide = estimate(SketchRandomness(d, 2048, 77000 + s))
            narrow = statistics.median(estimate(SketchRandomness(d, 256, 77100 + 9 * s + i)) for i in range(9))
            wide_misses += abs(wide - exact) > 0.1 * exact
            narrow_misses += abs(narrow - exact) > 0.1 * exact
        assert wide_misses <= narrow_misses


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


class TestAdditiveSimilarity:
    def test_identical_sets_give_exact_one(self):
        rnd = SketchRandomness(4096, 128, 12)
        est = DistanceEstimator(jaccard(4096), rnd)
        a, b = build(rnd, [44, 90]), build(rnd, [44, 90])
        assert est.estimate_similarity_additive(a, b) == 1.0

    def test_non_metric_weights_are_allowed_here(self):
        rnd = SketchRandomness(1024, 64, 14)
        est = DistanceEstimator(sorensen_dice(1024), rnd)
        a, b = build(rnd, [1, 2, 3]), build(rnd, [2, 3, 4])
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
            rnd = SketchRandomness(d, WIDE_C2, 74900 + s)
            est = DistanceEstimator(jaccard(d), rnd)
            high_hits += abs(est.estimate_similarity_additive(build(rnd, A), build(rnd, B)) - exact) <= 0.1
            low_hits += est.estimate_similarity_additive(build(rnd, disjoint_a), build(rnd, disjoint_b)) <= 0.2
        assert high_hits == 40
        assert low_hits == 40
