"""Distance estimation from pairs of level sketches.

The rational distance 1 - S decomposes into a weighted sum of set sizes
that are all recoverable from linear sketches: |A ^ B| is the number of
nonzero entries of the difference sketch, |A | B| of the sum sketch, and
the exact cardinalities |A| and |B| ride along in the sketches themselves.
For weights with x >= y,

    denominator = y*d + (x - y)*|A | B| + (z' - x)*|A ^ B|

and for x < y the complement sets take over:

    denominator = (y - x)*|~A | ~B| + x*d + (z' - y)*|A ^ B|

where |~A | ~B| = d - |A & B| = d - (|A| + |B| - |A | B|) comes from the
same two merges (complement symmetric differences coincide with the
original ones).  The distance is (z' - z)*|A ^ B| / denominator.  An
estimator reads one randomness slot: a wider c^2 buys the accuracy that a
median of narrower slots with as many counters does not (see README).

Both l0 estimates read only the per-row nonzero counts of the two merges,
so a pair's distance is a function of those counts and |A| + |B|;
DistanceEstimator.distances_from_counts evaluates it for many pairs at
once through l0_from_row_counts, and each estimate inverts its two count
rows one sketch at a time through _l0_from_counts, with the same bits;
both then apply the one formula, DistanceEstimator._distance.  The counts need no merged sketch: A - B is
nonzero where the counters differ and A + B where they are not opposite.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigMismatchError
from .hashing import SketchRandomness
from .similarity import RationalSimilarity, is_metric
from .sketch import LevelSketch, _l0_from_counts, _narrowest_signed, l0_from_row_counts


class DistanceEstimator:
    """Estimates rational distances between sketched sets.

    Construct with the similarity weights and the one SketchRandomness the
    sketches were built from; estimate calls take one LevelSketch per side.
    Every estimate counts the per-row nonzeros of the sum and difference
    sketches, inverts each count row with _l0_from_counts and applies
    _distance.  Estimates are unclamped; only the additive similarity path
    clamps (below at 0) for reporting.
    """

    def __init__(self, params: RationalSimilarity, randomness: SketchRandomness) -> None:
        if not isinstance(randomness, SketchRandomness):
            raise TypeError(f"expected one SketchRandomness, got {type(randomness).__name__}")
        if randomness.d != params.d:
            raise ConfigMismatchError(
                f"randomness universe {randomness.d} does not match params.d {params.d}"
            )
        self.params = params
        self.randomness = randomness
        # _shot's row sums: exact, as a row has c_squared counters, and narrow
        # sums skip most of the cost of a bool-to-int64 cast
        self._row_count_dtype = _narrowest_signed(randomness.c_squared, np.dtype(np.int16))

    def require_metric(self) -> None:
        """Raise ValueError unless the weights are metric."""
        if not is_metric(self.params):
            raise ValueError(
                "weights are not metric (need z' >= max(x, y, z)); "
                "the additive similarity path remains available at the "
                "caller's own risk"
            )

    def distances_from_counts(
        self, sym_nz: np.ndarray, union_nz: np.ndarray, cardinality_sum: np.ndarray
    ) -> np.ndarray:
        """Distance estimates of n pairs from exact counts.

        sym_nz and union_nz are (n, num_levels) per-row nonzero counts of
        each pair's difference and sum sketches, cardinality_sum is
        |A| + |B| per pair.  Returns n unclamped float64 distances, each
        bit-identical to the estimate of that pair alone.
        """
        n = len(sym_nz)
        estimates = l0_from_row_counts(np.concatenate([sym_nz, union_nz]), self.randomness.c_squared)
        return self._distance(estimates[:n], estimates[n:], cardinality_sum)

    def _distance(
        self, sym: float | np.ndarray, union: float | np.ndarray, card_sum: int | np.ndarray
    ) -> float | np.ndarray:
        """Unclamped distance from the l0 estimates of |A ^ B| and |A | B|, and |A| + |B|.

        Python floats for one pair, float64 arrays for many: the same float
        operations in the same order, so a pair scores the same bits either way.
        """
        p = self.params
        if p.z_prime == 0.0:
            return sym * 0.0  # 0.0 or zeros, like sym: x = y = z = 0, so similarity is 1
        # normalize weights by z' so scaled parameterizations reuse the
        # exact same float operations
        x, y, z = p.x / p.z_prime, p.y / p.z_prime, p.z / p.z_prime
        if x >= y:
            denom = y * p.d + (x - y) * union + (1.0 - x) * sym
        else:
            comp_union = p.d - (card_sum - union)
            denom = (y - x) * comp_union + x * p.d + (1.0 - y) * sym
        # a vanishing denominator means similarity 1, so distance 0
        if isinstance(denom, float):
            return 0.0 if denom <= 0.0 else (1.0 - z) * sym / denom
        return np.divide((1.0 - z) * sym, denom, out=np.zeros(len(denom)), where=~(denom <= 0.0))

    def _shot(self, a: LevelSketch, b: LevelSketch) -> float:
        """The unclamped distance estimate, for a query's few rows:
        _l0_from_counts on the difference and sum counts as Python ints,
        and _distance on Python floats."""
        rnd = self.randomness
        for sk in (a, b):
            if not isinstance(sk, LevelSketch):
                raise TypeError(f"expected one LevelSketch per side, got {type(sk).__name__}")
            if sk.randomness is not rnd and sk.randomness != rnd:
                raise ConfigMismatchError("sketch randomness does not match the estimator's")
        acc, c_squared = self._row_count_dtype, rnd.c_squared
        # -b is exact in b's dtype, as no counter reaches its dtype's minimum in any tier
        ab, bb = a.buckets, b.buckets
        sym = _l0_from_counts(np.not_equal(ab, bb).sum(axis=1, dtype=acc).tolist(), c_squared)
        union = _l0_from_counts(np.not_equal(ab, -bb).sum(axis=1, dtype=acc).tolist(), c_squared)
        return self._distance(sym, union, a.cardinality + b.cardinality)

    def estimate_distance(self, a: LevelSketch, b: LevelSketch) -> float:
        """Estimate 1 - S(A, B); requires metric weights (z' >= max(x, y, z)).

        Identical sketches give exactly 0.0: the difference sketch is
        all-zero, so the symmetric-difference estimate is exactly zero.
        Under set semantics each counter counts items, so a bucket of A - B
        with as many items only in A as only in B reads 0 and counts as
        empty: README's l0_estimate(merge(a, b, -1)) reads ~2029, not 2186.
        """
        self.require_metric()
        return self._shot(a, b)

    def estimate_similarity_additive(self, a: LevelSketch, b: LevelSketch) -> float:
        """1 - estimate_distance, clamped below at 0 for reporting.

        Unlike estimate_distance this does not insist on metric weights:
        the decomposition stays computable (additively approximable) for
        weights like Sorensen-Dice, just without the metric guarantee.
        """
        return max(0.0, 1.0 - self._shot(a, b))
