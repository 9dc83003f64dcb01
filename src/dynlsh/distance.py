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
original ones).  The distance is (z' - z)*|A ^ B| / denominator.  Estimates
sharpen by taking the median over independently randomized sketch
repetitions.

Both l0 estimates read only the per-row nonzero counts of the two merges,
so a pair's distance is a function of those counts and |A| + |B|;
DistanceEstimator.distances_from_counts evaluates it for many pairs at
once through l0_from_row_counts, and each estimate inverts its slots'
counts one sketch at a time through _l0_from_counts, with the same bits;
both then apply the one formula, DistanceEstimator._distance.  The counts need no merged sketch: A - B is
nonzero where the counters differ and A + B where they are not opposite.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

from .errors import ConfigMismatchError
from .hashing import SketchRandomness
from .similarity import RationalSimilarity, is_metric
from .sketch import LevelSketch, _l0_from_counts, _narrowest_signed, l0_from_row_counts


class DistanceEstimator:
    """Estimates rational distances between sketched sets.

    Construct with the similarity weights and either one SketchRandomness
    or a sequence of them; the sequence length is the repetition count
    (odd, for median amplification) and each slot must be an independently
    seeded randomness over the same (d, c_squared).  Estimate calls then
    accept a single LevelSketch per side when repetitions == 1, or a
    sequence of sketches aligned with the randomness slots.

    Every estimate counts per-row nonzeros of one sum and one difference
    sketch per slot, inverts each count row with _l0_from_counts and
    returns the median shot, or the one shot of a single slot.
    Shots are unclamped; only the additive
    similarity path clamps (below at 0) for reporting.
    """

    def __init__(
        self,
        params: RationalSimilarity,
        randomness: SketchRandomness | Sequence[SketchRandomness],
    ) -> None:
        self.params = params
        if isinstance(randomness, SketchRandomness):
            randomness = (randomness,)
        slots = tuple(randomness)
        if not slots or len(slots) % 2 == 0:
            raise ValueError(
                f"need an odd number of randomness slots, got {len(slots)}"
            )
        for r in slots:
            if (r.d, r.c_squared) != (slots[0].d, slots[0].c_squared):
                raise ConfigMismatchError("all randomness slots must share d and c_squared")
            if r.d != params.d:
                raise ConfigMismatchError(
                    f"randomness universe {r.d} does not match params.d {params.d}"
                )
        self.randomness = slots
        # _shots' row sums: exact, as a row has c_squared counters, and narrow
        # sums skip most of the cost of a bool-to-int64 cast
        self._row_count_dtype = _narrowest_signed(slots[0].c_squared, np.dtype(np.int16))

    @property
    def repetitions(self) -> int:
        return len(self.randomness)

    def _slots(self, side: LevelSketch | Sequence[LevelSketch]) -> tuple[LevelSketch, ...]:
        if isinstance(side, LevelSketch):
            side = (side,)
        sketches = tuple(side)
        if len(sketches) != self.repetitions:
            raise ConfigMismatchError(
                f"expected {self.repetitions} sketches, got {len(sketches)}"
            )
        for sk, rnd in zip(sketches, self.randomness):
            if sk.randomness is not rnd and sk.randomness != rnd:
                raise ConfigMismatchError("sketch randomness does not match estimator slot")
        return sketches

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
        """Single-slot distance estimates of n pairs from exact counts.

        sym_nz and union_nz are (n, num_levels) per-row nonzero counts of
        each pair's difference and sum sketches, cardinality_sum is
        |A| + |B| per pair.  Returns n unclamped float64 distances, each
        bit-identical to the estimate of that pair alone.
        """
        n = len(sym_nz)
        c_squared = self.randomness[0].c_squared
        estimates = l0_from_row_counts(np.concatenate([sym_nz, union_nz]), c_squared)
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

    def _shots(
        self,
        a: LevelSketch | Sequence[LevelSketch],
        b: LevelSketch | Sequence[LevelSketch],
    ) -> list[float]:
        """Every slot's unclamped distance estimate, for a query's few rows:
        _l0_from_counts on each slot's difference and sum counts as Python
        ints, and _distance on Python floats."""
        acc, c_squared = self._row_count_dtype, self.randomness[0].c_squared
        shots = []
        for x, y in zip(self._slots(a), self._slots(b)):
            # -y is exact in y's dtype, as no counter reaches its dtype's minimum in any tier
            xb, yb = x.buckets, y.buckets
            sym = _l0_from_counts(np.not_equal(xb, yb).sum(axis=1, dtype=acc).tolist(), c_squared)
            union = _l0_from_counts(np.not_equal(xb, -yb).sum(axis=1, dtype=acc).tolist(), c_squared)
            shots.append(self._distance(sym, union, x.cardinality + y.cardinality))
        return shots

    def estimate_distance(
        self,
        a: LevelSketch | Sequence[LevelSketch],
        b: LevelSketch | Sequence[LevelSketch],
    ) -> float:
        """Estimate 1 - S(A, B); requires metric weights (z' >= max(x, y, z)).

        Identical sketches give exactly 0.0: the difference sketch is
        all-zero, so the symmetric-difference estimate is exactly zero.
        """
        self.require_metric()
        return statistics.median(self._shots(a, b))

    def estimate_similarity_additive(
        self,
        a: LevelSketch | Sequence[LevelSketch],
        b: LevelSketch | Sequence[LevelSketch],
    ) -> float:
        """1 - estimate_distance, clamped below at 0 for reporting.

        Unlike estimate_distance this does not insist on metric weights:
        the decomposition stays computable (additively approximable) for
        weights like Sorensen-Dice, just without the metric guarantee.
        """
        return max(0.0, 1.0 - statistics.median(self._shots(a, b)))

