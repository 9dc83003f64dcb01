"""Exact similarity values and metric structure.

The reference oracle here is an independent Fraction-based evaluation of
the defining ratio, so agreement is agreement between two separately
written implementations.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dynlsh import (
    ItemRangeError,
    RationalSimilarity,
    anderberg,
    exact_distance,
    exact_similarity,
    hamming,
    is_metric,
    jaccard,
    pair_counts,
    rogers_tanimoto,
    sorensen_dice,
)


def oracle_similarity(params: RationalSimilarity, a: set, b: set) -> Fraction:
    """Evaluate the defining ratio in exact rational arithmetic."""
    inter = len(a & b)
    union = len(a | b)
    sym = len(a ^ b)
    comp = params.d - union
    x = Fraction(params.x).limit_denominator(10**9)
    y = Fraction(params.y).limit_denominator(10**9)
    z = Fraction(params.z).limit_denominator(10**9)
    zp = Fraction(params.z_prime).limit_denominator(10**9)
    num = x * inter + y * comp + z * sym
    den = x * inter + y * comp + zp * sym
    return Fraction(1) if den == 0 else num / den


class TestFrozenValues:
    def test_jaccard_three_element_overlap(self):
        params = jaccard(10)
        assert exact_similarity(params, {1, 2, 3}, {2, 3, 4}) == 0.5

    def test_rogers_tanimoto_singletons(self):
        # inter=0, sym=2, comp=2 in a universe of 4:
        # N = 0 + 1*2 + 0 = 2,  D = 0 + 2 + 2*2 = 6
        params = rogers_tanimoto(4)
        assert_allclose(exact_similarity(params, {0}, {1}), 1.0 / 3.0, rtol=1e-15)

    def test_hamming_distance_shifted_pair(self):
        params = hamming(4)
        assert exact_distance(params, {0, 1}, {1, 2}) == 0.5

    def test_sorensen_dice_value(self):
        # 2*2 / (2*2 + 2) on the classic overlapping triple
        params = sorensen_dice(10)
        assert_allclose(
            exact_similarity(params, {1, 2, 3}, {2, 3, 4}), 2.0 / 3.0, rtol=1e-15
        )

    def test_anderberg_value(self):
        # inter=2, sym=2: 2 / (2 + 2*2)
        params = anderberg(10)
        assert_allclose(
            exact_similarity(params, {1, 2, 3}, {2, 3, 4}), 1.0 / 3.0, rtol=1e-15
        )

    def test_identical_sets_score_one(self):
        for params in (jaccard(8), hamming(8), anderberg(8), rogers_tanimoto(8), sorensen_dice(8)):
            assert exact_similarity(params, {1, 5}, {1, 5}) == 1.0
            assert exact_distance(params, {1, 5}, {1, 5}) == 0.0

    def test_pair_counts(self):
        inter, sym, comp = pair_counts(jaccard(10), {1, 2, 3}, {2, 3, 4})
        assert (inter, sym, comp) == (2, 2, 6)


class TestConventions:
    def test_jaccard_empty_empty_is_one(self):
        assert exact_similarity(jaccard(6), set(), set()) == 1.0

    def test_jaccard_empty_vs_nonempty_is_zero(self):
        assert exact_similarity(jaccard(6), set(), {0, 3}) == 0.0

    def test_hamming_empty_empty_is_one(self):
        # numerator and denominator are both y*d
        assert exact_similarity(hamming(6), set(), set()) == 1.0

    def test_zero_denominator_with_distinct_sets(self):
        # all weights that touch the pair vanish, so N = D = 0 -> 1
        params = RationalSimilarity(1.0, 0.0, 0.0, 0.0, 4)
        assert exact_similarity(params, {0}, {1}) == 1.0

    def test_item_out_of_range_raises(self):
        with pytest.raises(ItemRangeError):
            exact_similarity(jaccard(4), {0, 4}, {1})
        with pytest.raises(ItemRangeError):
            exact_similarity(jaccard(4), {0}, {-1})


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RationalSimilarity(-1.0, 0.0, 0.0, 1.0, 4)

    def test_z_above_z_prime_rejected(self):
        with pytest.raises(ValueError):
            RationalSimilarity(1.0, 0.0, 2.0, 1.0, 4)

    def test_bad_universe_rejected(self):
        with pytest.raises(ValueError):
            RationalSimilarity(1.0, 0.0, 0.0, 1.0, 0)

    def test_scaled_requires_positive_factor(self):
        with pytest.raises(ValueError):
            jaccard(4).scaled(0.0)

    @pytest.mark.parametrize("field", ["x", "y", "z", "z_prime"])
    def test_non_finite_weight_rejected_by_name(self, field):
        """An infinite weight would make estimates nan, and a search drop every pair."""
        for bad in (math.inf, math.nan):
            weights = {"x": 1.0, "y": 0.0, "z": 0.0, "z_prime": 1.0, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be finite and non-negative"):
                RationalSimilarity(**weights, d=4)

    def test_scaled_requires_finite_factor(self):
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="^scale factor c must be finite and positive"):
                jaccard(4).scaled(bad)
        with pytest.raises(ValueError, match="^x must be finite"):
            sorensen_dice(4).scaled(1e308)  # 2 * 1e308 overflows to inf


class TestAgainstOracle:
    def test_random_pairs_match_fraction_oracle(self):
        rng = np.random.default_rng(71001)
        families = [jaccard, hamming, anderberg, rogers_tanimoto, sorensen_dice]
        for trial in range(200):
            d = int(rng.integers(1, 30))
            a = set(map(int, rng.choice(d, size=rng.integers(0, d + 1), replace=False)))
            b = set(map(int, rng.choice(d, size=rng.integers(0, d + 1), replace=False)))
            params = families[trial % len(families)](d)
            expected = float(oracle_similarity(params, a, b))
            assert_allclose(exact_similarity(params, a, b), expected, rtol=1e-12)

    def test_random_weights_match_fraction_oracle(self):
        rng = np.random.default_rng(71002)
        for _ in range(200):
            d = int(rng.integers(1, 20))
            z = float(rng.integers(0, 4))
            params = RationalSimilarity(
                float(rng.integers(0, 5)),
                float(rng.integers(0, 5)),
                z,
                z + float(rng.integers(0, 4)),
                d,
            )
            a = set(map(int, rng.choice(d, size=rng.integers(0, d + 1), replace=False)))
            b = set(map(int, rng.choice(d, size=rng.integers(0, d + 1), replace=False)))
            expected = float(oracle_similarity(params, a, b))
            assert_allclose(exact_similarity(params, a, b), expected, rtol=1e-12)


@st.composite
def subset_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=16))
    a = draw(st.sets(st.integers(min_value=0, max_value=d - 1)))
    b = draw(st.sets(st.integers(min_value=0, max_value=d - 1)))
    return d, a, b


class TestProperties:
    @given(subset_pairs())
    @settings(max_examples=200, deadline=None)
    def test_similarity_in_unit_interval_and_symmetric(self, data):
        d, a, b = data
        params = rogers_tanimoto(d)
        s_ab = exact_similarity(params, a, b)
        assert 0.0 <= s_ab <= 1.0
        assert s_ab == exact_similarity(params, b, a)

    @given(subset_pairs(), st.sampled_from([2.0, 3.0, 7.0, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_is_exact(self, data, factor):
        """Integer-weight families times small factors hit the same floats."""
        d, a, b = data
        for family in (jaccard, hamming, anderberg, rogers_tanimoto, sorensen_dice):
            params = family(d)
            assert exact_similarity(params.scaled(factor), a, b) == exact_similarity(
                params, a, b
            )


def distance_matrix(params: RationalSimilarity, universe: int) -> np.ndarray:
    subsets = [frozenset(c) for r in range(universe + 1) for c in combinations(range(universe), r)]
    n = len(subsets)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = exact_distance(params, subsets[i], subsets[j])
    return out


class TestMetricStructure:
    def test_is_metric_table(self):
        assert is_metric(jaccard(4))
        assert is_metric(hamming(4))
        assert is_metric(anderberg(4))
        assert is_metric(rogers_tanimoto(4))
        assert not is_metric(sorensen_dice(4))

    def test_is_metric_scale_invariant(self):
        assert is_metric(jaccard(4).scaled(5.0))
        assert not is_metric(sorensen_dice(4).scaled(5.0))

    @pytest.mark.parametrize("family", [jaccard, hamming, anderberg, rogers_tanimoto])
    def test_triangle_inequality_exhaustive_small_universe(self, family):
        """Brute force over every subset triple of a 5 element universe."""
        mat = distance_matrix(family(5), 5)
        slack = mat[:, :, None] + mat[None, :, :] - mat[:, None, :]
        assert slack.min() > -1e-12

    @pytest.mark.parametrize(
        "weights, metric",
        [
            ((1.0, 0.0, 0.0, 1.5), True),
            ((1.0, 2.0, 0.0, 2.0), True),  # y at z', the complement side's boundary
            ((1.0, 0.5, 0.75, 1.0), True),
            ((2.0, 1.0, 0.0, 1.5), False),  # x above z'
            ((0.5, 2.0, 0.25, 1.0), False),  # y above z'
            ((1.0, 0.0, 0.0, 0.9), False),  # x just above z'
        ],
    )
    def test_is_metric_iff_triangle_holds(self, weights, metric):
        """1 - S is a metric exactly when z' >= max(x, y, z): beyond the five
        named families, the brute-force triangle check agrees with is_metric."""
        params = RationalSimilarity(*weights, 5)
        assert is_metric(params) == metric
        mat = distance_matrix(params, 5)
        slack = mat[:, :, None] + mat[None, :, :] - mat[:, None, :]
        assert (slack.min() > -1e-12) == metric

    def test_sorensen_dice_violates_triangle(self):
        mat = distance_matrix(sorensen_dice(5), 5)
        slack = mat[:, :, None] + mat[None, :, :] - mat[:, None, :]
        assert slack.min() < -1e-9

    def test_dice_violation_witness(self):
        # 1/3 + 1/3 fails to cover the unit distance between the end sets
        params = sorensen_dice(5)
        d_ab = exact_distance(params, {1}, {1, 2})
        d_bc = exact_distance(params, {1, 2}, {2})
        d_ac = exact_distance(params, {1}, {2})
        assert_allclose([d_ab, d_bc, d_ac], [1 / 3, 1 / 3, 1.0], rtol=1e-12)
        assert d_ab + d_bc < d_ac
