"""Exact rational set similarities on explicit item sets.

A rational set similarity with weights (x, y, z, z') scores two subsets
A, B of a universe U of size d as

    S(A, B) = (x*|A & B| + y*|U - (A | B)| + z*|A ^ B|)
              / (x*|A & B| + y*|U - (A | B)| + z'*|A ^ B|)

and is defined as 1 when the denominator vanishes.  Jaccard is (1, 0, 0, 1),
Hamming (1, 1, 0, 1), Anderberg (1, 0, 0, 2), Rogers-Tanimoto (1, 1, 0, 2),
Sorensen-Dice (2, 0, 0, 1).  Weights only matter up to a positive scalar.

This module evaluates the definitions exactly and provides the structural
predicate the sketch layer relies on: whether 1 - S is a metric, which is
exactly when S admits locality-sensitive hashing.  It is the ground-truth
oracle the estimator tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .errors import ItemRangeError

ItemSet = AbstractSet[int]


@dataclass(frozen=True)
class RationalSimilarity:
    """Weights (x, y, z, z_prime) over a universe of size d.

    Invariants: all weights finite and non-negative, 0 <= z <= z_prime, d >= 1.
    """

    x: float
    y: float
    z: float
    z_prime: float
    d: int

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "z_prime"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
        if self.z > self.z_prime:
            raise ValueError(
                f"z must not exceed z_prime, got z={self.z} z_prime={self.z_prime}"
            )
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"universe size d must be a positive integer, got {self.d!r}")

    def scaled(self, c: float) -> "RationalSimilarity":
        """The same similarity with all four weights multiplied by a finite c > 0."""
        if not 0.0 < c < math.inf:
            raise ValueError(f"scale factor c must be finite and positive, got {c!r}")
        return RationalSimilarity(c * self.x, c * self.y, c * self.z, c * self.z_prime, self.d)


def jaccard(d: int) -> RationalSimilarity:
    return RationalSimilarity(1.0, 0.0, 0.0, 1.0, d)


def hamming(d: int) -> RationalSimilarity:
    return RationalSimilarity(1.0, 1.0, 0.0, 1.0, d)


def anderberg(d: int) -> RationalSimilarity:
    return RationalSimilarity(1.0, 0.0, 0.0, 2.0, d)


def rogers_tanimoto(d: int) -> RationalSimilarity:
    return RationalSimilarity(1.0, 1.0, 0.0, 2.0, d)


def sorensen_dice(d: int) -> RationalSimilarity:
    return RationalSimilarity(2.0, 0.0, 0.0, 1.0, d)


def _checked(params: RationalSimilarity, items: Iterable[int]) -> frozenset[int]:
    s = frozenset(items)
    for i in s:
        if not (0 <= i < params.d):
            raise ItemRangeError(f"item {i} outside universe [0, {params.d})")
    return s


def pair_counts(params: RationalSimilarity, a: ItemSet, b: ItemSet) -> tuple[int, int, int]:
    """(intersection, symmetric difference, complement-of-union) sizes."""
    sa = _checked(params, a)
    sb = _checked(params, b)
    inter = len(sa & sb)
    sym = len(sa ^ sb)
    comp = params.d - (inter + sym)  # |union| = inter + sym
    return inter, sym, comp


def _similarity_from_counts(params: RationalSimilarity, inter: int, sym: int, comp: float) -> float:
    num = params.x * inter + params.y * comp + params.z * sym
    den = params.x * inter + params.y * comp + params.z_prime * sym
    if den == 0.0:
        return 1.0
    return num / den


def exact_similarity(params: RationalSimilarity, a: ItemSet, b: ItemSet) -> float:
    """S(A, B) evaluated exactly; 1.0 when the denominator is zero."""
    inter, sym, comp = pair_counts(params, a, b)
    return _similarity_from_counts(params, inter, sym, comp)


def exact_distance(params: RationalSimilarity, a: ItemSet, b: ItemSet) -> float:
    """1 - S(A, B); equals (z' - z)*|A ^ B| / denominator when the latter is positive."""
    return 1.0 - exact_similarity(params, a, b)


def is_metric(params: RationalSimilarity) -> bool:
    """True iff 1 - S is a metric, i.e. z' >= max(x, y, z)."""
    return params.z_prime >= max(params.x, params.y, params.z)

