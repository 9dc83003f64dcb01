"""Synthetic corpora and the paper's benchmark reports.

The generator builds sparse random sets with a configurable density range
and plants high-similarity partner rows by copying a source row and
flipping bits at rates solved from the target similarity.  write_stream
serializes a corpus as an update stream (see the stream module), deletions
included, and ingest reads one back as net sets and their sketches.  Three
report families sit on top: absolute similarity deviation for labeled
pairs, empirical banding S-curves against the closed form, and wall-clock
comparison of sketch-based versus exact all-pairs similarity.

All randomness flows from explicit integer seeds; nothing here consults
OS entropy.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import time
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import GenerationError, StreamDataError, StreamParseError
from .hashing import SketchRandomness, deepest_level, derived_rng, derived_seed
from .lsh import amplification_probability
from .sketch import LevelSketch, similarity_from_level
from .similarity import jaccard
from .stream import _opened, _update_lines, read_stream, replay

# Default planted-similarity intervals, cycled across planted pairs.
DEFAULT_PLANTED_RANGES: tuple[tuple[float, float], ...] = (
    (0.35, 0.45),
    (0.45, 0.55),
    (0.55, 0.65),
    (0.65, 0.75),
    (0.75, 0.85),
    (0.85, 0.95),
)

# Similarity histogram (bin_low, bin_high, weight) for --distribution mode:
# a heavily bimodal shape with a large mass of mid-similarity pairs and a
# long high-similarity shoulder, matching near-duplicate corpora seen in
# malware-style deduplication workloads.
SIMILARITY_HISTOGRAM: tuple[tuple[float, float, int], ...] = (
    (0.10, 0.15, 995),
    (0.15, 0.20, 33864),
    (0.20, 0.25, 364496),
    (0.25, 0.30, 206572),
    (0.30, 0.35, 233303),
    (0.35, 0.40, 576286),
    (0.40, 0.45, 861799),
    (0.45, 0.50, 593181),
    (0.50, 0.55, 549257),
    (0.55, 0.60, 144769),
    (0.60, 0.65, 33093),
    (0.65, 0.70, 27777),
    (0.70, 0.75, 42181),
    (0.75, 0.80, 23185),
)

# draws planted_partner makes before it keeps a partner outside its interval
_PARTNER_ATTEMPTS = 32

DEFAULT_GRID: tuple[tuple[int, float], ...] = (
    (128, 0.05),
    (256, 0.025),
    (512, 0.01),
    (1024, 0.005),
)

# spawn_key tags for deriving independent generators from one seed;
# disjoint from the tags used for sketch hash functions.
_TAG_GENERATE = 10
_TAG_CHURN = 11
_TAG_DEVIATION = 12
_TAG_SCURVE = 13
_TAG_TIMING = 14
_TAG_LOW_PAIRS = 15

# Lines per write_stream block, whose arrays and text are dropped once written.
_WRITE_BLOCK_LINES = 1 << 14


@dataclass(frozen=True)
class PlantedPair:
    """A labeled pair: two row ids, the target interval, and the realized value."""

    id_a: int
    id_b: int
    target_low: float
    target_high: float
    exact_similarity: float


@dataclass
class GeneratedCorpus:
    """In-memory output of the generator: item sets plus the pair manifest."""

    d: int
    rows: list[np.ndarray]
    manifest: list[PlantedPair]

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass
class BenchCorpus:
    """Result of ingesting a stream: sketches plus the recovered exact sets."""

    randomness: SketchRandomness
    sketches: list[LevelSketch]
    sets: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.sketches)

    @property
    def d(self) -> int:
        return self.randomness.d


def _sample_distinct(
    rng: np.random.Generator, d: int, count: int, exclude: np.ndarray | None = None
) -> np.ndarray:
    """Draw `count` distinct item ids from [0, d), avoiding `exclude`.

    Batched rejection, unbiased and cheap next to permuting [0, d) when
    count << d: each round keeps, in draw order, the draws that sort first
    among their equals in one stable argsort of the excluded ids, the pool
    and the draw, in that order.  Ids below 2**16 sort as uint16 keys, a
    radix sort; any stable sort keeps the same draws.
    """
    prior = np.empty(0, np.int64) if exclude is None else exclude
    if count > d - prior.size:
        raise GenerationError(
            f"cannot draw {count} distinct items from a universe of {d} "
            f"with {prior.size} excluded"
        )
    if count == 0:
        return np.empty(0, dtype=np.int64)
    key_type = np.uint16 if d <= 1 << 16 else np.int64
    pool = np.empty(0, dtype=np.int64)
    while pool.size < count:
        need = count - pool.size
        draw = rng.integers(0, d, size=need + need // 4 + 16, dtype=np.int64)
        keys = np.concatenate([prior, pool, draw], dtype=key_type, casting="unsafe")
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        fresh = np.ones(keys.size, bool)
        fresh[order[1:][ranked[1:] == ranked[:-1]]] = False  # equal to the id sorted before it
        pool = np.concatenate([pool, draw[fresh[-draw.size :]]])
    return pool[:count]


def flip_probabilities(target: float, m: int, d: int) -> tuple[float, float]:
    """Per-item delete and insert probabilities hitting `target` Jaccard.

    Deleting members with probability p_del = (1-s)/(1+s) and inserting
    each non-member with probability m*p_del/(d-m) gives a partner row
    whose expected similarity to the source is s.  At d=10^4 and m=500
    targeting 0.5 this comes out to the familiar (1/3, 1/57).
    """
    if not (0.0 < target < 1.0):
        raise GenerationError(f"target similarity must lie in (0, 1), got {target!r}")
    if not (0 < m < d):
        raise GenerationError(f"source size {m} must lie strictly between 0 and d={d}")
    p_del = (1.0 - target) / (1.0 + target)
    p_add = m * p_del / (d - m)
    if p_add > 1.0:
        raise GenerationError(
            f"target {target} infeasible at size {m} in universe {d}: "
            f"required insert probability {p_add:.3f} exceeds 1"
        )
    return p_del, p_add


def planted_partner(
    rng: np.random.Generator,
    base: np.ndarray,
    d: int,
    interval: tuple[float, float],
) -> tuple[np.ndarray, float]:
    """A partner row for `base` with Jaccard similarity inside `interval`.

    Flips bits at the rates from flip_probabilities targeting the interval
    midpoint, resampling up to _PARTNER_ATTEMPTS times until the realized
    similarity lands inside; the last attempt is kept either way and the
    realized value is returned alongside the row.
    """
    lo, hi = interval
    if not (0.0 < lo < hi < 1.0):
        raise GenerationError(f"interval must satisfy 0 < low < high < 1, got {interval!r}")
    m = int(base.size)
    p_del, p_add = flip_probabilities((lo + hi) / 2.0, m, d)
    keep = base
    adds = np.empty(0, dtype=np.int64)
    realized = 1.0
    for _ in range(_PARTNER_ATTEMPTS):
        keep = base[rng.random(m) >= p_del]
        n_add = int(rng.binomial(d - m, p_add))
        adds = _sample_distinct(rng, d, n_add, exclude=base)
        # adds are disjoint from base and keep is a subset of it, so the
        # union of the pair is exactly base plus the additions.
        realized = keep.size / (m + n_add) if m + n_add else 1.0
        if lo <= realized <= hi:
            break
    return np.union1d(keep, adds), realized


def _random_row(
    rng: np.random.Generator, density_range: tuple[float, float], cols: int
) -> np.ndarray:
    """A random row of size density_range times cols, drawn uniformly, and at least 1."""
    lo, hi = density_range
    if not (0.0 < lo <= hi <= 1.0):
        raise GenerationError(f"density range must satisfy 0 < low <= high <= 1, got {density_range!r}")
    m = min(max(int(round(rng.uniform(lo, hi) * cols)), 1), cols)
    return _sample_distinct(rng, cols, m)


def generate(
    rows: int,
    cols: int,
    density_range: tuple[float, float] = (0.01, 0.05),
    planted_ranges: Sequence[tuple[float, float]] = DEFAULT_PLANTED_RANGES,
    every: int = 100,
    seed: int = 0,
) -> GeneratedCorpus:
    """Random sparse corpus with one planted partner per `every` base rows.

    Each base row's size is a uniform draw from density_range times cols.
    For base rows 0, every, 2*every, ... a partner row is appended at the
    end of the corpus, cycling through planted_ranges; the manifest records
    each pair's realized exact Jaccard similarity.
    """
    if rows < 1 or cols < 1:
        raise GenerationError(f"need positive corpus shape, got rows={rows} cols={cols}")
    if every < 1:
        raise GenerationError(f"every must be positive, got {every!r}")
    rng = derived_rng(seed, _TAG_GENERATE)
    out = [_random_row(rng, density_range, cols) for _ in range(rows)]
    manifest: list[PlantedPair] = []
    if planted_ranges:
        for t in range(rows // every):
            src = t * every
            interval = tuple(planted_ranges[t % len(planted_ranges)])
            partner, realized = planted_partner(rng, out[src], cols, interval)
            manifest.append(PlantedPair(src, rows + t, interval[0], interval[1], realized))
            out.append(partner)
    return GeneratedCorpus(cols, out, manifest)


def generate_distribution(
    pairs: int,
    cols: int,
    density_range: tuple[float, float] = (0.01, 0.05),
    seed: int = 0,
) -> GeneratedCorpus:
    """Corpus of planted pairs whose targets follow SIMILARITY_HISTOGRAM.

    Draws each pair's target interval from the histogram proportionally to
    its weight, then plants the pair like generate() does.  Base rows get
    ids [0, pairs) and partners [pairs, 2*pairs).
    """
    if pairs < 1:
        raise GenerationError(f"need at least one pair, got {pairs!r}")
    rng = derived_rng(seed, _TAG_GENERATE, 1)
    weights = np.array([w for _, _, w in SIMILARITY_HISTOGRAM], dtype=np.float64)
    weights /= weights.sum()
    bases: list[np.ndarray] = []
    partners: list[np.ndarray] = []
    manifest: list[PlantedPair] = []
    for t in range(pairs):
        base = _random_row(rng, density_range, cols)
        which = int(rng.choice(len(weights), p=weights))
        b_lo, b_hi, _ = SIMILARITY_HISTOGRAM[which]
        partner, realized = planted_partner(rng, base, cols, (b_lo, b_hi))
        bases.append(base)
        partners.append(partner)
        manifest.append(PlantedPair(t, pairs + t, b_lo, b_hi, realized))
    return GeneratedCorpus(cols, bases + partners, manifest)


def write_stream(
    corpus: GeneratedCorpus,
    out: str | os.PathLike | IO[str],
    churn: float = 0.0,
    seed: int = 0,
) -> int:
    """Serialize a corpus as an update stream; returns the update count.

    The format is a header line `n d` followed by one `j i v` update per
    line with v in {+1, -1}.  Churn must be finite and non-negative; with
    churn > 0 each row also gets round(churn * size) noise updates that
    cancel out: half are inserts of non-members later deleted, half delete
    a member and re-insert it.  Net rows equal the churn-free stream's.
    Lines are written by _update_lines, at most _WRITE_BLOCK_LINES at once.
    """
    if not 0 <= churn < math.inf:
        raise GenerationError(f"churn must be finite and non-negative, got {churn!r}")
    rng = derived_rng(seed, _TAG_CHURN) if churn > 0 else None
    runs: list[tuple[int, np.ndarray, int]] = []  # (row, items, value) of the lines not yet written
    total = waiting = 0
    with _opened(out, "w") as fh:
        fh.write(f"{corpus.n} {corpus.d}\n")
        for j, items in enumerate(corpus.rows):
            row_runs = [(items, 1)]
            if rng is not None and items.size:
                extra = int(round(churn * items.size))
                bounce = rng.choice(items, size=min(extra // 2, items.size), replace=False)
                cancel = _sample_distinct(rng, corpus.d, extra - extra // 2, exclude=items)
                row_runs += [(cancel, 1), (bounce, -1), (bounce, 1), (cancel, -1)]
            runs += [(j, run, v) for run, v in row_runs if run.size]
            waiting += sum(run.size for run, _ in row_runs)
            if waiting >= _WRITE_BLOCK_LINES or (waiting and j == corpus.n - 1):
                ids, arrays, signs = zip(*runs)
                sizes = [a.size for a in arrays]
                columns = np.repeat(ids, sizes), np.concatenate(arrays), np.repeat(signs, sizes)
                for lo in range(0, waiting, _WRITE_BLOCK_LINES):
                    fh.write(_update_lines(*(c[lo : lo + _WRITE_BLOCK_LINES] for c in columns)))
                total, runs, waiting = total + waiting, [], 0
    return total


def read_manifest(source: str | os.PathLike | IO[str]) -> list[PlantedPair]:
    """Parse a manifest written by write_csv(PlantedPair, ...).

    Similarities must lie in [0, 1], a pair must join two different rows,
    and its target_low must not exceed its target_high; a row that breaks
    any of these raises StreamParseError naming its line.
    """
    with _opened(source, "r") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != [f.name for f in dataclasses.fields(PlantedPair)]:
            raise StreamParseError(f"unexpected manifest header: {header!r}", 1)
        out = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise StreamParseError(f"bad manifest row {row!r}: expected 5 fields", line_no)
            try:
                sims = list(map(float, row[2:]))
                if not all(0.0 <= s <= 1.0 for s in sims):
                    raise ValueError("similarities must lie in [0, 1]")
                pair = PlantedPair(int(row[0]), int(row[1]), *sims)
                if pair.id_a == pair.id_b:
                    raise ValueError("a pair must join two different rows")
                if pair.target_low > pair.target_high:
                    raise ValueError("target_low exceeds target_high")
                out.append(pair)
            except ValueError as exc:
                raise StreamParseError(f"bad manifest row {row!r}: {exc}", line_no) from exc
    return out


def ingest(source: str | os.PathLike | IO[str], c_squared: int, master_seed: int) -> BenchCorpus:
    """Every row's net set, and its sketch from one update_many of the net set.

    The randomness is built after the parse, before any row is checked.
    The sketch is linear and a valid stream's net counts are 0 or 1, so the
    net items give the sketch the whole stream would.
    """
    n, d, updates = read_stream(source)
    randomness = SketchRandomness(d, c_squared, master_seed)
    sets = list(replay(n, updates))
    sketches = [LevelSketch(randomness) for _ in sets]
    for sketch, net in zip(sketches, sets):
        sketch.update_many(net, 1)
    return BenchCorpus(randomness, sketches, sets)


def alpha_level(alpha: float, max_level: int) -> int:
    """Level ceil(log2(1/alpha)) - 1 for a sampling rate alpha, clamped to [0, max_level].

    The rate a report realizes depends on how it reads the level (rates
    below are before clamping):

    - deviation_report reads the tail of rows >= level, which keeps items
      at rate 2^-level: twice the largest power of two at or below alpha,
      so above alpha and at most 2*alpha.  alpha=1 gives level 0, which
      applies no subsampling at all.
    - scurve_report and timing_report read the single row `level`, which
      keeps items at rate 2^-(level+1): the largest power of two at or
      below alpha (1/2 for alpha=1).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if max_level < 0:
        raise ValueError(f"max_level must be non-negative, got {max_level!r}")
    inverse = 1.0 / alpha  # infinite for a subnormal alpha, whose -log2 is then above 1024
    k = math.ceil(math.log2(inverse) if inverse < math.inf else -math.log2(alpha)) - 1
    return min(max(k, 0), max_level)


def _exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


@dataclass(frozen=True)
class DeviationRow:
    """One (c_squared, alpha) cell of a deviation report."""

    c_squared: int
    alpha: float
    level: int
    trials: int
    n_high: int
    n_low: int
    mean_dev_high: float
    mean_dev_low: float
    mean_dev_total: float
    build_seconds: float
    query_seconds: float


def _manifest_pairs(manifest: Sequence[PlantedPair], n: int) -> list[tuple[int, int, float]]:
    """(id_a, id_b, exact_similarity) per pair; StreamDataError for a row outside [0, n)."""
    for p in manifest:
        if not (0 <= p.id_a < n and 0 <= p.id_b < n):
            raise StreamDataError(f"manifest pair ({p.id_a}, {p.id_b}) is outside rows 0..{n - 1}")
    return [(p.id_a, p.id_b, p.exact_similarity) for p in manifest]


def deviation_report(
    sets: Sequence[np.ndarray],
    manifest: Sequence[PlantedPair],
    d: int,
    grid: Sequence[tuple[int, float]] = DEFAULT_GRID,
    *,
    trials: int = 10,
    split: float = 0.2,
    low_sample: int = 2000,
    master_seed: int = 0,
) -> list[DeviationRow]:
    """Mean absolute similarity deviation per parameter combination.

    Every manifest pair is estimated with fresh sketch randomness in each
    trial, at the level derived from alpha, and |estimate - exact| is
    averaged separately for pairs with exact similarity >= split (high)
    and < split (low).  Since planted manifests rarely contain low pairs,
    up to low_sample random distinct row pairs are added to the evaluation
    with their exact similarities computed from the sets.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not (0.0 <= split <= 1.0):
        raise ValueError(f"split must lie in [0, 1], got {split!r}")
    if low_sample < 0:
        raise ValueError(f"low_sample must be non-negative, got {low_sample!r}")
    params = jaccard(d)
    pairs = _manifest_pairs(manifest, len(sets))
    taken = {(min(a, b), max(a, b)) for a, b, _ in pairs}
    if low_sample > 0 and len(sets) >= 2:
        rng = derived_rng(master_seed, _TAG_LOW_PAIRS)
        limit = len(sets) * (len(sets) - 1) // 2
        want = min(low_sample, limit - len(taken))
        while want > 0:
            draw = rng.integers(0, len(sets), size=(want * 2 + 8, 2))
            for a, b in draw:
                if a == b:
                    continue
                key = (int(min(a, b)), int(max(a, b)))
                if key in taken:
                    continue
                taken.add(key)
                pairs.append((key[0], key[1], _exact_jaccard(sets[key[0]], sets[key[1]])))
                want -= 1
                if want == 0:
                    break
    needed = sorted({idx for a, b, _ in pairs for idx in (a, b)})
    rows: list[DeviationRow] = []
    for ci, (c_squared, alpha) in enumerate(grid):
        level = alpha_level(alpha, deepest_level(d))
        build_s = query_s = 0.0
        sum_high = sum_low = 0.0
        hits_high = hits_low = 0
        for t in range(trials):
            randomness = SketchRandomness(d, c_squared, derived_seed(master_seed, _TAG_DEVIATION, ci, t))
            t0 = time.perf_counter()
            sketches: dict[int, LevelSketch] = {}
            for idx in needed:
                sk = LevelSketch(randomness)
                sk.update_many(sets[idx], 1)
                sketches[idx] = sk
            build_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            for a, b, exact in pairs:
                estimate = similarity_from_level(sketches[a], sketches[b], level, params)
                dev = abs(estimate - exact)
                if exact >= split:
                    sum_high += dev
                    hits_high += 1
                else:
                    sum_low += dev
                    hits_low += 1
            query_s += time.perf_counter() - t0
        total = hits_high + hits_low
        rows.append(
            DeviationRow(
                c_squared=c_squared,
                alpha=alpha,
                level=level,
                trials=trials,
                n_high=hits_high // trials,
                n_low=hits_low // trials,
                mean_dev_high=sum_high / hits_high if hits_high else float("nan"),
                mean_dev_low=sum_low / hits_low if hits_low else float("nan"),
                mean_dev_total=(sum_high + sum_low) / total if total else float("nan"),
                build_seconds=build_s,
                query_seconds=query_s,
            )
        )
    return rows


@dataclass(frozen=True)
class ScurveRow:
    """Empirical vs theoretical candidate probability for one similarity bin."""

    r: int
    l: int
    alpha: float
    c_squared: int
    level: int
    bin_low: float
    bin_high: float
    n_pairs: int
    empirical_probability: float
    theoretical_probability: float


def scurve_report(
    sets: Sequence[np.ndarray],
    manifest: Sequence[PlantedPair],
    d: int,
    grid: Sequence[tuple[int, int, float, int]],
    *,
    trials: int = 5,
    bin_width: float = 0.05,
    master_seed: int = 0,
) -> list[ScurveRow]:
    """Empirical banding curve over the manifest's similarity spread.

    For each (r, l, alpha, c_squared) grid point, every manifest pair is
    tested for a banded min-hash collision at the alpha-derived level,
    with fresh randomness per trial; pairs pool into bins of their exact
    similarity, and each bin's empirical frequency is reported next to
    1-(1-s^r)^l at the bin center.  Pairs whose row at the level is empty
    never collide.  n_pairs counts pair-trial evaluations.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not (0.0 < bin_width <= 1.0) or math.isinf(1.0 / bin_width):
        raise ValueError(f"bin_width must lie in (0, 1] with a finite reciprocal, got {bin_width!r}")
    pairs = _manifest_pairs(manifest, len(sets))
    n_bins = math.ceil(1.0 / bin_width)
    out: list[ScurveRow] = []
    for gi, (r, l, alpha, c_squared) in enumerate(grid):
        if r < 1 or l < 1:
            raise ValueError(f"banding shape must be positive, got r={r} l={l}")
        level = alpha_level(alpha, deepest_level(d))
        tally: dict[int, list[int]] = {}  # [pairs, hits] of each bin that occurs
        for t in range(trials):
            randomness = SketchRandomness(
                d, c_squared, derived_seed(master_seed, _TAG_SCURVE, gi, t)
            )
            signatures: dict[int, np.ndarray | None] = {}

            def signature_of(idx: int) -> np.ndarray | None:
                if idx not in signatures:
                    sk = LevelSketch(randomness)
                    sk.update_many(sets[idx], 1)
                    row = level * c_squared + np.flatnonzero(sk.buckets[level])
                    sig = randomness.minhash_rows(row, [0, row.size], [level], l, r).reshape(l, r)
                    signatures[idx] = sig if row.size else None
                return signatures[idx]

            for a, b, exact in pairs:
                sig_a, sig_b = signature_of(a), signature_of(b)
                collide = (
                    sig_a is not None
                    and sig_b is not None
                    and bool(np.any(np.all(sig_a == sig_b, axis=1)))
                )
                counts = tally.setdefault(min(int(exact / bin_width), n_bins - 1), [0, 0])
                counts[0] += 1
                counts[1] += collide
        for idx, (total, hit) in sorted(tally.items()):
            low = idx * bin_width
            out.append(
                ScurveRow(
                    r=r,
                    l=l,
                    alpha=alpha,
                    c_squared=c_squared,
                    level=level,
                    bin_low=low,
                    bin_high=low + bin_width,
                    n_pairs=total,
                    empirical_probability=hit / total,
                    theoretical_probability=amplification_probability(
                        low + bin_width / 2.0, r, l
                    ),
                )
            )
    return out


@dataclass(frozen=True)
class TimingRow:
    """Wall-clock comparison of sketch vs exact all-pairs similarity."""

    c_squared: int
    alpha: float
    level: int
    n: int
    d: int
    sketch_build_seconds: float
    sketch_query_seconds: float
    exact_query_seconds: float
    speedup_ratio: float | None


def _pairwise_from_intersections(inter: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    union = sizes[:, None] + sizes[None, :] - inter
    sims = np.ones_like(inter, dtype=np.float64)
    np.divide(inter, union, out=sims, where=union > 0)
    return sims


def timing_report(
    sets: Sequence[np.ndarray],
    d: int,
    c_squared: int,
    alpha: float,
    master_seed: int = 0,
) -> TimingRow:
    """Time all-pairs Jaccard on single-level sketch rows vs exact sets.

    The sketch path reduces every set to its nonzero bucket pattern at the
    alpha-derived level (a c_squared-wide binary vector, independent of d)
    and computes all pairwise intersections with one dense matmul; the
    exact path does the same through a sparse n-by-d matrix product.
    Set construction and sketch building are excluded from query times.
    The ratio is exact over sketch time, or None when fewer than two sets.
    """
    import scipy.sparse  # imported here: it is most of the package's import time

    n = len(sets)
    level = alpha_level(alpha, deepest_level(d))
    randomness = SketchRandomness(d, c_squared, derived_seed(master_seed, _TAG_TIMING))
    t0 = time.perf_counter()
    patterns = np.zeros((n, c_squared), dtype=np.float32)
    for j, items in enumerate(sets):
        sk = LevelSketch(randomness)
        sk.update_many(items, 1)
        patterns[j] = sk.buckets[level] != 0
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    inter = patterns @ patterns.T
    sketch_sims = _pairwise_from_intersections(inter.astype(np.float64), patterns.sum(axis=1))
    sketch_s = time.perf_counter() - t0

    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([s.size for s in sets])
    indices = np.concatenate([s for s in sets]) if n else np.empty(0, dtype=np.int64)
    data = np.ones(indices.size, dtype=np.float32)
    matrix = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, d))
    sizes = np.asarray([s.size for s in sets], dtype=np.float64)
    t0 = time.perf_counter()
    exact_inter = (matrix @ matrix.T).toarray().astype(np.float64)
    exact_sims = _pairwise_from_intersections(exact_inter, sizes)
    exact_s = time.perf_counter() - t0
    del sketch_sims, exact_sims

    ratio = exact_s / sketch_s if n >= 2 and sketch_s > 0 else None
    return TimingRow(
        c_squared=c_squared,
        alpha=alpha,
        level=level,
        n=n,
        d=d,
        sketch_build_seconds=build_s,
        sketch_query_seconds=sketch_s,
        exact_query_seconds=exact_s,
        speedup_ratio=ratio,
    )


def write_csv(
    row_type: type,
    rows: Iterable[object],
    out: str | os.PathLike | IO[str],
    params: Mapping[str, object] | None = None,
    missing: str = "na",
) -> None:
    """Write dataclass or NamedTuple rows as CSV under a header of row_type's field names.

    With params, a '# key=value ...' echo line comes first so a report is
    self-describing.  Every line, the echo line included, ends in CRLF as
    csv.writer rows do.  Floats are written as %.6f (an alpha that %.6f
    would round, such as 1e-7, as its repr) and None as `missing`.
    """
    names = getattr(row_type, "_fields", None) or [f.name for f in dataclasses.fields(row_type)]
    with _opened(out, "w") as fh:
        if params is not None:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in params.items()) + "\r\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_cell(name, getattr(row, name), missing) for name in names])


def _format_cell(name: str, value: object, missing: str) -> str:
    if value is None:
        return missing
    if isinstance(value, float):
        text = f"{value:.6f}"
        return repr(value) if name == "alpha" and float(text) != value else text
    return str(value)
