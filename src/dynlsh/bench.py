"""Synthetic corpora, update-stream files, and benchmark reports.

The generator builds sparse random sets with a configurable density range
and plants high-similarity partner rows by copying a source row and
flipping bits at rates solved from the target similarity.  Corpora are
serialized as plain-text update streams (one signed coordinate update per
line), deletions included.  Reading one back sorts its updates once and
sums them per (row, item), and the lsh job counts each row's sketch from
its net items: exact, since the sketch is linear and every net count is 0
or 1.  Three report families sit on top: absolute similarity deviation for
labeled pairs, empirical banding S-curves against the closed form, and
wall-clock comparison of sketch-based versus exact all-pairs similarity.

All randomness flows from explicit integer seeds; nothing here consults
OS entropy.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import GenerationError, StreamDataError, StreamParseError
from .hashing import MAX_UNIVERSE, SketchRandomness, deepest_level, derived_rng, derived_seed
from .lsh import LshIndex, amplification_probability
from .sketch import LevelSketch, similarity_from_level
from .similarity import jaccard

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

# Lines per chunk of a stream body read from a handle: each chunk's lines
# and their joined text are held while they are parsed, and no longer.
_PARSE_CHUNK_ROWS = 1 << 14

# Characters per read of a stream body from a path; readline then ends the
# block at the next line end, about 24k lines of a generated stream.
_READ_BLOCK_CHARS = 1 << 18

# The most digits of a row or item the vector parse reads: 10^18 - 1 < 2^63.
_MAX_DIGITS = 18

# Lines per write_stream block, whose arrays and text are dropped once written.
_WRITE_BLOCK_LINES = 1 << 14

# Updates per replay block, which is cut between rows: a block's work
# arrays take tens of bytes per update, and go before the next block's.
_REPLAY_BLOCK = 1 << 16

# The widest packed (row, item, sign) sort key; wider streams use np.lexsort.
_KEY_BITS = 64

# The most rows a stream header may declare.  The parse holds nothing per
# declared row, but read_sets and ingest return one set or sketch per row,
# so a count no caller could hold is refused before any row is made.
_MAX_ROWS = 1 << 24


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


@contextmanager
def _opened(target: str | os.PathLike | IO[str], mode: str) -> Iterator[IO[str]]:
    """An open file passes through untouched; a path is opened as ASCII text and closed.

    A byte outside ASCII reads as a lone surrogate, which no parser here
    accepts, so it fails as a parse error on its line rather than in decoding.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    with open(target, mode, encoding="ascii", errors="surrogateescape", newline="") as fh:
        yield fh


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


def _read_stream(source: str | os.PathLike | IO[str]) -> tuple[int, int, tuple]:
    """(n, d, updates) of an update stream, the updates sorted by (row, item, sign).

    The source is read once and parsed whole before any row is looked at,
    so a malformed line raises StreamParseError with its line number first.
    The body is read in blocks of whole lines, each parsed by _columns: a
    file's are _READ_BLOCK_CHARS characters and the rest of that line, a
    handle's are _PARSE_CHUNK_ROWS of its own lines.  Each update is
    packed into one unsigned key, its row above its item above a sign bit
    set for +1 (uint32 when that fits, else uint64), and the keys are
    sorted in place.  updates is (keys, lows, shift): update k is in row
    keys[k] >> shift, and its item and sign bit are the low shift bits of
    keys[k].  A stream whose key would be wider than _KEY_BITS, that is
    bits(n - 1) + bits(d - 1) + 1 > 64 (n = 2^20 rows of d = 2^45 items,
    or d = 2^63 with n > 1), keeps its rows as the keys and the rest as
    lows, sorted together by np.lexsort.
    """
    with _opened(source, "r") as fh:
        lines = iter(fh)
        n, d = _parse_header(next(lines, ""))
        shift = (d - 1).bit_length() + 1
        width = max(n - 1, 0).bit_length() + shift
        dtype, packed = np.dtype(np.uint32 if width <= 32 else np.uint64), width <= _KEY_BITS
        keys, lows = [np.empty(0, dtype if packed else np.min_scalar_type(n))], [np.empty(0, dtype)]
        if fh is source:  # a handle: chunks of its own lines, joined
            chunks = iter(lambda: list(islice(lines, _PARSE_CHUNK_ROWS)), [])
            blocks = map(lambda chunk: ("".join(chunk), chunk), chunks)
        else:  # opened with newline="", so readline ends the block where the file ends a line
            texts = iter(lambda: fh.read(_READ_BLOCK_CHARS) + fh.readline(), "")
            blocks = map(lambda text: (text, None), texts)
        for j, i, v in _columns(blocks, n, d):
            low = (i.astype(dtype) << 1) | (v > 0)
            if packed:
                keys.append(low | (j.astype(dtype) << shift))
            else:
                keys.append(j.astype(keys[0].dtype))
                lows.append(low)
    keys = np.concatenate(keys)  # the parts are dropped once joined, to keep the peak low
    if packed:
        keys.sort()
        return n, d, (keys, None, shift)
    lows = np.concatenate(lows)
    order = np.lexsort((lows, keys))
    return n, d, (keys[order], lows[order], 0)


def _columns(
    blocks: Iterator[tuple[str, list[str] | None]], n: int, d: int
) -> Iterator[np.ndarray | tuple[np.ndarray, ...]]:
    """The int64 rows, items and values of each (text, lines) block of a stream's body.

    A text in write_stream's exact form is read by _parse_canonical, when
    a handle's lines, if given, are as many as the updates it found: a
    handle opened with newline="\\r" or "\\r\\n" splits such a text otherwise.
    Any other block goes to the line loop _parse_lines, over the handle's
    lines or the text split as a file opened with newline="" splits it, so
    the loop names the error and its line.
    """
    line_no = 2
    for text, lines in blocks:
        columns = _parse_canonical(text, n, d)
        if columns is None or (lines is not None and len(lines) != len(columns[0])):
            lines = io.StringIO(text, newline="").readlines() if lines is None else lines
            columns = _parse_lines(lines, n, d, line_no)
            line_no += len(lines)
        else:
            line_no += len(columns[0])  # one update per line
        del text, lines  # not held while the rows are packed
        yield columns


def _parse_canonical(text: str, n: int, d: int) -> tuple[np.ndarray, ...] | None:
    """The int64 rows, items and values of lines in write_stream's exact form, else None.

    Every line must be `j i v\\n`: single spaces, j and i of 1 to
    _MAX_DIGITS decimal digits (so neither overflows int64), v exactly 1
    or -1, and 0 <= j < n, 0 <= i < d.  The checks are vector compares on
    the bytes: where the separators are, one count of digits and signs,
    and where the signs are.  Whatever passes, the line loop reads alike;
    any text that fails goes to the line loop, which names the error.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    seps = np.flatnonzero(buf <= ord(" "))  # every control byte and space
    if not seps.size or seps.size % 3 or seps[-1] != buf.size - 1:
        return None
    # a line's separators are exactly " ", " ", newline: every third is a
    # newline, and the block holds no other newline and two spaces a line
    lines = seps.size // 3
    if not (
        (buf[seps[2::3]] == ord("\n")).all()
        and np.count_nonzero(buf == ord("\n")) == lines
        and np.count_nonzero(buf == ord(" ")) == 2 * lines
    ):
        return None
    signs = np.count_nonzero(buf == ord("-"))
    if np.count_nonzero(buf - ord("0") < 10) + signs + seps.size != buf.size:
        return None  # a byte that is no digit, sign or separator
    first, second, ends = seps.reshape(-1, 3).T
    width_j = first - np.r_[0, ends[:-1] + 1]
    width_i = second - first - 1
    negative = ends - second == 3
    if not (
        1 <= width_j.min() and width_j.max() <= _MAX_DIGITS
        and 1 <= width_i.min() and width_i.max() <= _MAX_DIGITS
        and ((ends - second == 2) | negative).all()  # v is "1" or "-1",
        and (buf[ends - 1] == ord("1")).all()
        and (buf[second[negative] + 1] == ord("-")).all()
        and np.count_nonzero(negative) == signs  # and no other token has a sign
    ):
        return None
    j, i = _decimal(buf, first, width_j), _decimal(buf, second, width_i)
    if int(j.max()) >= n or int(i.max()) >= d:
        return None
    return j, i, np.where(negative, -1, 1)


def _decimal(buf: np.ndarray, stop: np.ndarray, width: np.ndarray) -> np.ndarray:
    """int64 values of the digit runs buf[stop - width : stop], one gather per digit position."""
    value = np.zeros(stop.size, np.int64)
    for p in range(int(width.max()), 0, -1):  # the digit worth 10^(p - 1), "0" before a run
        value *= 10
        value += np.where(width >= p, buf[stop - p], ord("0")) - ord("0")
    return value


def _update_lines(rows: np.ndarray, items: np.ndarray, values: np.ndarray) -> str:
    """The `j i v\\n` lines of updates in write_stream's form: _decimal's inverse.

    One division by 10 per digit position, of rows and items together in
    the narrowest unsigned dtype, gives every digit and digit count, and
    one cumsum of the line lengths where each line ends.  Into a buffer of
    spaces go the line ends, the signs and the digits, most significant
    first, each at its number's end less min(position, width): past a
    number's width that writes a "0" its first digit then overwrites.
    """
    top = max(int(rows.max()), int(items.max()))
    keys = np.stack([rows, items], dtype=np.min_scalar_type(top), casting="unsafe")
    digits, widths = [], np.ones(keys.shape, np.intp)
    for _ in range(len(str(top))):
        quotient = keys // 10  # NumPy has a fast path for // by a scalar, none for %
        digits.append((keys - quotient * 10).astype(np.uint8) + ord("0"))
        keys = quotient
        widths += keys > 0
    negative = values < 0
    ends = np.cumsum(widths.sum(axis=0) + 4 + negative)
    buf = np.full(int(ends[-1]), ord(" "), np.uint8)
    buf[ends - 1], buf[ends - 2], buf[ends[negative] - 3] = ord("\n"), ord("1"), ord("-")
    stops = np.stack([ends - 4 - negative - widths[1], ends - 3 - negative])  # row and item ends
    for p in range(len(digits), 0, -1):
        buf[stops - np.minimum(widths, p)] = digits[p - 1]
    return buf.tobytes().decode("ascii")


def _replay(n: int, updates: tuple, index: LshIndex | None = None) -> Iterator[np.ndarray]:
    """Rows 0..n-1 of _read_stream's updates, lazily, as their sorted int64 net sets.

    The updates are walked in blocks of at most _REPLAY_BLOCK, cut between
    rows (a longer row is a block of its own), and nothing is held per
    declared row.  Per block the signs of each (row, item) are summed, and
    the first sum outside {0, 1}, in row and then item order, raises
    StreamDataError; a row's items summing to 1 are its net set.  A row
    without updates is empty.  With an index, each block's rows, and the
    empty rows before them, are indexed under their row numbers by one
    index.insert_many call before their net sets are yielded: _counters
    gives their sketches' nonzero counters from the net items.
    """
    keys, lows, shift = updates
    empty = np.empty(0, np.int64)
    j = lo = 0
    while lo < keys.size:
        hi = min(lo + _REPLAY_BLOCK, keys.size)
        if hi < keys.size:  # a bound of keys' own dtype: a Python int would copy keys to int64
            row, as_key = int(keys[hi]) >> shift, keys.dtype.type
            hi = int(keys.searchsorted(as_key(row << shift)))  # back to where the row at hi starts
            if hi == lo:
                hi = int(keys.searchsorted(as_key(((row + 1) << shift) - 1), "right"))
        rows = keys[lo:hi] >> shift
        low = keys[lo:hi] & ((1 << shift) - 1) if lows is None else lows[lo:hi]
        items = low >> 1  # unsigned until only the net items are left
        start = np.r_[True, (rows[1:] != rows[:-1]) | (items[1:] != items[:-1])]
        first, plus = np.flatnonzero(start), (low & 1).astype(bool)
        # a run's +1s follow its -1s: they begin where a +1 opens the run or follows a -1
        up = np.flatnonzero(plus & (start | np.r_[True, ~plus[:-1]]))
        ends = np.r_[first[1:], rows.size]
        net = first - ends
        has = plus[ends - 1]  # the runs holding a +1, one up each
        net[has] += 2 * (ends[has] - up)
        if (bad := np.flatnonzero((net != 0) & (net != 1))).size:
            at, count = first[bad[0]], net[bad[0]]
            raise StreamDataError(f"row {int(rows[at])}: item {int(items[at])} has net count {int(count)}")
        keep = first[net == 1]
        rows, items = rows[keep], items[keep].astype(np.int64)
        del low, start, first, plus, up, ends, net, has, keep  # only the net items wait on the yields
        starts = np.flatnonzero(np.r_[bool(rows.size), rows[1:] != rows[:-1]])  # none if all cancel
        if index is not None and rows.size:
            rank = rows.astype(np.int64) - j  # rows j .. rows[-1] make up the indexed block
            count = int(rank[-1]) + 1
            cardinalities = np.bincount(rank, minlength=count).tolist()
            positions, values, sizes = _counters(index.randomness, items, rank, count)
            index.insert_many(range(j, j + count), positions, values, sizes, cardinalities)
            del rank, positions, values
        cuts = [*starts.tolist(), rows.size]
        for row, a, b in zip(rows[starts].tolist(), cuts, cuts[1:]):
            yield from repeat(empty, row - j)
            yield items[a:b]
            j = row + 1
        del rows, items  # each block's arrays are dropped before the next is cut
        lo = hi
    if index is not None and j < n:
        index.insert_many(range(j, n), empty, empty, [0] * (n - j), [0] * (n - j))
    yield from repeat(empty, n - j)


def _counters(
    randomness: SketchRandomness, items: np.ndarray, rank: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """A block's row sketches as LshIndex.insert_many takes them: positions, values, sizes.

    Row k of the count rows holds the net items whose rank is k, the ranks
    ascending, and each is hashed once to its flat cell.  The sketch is
    linear and a valid row's net counts are 0 or 1, so a counter is the
    number of net items in its cell: one sort of rank * width + cell,
    run-length counted, gives every row's sorted nonzero flat positions
    and their values back to back, and how many each row has.
    """
    width = randomness.num_levels * randomness.c_squared
    key = randomness.cells_of(items.view(np.uint64))
    key += rank * width
    key.sort()  # rank leads, so each row keeps its span
    first = np.flatnonzero(np.r_[bool(key.size), key[1:] != key[:-1]])
    positions = key[first] - rank[first] * width
    return positions, np.diff(first, append=key.size), np.bincount(rank[first], minlength=count).tolist()


def read_sets(source: str | os.PathLike | IO[str]) -> tuple[int, list[np.ndarray]]:
    """Universe size d and the exact net set of every row of an update stream.

    Malformed lines raise StreamParseError with their line number, and a
    row whose net count for some item is outside {0, 1} raises
    StreamDataError.  The stream is sorted once and summed per (row, item).
    Hashing only a row's net set gives the row's sketch exactly, since the
    sketch is linear and every net count is 0 or 1.
    """
    n, d, updates = _read_stream(source)
    return d, list(_replay(n, updates))


def ingest(source: str | os.PathLike | IO[str], c_squared: int, master_seed: int) -> BenchCorpus:
    """Every row's net set, and its sketch from one update_many of the net set.

    The randomness is built after the parse, before any row is checked.
    The sketch is linear and a valid stream's net counts are 0 or 1, so the
    net items give the sketch the whole stream would.
    """
    n, d, updates = _read_stream(source)
    randomness = SketchRandomness(d, c_squared, master_seed)
    sets = list(_replay(n, updates))
    sketches = [LevelSketch(randomness) for _ in sets]
    for sketch, net in zip(sketches, sets):
        sketch.update_many(net, 1)
    return BenchCorpus(randomness, sketches, sets)


def _parse_header(header: str) -> tuple[int, int]:
    """(n, d) from a stream's first line, or StreamParseError at line 1.

    The header is `n d` with 0 <= n <= 2^24 rows and 1 <= d <= 2^63 items:
    every row becomes a set or a sketch, items are int64, and a sketch's
    levels run to ceil(log2 d) <= 63.
    """
    parts = header.split()
    if len(parts) != 2:
        raise StreamParseError(f"expected header 'n d', got {header.rstrip()!r}", 1)
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise StreamParseError(f"non-integer header {header.rstrip()!r}", 1) from exc
    if not (0 <= n <= _MAX_ROWS and 1 <= d <= MAX_UNIVERSE):
        raise StreamParseError(
            f"header requires 0 <= n <= 2^24 and 1 <= d <= 2^63, got n={n} d={d}", 1
        )
    return n, d


def _parse_lines(lines: Iterable[str], n: int, d: int, first_line: int) -> np.ndarray:
    """The line loop, and the one specification of a valid update-stream body.

    After a header `n d` (see _parse_header), each line holds three
    whitespace-separated tokens `j i v` that int() accepts, with 0 <= j < n,
    0 <= i < d and v in {+1, -1}; blank lines are skipped.  The first line
    breaking a rule raises StreamParseError with its 1-based number, the
    first of `lines` being line first_line.  Returns the (3, updates) int64
    array of rows, items and values in stream order.  _parse_canonical may
    only accept what this accepts.
    """
    rows: list[int] = []
    items: list[int] = []
    values: list[int] = []
    for line_no, line in enumerate(lines, start=first_line):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise StreamParseError(f"expected 'j i v', got {line.rstrip()!r}", line_no)
        try:
            j, i, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise StreamParseError(f"non-integer update {line.rstrip()!r}", line_no) from exc
        if not 0 <= j < n:
            raise StreamParseError(f"row {j} outside [0, {n})", line_no)
        if not 0 <= i < d:
            raise StreamParseError(f"item {i} outside [0, {d})", line_no)
        if v not in (1, -1):
            raise StreamParseError(f"value must be +1 or -1, got {v}", line_no)
        rows.append(j)
        items.append(i)
        values.append(v)
    return np.array([rows, items, values], dtype=np.int64)


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
