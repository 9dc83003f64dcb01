"""The update-stream format: its reader, its replay and its line writer.

A stream is plain text: a header line `n d`, then one signed coordinate
update `j i v` per line, row j, item i and v in {+1, -1}, deletions
included.  read_stream parses a stream whole and sorts its updates once;
replay sums them per (row, item) and yields each row's net set, and with
an LshIndex it indexes the rows' sketches from their net items: exact,
since the sketch is linear and every net count is 0 or 1.  read_sets
does both for the reports, and _update_lines writes the lines that
bench.write_stream emits.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from itertools import islice, repeat
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import StreamDataError, StreamParseError
from .hashing import MAX_UNIVERSE, SketchRandomness
from .lsh import LshIndex

# Lines per chunk of a stream body read from a handle: each chunk's lines
# and their joined text are held while they are parsed, and no longer.
_PARSE_CHUNK_ROWS = 1 << 14

# Characters per read of a stream body from a path; readline then ends the
# block at the next line end, about 24k lines of a generated stream.
_READ_BLOCK_CHARS = 1 << 18

# The most digits of a row or item the vector parse reads: 10^18 - 1 < 2^63.
_MAX_DIGITS = 18

# Updates per replay block, which is cut between rows: a block's work
# arrays take tens of bytes per update, and go before the next block's.
_REPLAY_BLOCK = 1 << 16

# The widest packed (row, item, sign) sort key; wider streams use np.lexsort.
_KEY_BITS = 64

# The most rows a stream header may declare.  The parse holds nothing per
# declared row, but read_sets and ingest return one set or sketch per row,
# so a count no caller could hold is refused before any row is made.
_MAX_ROWS = 1 << 24


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


def read_stream(source: str | os.PathLike | IO[str]) -> tuple[int, int, tuple]:
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


def replay(n: int, updates: tuple, index: LshIndex | None = None) -> Iterator[np.ndarray]:
    """Rows 0..n-1 of read_stream's updates, lazily, as their sorted int64 net sets.

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
    n, d, updates = read_stream(source)
    return d, list(replay(n, updates))


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
