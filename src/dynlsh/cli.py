"""Command-line harness.

Subcommands: generate (synthetic corpus to stream + manifest files),
ingest (validate a stream and report its rows' net cardinalities), deviation
(similarity-estimate deviation report), scurve (empirical banding curve),
timing (sketch vs exact all-pairs wall clock), and lsh (end-to-end
candidate generation with optional verification).  All reports are CSV
with a leading parameter echo line; exit status is 0 on success and 2,
with an `error:` line, on parse, data, generation or file errors and on
option values the library rejects.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Sequence

from .bench import (
    DEFAULT_GRID,
    DEFAULT_PLANTED_RANGES,
    DeviationRow,
    PlantedPair,
    ScurveRow,
    TimingRow,
    deviation_report,
    generate,
    generate_distribution,
    read_manifest,
    scurve_report,
    timing_report,
    write_csv,
    write_stream,
)
from .distance import DistanceEstimator
from .errors import GenerationError
from .hashing import SketchRandomness
from .lsh import CandidatePair, LshConfig, LshIndex
from .similarity import jaccard
from .stream import read_sets, read_stream, replay


_TYPE_NAMES = {int: "an integer", float: "a number"}


def _converted(kind: type, text: str, what: str) -> int | float:
    """kind(text), or an argparse error that names what and the type it must be."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be {_TYPE_NAMES[kind]}, got {text!r}") from None


def _seed_value(text: str) -> int:
    value = _converted(int, text, "seed")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _threshold_value(text: str) -> float:
    value = _converted(float, text, "threshold")
    if not value >= 0:  # NaN too: estimates are never negative, so nothing would be kept
        raise argparse.ArgumentTypeError(f"threshold must be >= 0, got {text}")
    return value


def _colon_lists(text: str, types: tuple[type, ...]) -> tuple[tuple, ...]:
    """Comma-separated colon lists, each of len(types) fields read by types in turn."""
    out = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != len(types):
            raise argparse.ArgumentTypeError(f"expected {len(types)} ':'-separated fields, got {part!r}")
        out.append(tuple(
            _converted(kind, field, f"field {k} of {part!r}")
            for k, (kind, field) in enumerate(zip(types, fields), 1)
        ))
    return tuple(out)


def _parse_ranges(text: str) -> tuple[tuple[float, float], ...]:
    """Comma-separated low:high target intervals; 'none' for no planting."""
    return () if text.strip().lower() in ("", "none") else _colon_lists(text, (float, float))


def _parse_deviation_grid(text: str) -> tuple[tuple[int, float], ...]:
    """Comma-separated buckets:alpha combinations, e.g. 128:0.05,256:0.025."""
    return _colon_lists(text, (int, float))


def _parse_scurve_grid(text: str) -> tuple[tuple[int, int, float, int], ...]:
    """Comma-separated r:l:alpha:buckets combinations."""
    return _colon_lists(text, (int, int, float, int))


_ALPHA_HELP = (
    "per-item sampling rate in (0, 1]; mapped to sketch level "
    "ceil(log2(1/alpha)) - 1 (clamped to the valid range), and the report "
    "reads that single row, which keeps items at rate 2^-(level+1): the "
    "largest power of two at or below alpha (1/2 for alpha 1)"
)


def _echo(args: argparse.Namespace) -> dict[str, object]:
    """A report's `# key=value` echo: every option but --out, in parser order, grids as a:b,c:d."""
    return {
        key: ",".join(":".join(map(str, t)) for t in value) if isinstance(value, tuple) else value
        for key, value in vars(args).items()
        if key not in ("command", "func", "out")
    }


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_seed_value, default=0, help="64-bit master seed (default 0)")
    sub.add_argument("--out", default=None, help="output path (default: stdout for reports)")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.out is None:
        raise GenerationError("generate requires --out PREFIX for the stream and manifest files")
    density = (args.density[0], args.density[1])
    if args.distribution:
        corpus = generate_distribution(args.pairs, args.cols, density, seed=args.seed)
    else:
        ranges = DEFAULT_PLANTED_RANGES if args.ranges is None else args.ranges
        corpus = generate(args.rows, args.cols, density, ranges, args.every, args.seed)
    stream_path = args.out + ".stream"
    manifest_path = args.out + ".manifest.csv"
    updates = write_stream(corpus, stream_path, churn=args.churn, seed=args.seed)
    write_csv(PlantedPair, corpus.manifest, manifest_path)
    print(
        f"wrote {updates} updates for {corpus.n} rows over universe {corpus.d} "
        f"to {stream_path}; {len(corpus.manifest)} labeled pairs in {manifest_path}"
    )
    return 0


@dataclass(frozen=True)
class CardinalityRow:
    """One row of the ingest --out table: row index and net cardinality."""

    row: int
    cardinality: int


def _cmd_ingest(args: argparse.Namespace) -> int:
    n, d, updates = read_stream(args.stream)
    SketchRandomness(d, args.buckets, args.seed)  # --buckets and --seed are still validated
    cards = [net.size for net in replay(n, updates)]  # a row's cardinality is its net set's size
    lo, hi = min(cards, default=0), max(cards, default=0)
    print(
        f"ingested {len(cards)} rows over universe {d}; "
        f"cardinality range [{lo}, {hi}]"
    )
    if args.out is not None:
        table = [CardinalityRow(j, c) for j, c in enumerate(cards)]
        write_csv(CardinalityRow, table, args.out, _echo(args))
    return 0


def _cmd_deviation(args: argparse.Namespace) -> int:
    d, sets = read_sets(args.stream)
    manifest = read_manifest(args.manifest)
    rows = deviation_report(
        sets,
        manifest,
        d,
        args.grid,
        trials=args.trials,
        split=args.split,
        low_sample=args.low_sample,
        master_seed=args.seed,
    )
    write_csv(DeviationRow, rows, args.out or sys.stdout, _echo(args))
    return 0


def _cmd_scurve(args: argparse.Namespace) -> int:
    d, sets = read_sets(args.stream)
    manifest = read_manifest(args.manifest)
    rows = scurve_report(
        sets,
        manifest,
        d,
        args.grid,
        trials=args.trials,
        bin_width=args.bin_width,
        master_seed=args.seed,
    )
    write_csv(ScurveRow, rows, args.out or sys.stdout, _echo(args))
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    d, sets = read_sets(args.stream)
    row = timing_report(sets, d, args.buckets, args.alpha, args.seed)
    write_csv(TimingRow, [row], args.out or sys.stdout, _echo(args))
    return 0


def _cmd_lsh(args: argparse.Namespace) -> int:
    n, d, updates = read_stream(args.stream)
    randomness = SketchRandomness(d, args.buckets, args.seed)
    cfg = LshConfig(
        r1=args.r1,
        r2=args.r2,
        epsilon=args.eps,
        delta=args.delta,
        bands_r=args.bands,
        repetitions_l=args.reps,
    )
    index = LshIndex(cfg, randomness)
    for net in replay(n, updates, index):  # each replay block is indexed as it is cut
        pass
    updates = net = None  # the sorted stream, and a view of its last block
    if args.threshold is None:
        pairs = index.candidates()
        summary = f"{len(pairs)} candidate pairs"
    else:  # only the kept pairs are built
        estimator = DistanceEstimator(jaccard(randomness.d), randomness)
        pairs, scored = index.search(estimator, args.threshold)
        summary = f"{len(pairs)} kept of {scored} candidate pairs"
    write_csv(CandidatePair, pairs, args.out or sys.stdout, missing="")
    print(summary, file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynlsh",
        description="Sketch-based set similarity over dynamic update streams.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="write a synthetic corpus as stream + manifest files")
    p.add_argument("--rows", type=int, default=1000, help="base rows (default 1000)")
    p.add_argument("--cols", type=int, default=10_000, help="universe size d (default 10000)")
    p.add_argument(
        "--density",
        type=float,
        nargs=2,
        metavar=("LOW", "HIGH"),
        default=[0.01, 0.05],
        help="per-row density range (default 0.01 0.05)",
    )
    p.add_argument(
        "--ranges",
        type=_parse_ranges,
        default=None,
        help="planted similarity intervals low:high,... ('none' disables; "
        "default 0.35:0.45 through 0.85:0.95)",
    )
    p.add_argument("--every", type=int, default=100, help="plant a partner per EVERY base rows")
    p.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="extra cancelling updates per row as a fraction of row size (default 0)",
    )
    p.add_argument(
        "--distribution",
        action="store_true",
        help="plant --pairs pairs with targets drawn from the built-in similarity histogram",
    )
    p.add_argument("--pairs", type=int, default=500, help="pair count for --distribution mode")
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser("ingest", help="replay a stream, validate it, report cardinalities")
    p.add_argument("--stream", required=True, help="stream file path")
    p.add_argument("--buckets", type=int, default=256, help="sketch row width c^2 (default 256)")
    _add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = subs.add_parser("deviation", help="similarity-estimate deviation per (buckets, alpha)")
    p.add_argument("--stream", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--grid",
        type=_parse_deviation_grid,
        default=DEFAULT_GRID,
        help="buckets:alpha combinations (default 128:0.05,256:0.025,512:0.01,1024:0.005); "
        "each alpha reads the tail of rows from level ceil(log2(1/alpha)) - 1, "
        "which keeps items at rate 2^-level",
    )
    p.add_argument("--trials", type=int, default=10, help="seed repetitions (default 10)")
    p.add_argument(
        "--split",
        type=float,
        default=0.2,
        help="exact-similarity threshold separating the high and low sections (default 0.2)",
    )
    p.add_argument(
        "--low-sample",
        type=int,
        default=2000,
        help="random unlabeled pairs added to the low section (default 2000)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_deviation)

    p = subs.add_parser("scurve", help="empirical banding curve vs 1-(1-s^r)^l")
    p.add_argument("--stream", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--grid",
        type=_parse_scurve_grid,
        default=((10, 40, 0.005, 1024),),
        help="r:l:alpha:buckets combinations (default 10:40:0.005:1024); each "
        "alpha reads the single row ceil(log2(1/alpha)) - 1, which keeps items "
        "at rate 2^-(level+1)",
    )
    p.add_argument("--trials", type=int, default=5, help="seed repetitions (default 5)")
    p.add_argument("--bin-width", type=float, default=0.05, help="similarity bin width")
    _add_common(p)
    p.set_defaults(func=_cmd_scurve)

    p = subs.add_parser("timing", help="sketch vs exact all-pairs similarity wall clock")
    p.add_argument("--stream", required=True)
    p.add_argument("--buckets", type=int, default=256, help="sketch row width c^2")
    p.add_argument("--alpha", type=float, default=0.01, help=_ALPHA_HELP)
    _add_common(p)
    p.set_defaults(func=_cmd_timing)

    p = subs.add_parser("lsh", help="index a stream and emit candidate pairs")
    p.add_argument("--stream", required=True)
    p.add_argument("--buckets", type=int, default=1024, help="sketch row width c^2")
    p.add_argument("--r1", type=float, default=0.5, help="target similarity to retrieve")
    p.add_argument("--r2", type=float, default=0.1, help="similarity to reject")
    p.add_argument("--eps", type=float, default=0.5, help="estimation accuracy knob in (0,1)")
    p.add_argument("--delta", type=float, default=0.1, help="failure probability knob in (0,1)")
    p.add_argument("--bands", type=int, default=1, help="signatures concatenated per repetition")
    p.add_argument("--reps", type=int, default=1, help="independent repetitions")
    p.add_argument(
        "--threshold",
        type=_threshold_value,
        default=None,
        help="verify candidates and keep those with estimated distance <= THRESHOLD",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_lsh)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package's parse, data and generation errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
