"""dynlsh benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload lsh-verify --seed 7 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
run prepares the workload's inputs from --seed in turn (set-up); after each
set-up it repeats rounds of timed work on that input for an equal share of
--seconds, then checks the program's outputs.  It prints every metric with its unit; times
are reference seconds (see speedclock.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run instead times some
rounds untraced and some with every public dynlsh layer wrapped in spans,
and reports per-layer metrics.  Spans and a results file are written under
perfbench/out/.  The exit code is 0 only when every operation and check
passed.  Workload choice and the layer-to-metric map are in design.json.
"""

from __future__ import annotations

import os

# One process, one thread: pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "updates_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="input size; smoke is a seconds-long run of the same code for perfbench/selftest.py",
    )
    return parser.parse_args(argv)


def _import_program(clock) -> float:
    """Import dynlsh from ./src and return the reference seconds it took."""
    start = clock.now()
    if not (ROOT / "src" / "dynlsh" / "__init__.py").is_file():
        raise SystemExit(f"error: no dynlsh sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import dynlsh  # noqa: F401  (timed: numpy and scipy load here)
    import dynlsh.cli  # noqa: F401

    return clock.now() - start


class Rounds:
    """Round times, updates, op latencies and failures, per prepared input.

    Times are reference seconds from the run's SpeedClock; raw wall seconds
    are kept alongside for the results file.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.by_input: list[list[float]] = []
        self.updates: list[int] = []
        self.raw_durations: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, workload, state, budget_s: float, tracer=None) -> None:
        """Repeat rounds on one input while the next round still fits the wall-time budget.

        The workload's warm-up rounds run first and are checked but not timed.
        """
        for _ in range(workload.warmup_rounds):
            gc.collect()
            result = workload.run_round(state)
            self.attempted += result.attempted + 1
            self.failed += result.failed + (not workload.record(state, result.output))
        durations: list[float] = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.round_id = len(durations)
            gc.collect()  # every round starts from the same collector state
            raw = time.perf_counter()
            begin = self.clock.now()
            result = workload.run_round(state)
            durations.append(self.clock.now() - begin)
            now = time.perf_counter()
            self.raw_durations.append(now - raw)
            self.op_s.extend(result.op_s)
            self.attempted += result.attempted + 1
            self.failed += result.failed + (not workload.record(state, result.output))
            if now - start + (now - raw) > budget_s:
                break
        self.by_input.append(durations)
        self.updates.append(result.updates)

    @property
    def rounds(self) -> int:
        return sum(len(d) for d in self.by_input)

    def wall_s(self) -> float:
        """Mean over inputs of the median round time on that input."""
        return statistics.fmean(statistics.median(d) for d in self.by_input)

    def updates_per_s(self) -> float:
        return sum(self.updates) / sum(statistics.median(d) for d in self.by_input)


def _percentile_us(values_s: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values_s), q)) * 1e6


def _host(seed: int) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _layer_metrics(tracer, traced: Rounds, untraced: Rounds, probe, setups: int) -> dict[str, float]:
    import tracemalloc

    import dynlsh
    import numpy as np

    s = tracer.summary(traced.rounds)
    round_s = traced.wall_s()

    def per(name: str, key: str, by: str = "calls", scale: float = 1.0) -> float:
        base = s[name][by]
        return scale * s[name][key] / base if base else 0.0

    m: dict[str, float] = {}
    um, lv, bk = "sketch.update_many", "hashing.levels_of", "hashing.buckets_of"
    m[f"{um}.calls"] = s[um]["calls"]
    m[f"{um}.items"] = s[um]["size_in"]
    m[f"{um}.us_per_call"] = per(um, "s", scale=1e6)
    m[f"{um}.ns_per_item"] = per(um, "s", "size_in", 1e9)
    m[f"{um}.self_s"] = s[um]["self_s"]
    m[f"{um}.share"] = s[um]["s"] / round_s
    for name in (lv, bk):
        m[f"{name}.calls"] = s[name]["calls"]
        m[f"{name}.ns_per_item"] = per(name, "s", "size_in", 1e9)
    ing = "bench.ingest"
    m[f"{ing}.s"] = s[ing]["s"]
    m[f"{ing}.self_s"] = s[ing]["self_s"]
    m[f"{ing}.ns_per_update"] = 1e9 * s[ing]["s"] / probe.updates_ingested if s[ing]["calls"] else 0.0
    m[f"{ing}.share"] = s[ing]["s"] / round_s
    for name in ("bench.generate", "bench.write_stream"):
        m[f"{name}.setup_s"] = s[name]["setup_s"] / setups
    ed = "distance.estimate_distance"
    m[f"{ed}.calls"] = s[ed]["calls"]
    m[f"{ed}.us_per_call"] = per(ed, "s", scale=1e6)
    m[f"{ed}.self_us_per_call"] = per(ed, "self_s", scale=1e6)
    m[f"{ed}.share"] = s[ed]["s"] / round_s
    for name in ("sketch.merge", "sketch.l0_estimate"):
        m[f"{name}.calls"] = s[name]["calls"]
        m[f"{name}.us_per_call"] = per(name, "s", scale=1e6)
    vf = "lsh.verify"
    m[f"{vf}.pairs_in"] = s[vf]["size_in"]
    m[f"{vf}.pairs_kept"] = s[vf]["size_out"]
    m[f"{vf}.keep_ratio"] = per(vf, "size_out", "size_in")
    m[f"{vf}.us_per_pair"] = per(vf, "s", "size_in", 1e6)
    m[f"{vf}.share"] = s[vf]["s"] / round_s
    ins = "lsh.insert"
    m[f"{ins}.calls"] = s[ins]["calls"]
    m[f"{ins}.us_per_call"] = per(ins, "s", scale=1e6)
    m[f"{ins}.share"] = s[ins]["s"] / round_s
    mp = "hashing.minhash_positions"
    m[f"{mp}.calls"] = s[mp]["calls"]
    m[f"{mp}.us_per_call"] = per(mp, "s", scale=1e6)
    m["hashing.minhash_spec.calls"] = s["hashing.minhash_spec"]["calls"]
    cd = "lsh.candidates"
    m[f"{cd}.calls"] = s[cd]["calls"]
    m[f"{cd}.s"] = s[cd]["s"]
    m[f"{cd}.pairs"] = s[cd]["size_out"]
    m[f"{cd}.pairs_per_s"] = per(cd, "size_out", "s")
    m[f"{cd}.share"] = s[cd]["s"] / round_s
    m["cli.main.self_s"] = s["cli.main"]["self_s"]

    counters = sum(int(np.count_nonzero(sk.buckets)) for sk in probe.sketches)
    total = sum(sk.buckets.size for sk in probe.sketches)
    m["sketch.nonzero_counter_share"] = counters / total if total else 0.0
    retained = 0.0
    if probe.cfg is not None and probe.sketches:
        index = dynlsh.LshIndex(probe.cfg, probe.randomness)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for j, sketch in enumerate(probe.sketches):
                index.insert(j, sketch)
            retained = (tracemalloc.get_traced_memory()[0] - before) / len(probe.sketches)
        finally:
            tracemalloc.stop()
    m[f"{ins}.retained_bytes_per_set"] = retained
    m["trace.round_s"] = round_s
    m["trace.overhead_share"] = round_s / untraced.wall_s() - 1.0
    return m


LAYER_UNITS_BY_SUFFIX = {
    "calls": "count",
    "items": "count",
    "pairs_in": "count",
    "pairs_kept": "count",
    "pairs": "count",
    "keep_ratio": "ratio",
    "share": "ratio",
    "nonzero_counter_share": "ratio",
    "overhead_share": "ratio",
    "us_per_call": "us",
    "self_us_per_call": "us",
    "us_per_pair": "us",
    "ns_per_item": "ns",
    "ns_per_update": "ns",
    "pairs_per_s": "1/s",
    "retained_bytes_per_set": "B",
}


def _layer_unit(name: str) -> str:
    return LAYER_UNITS_BY_SUFFIX.get(name.rsplit(".", 1)[-1], "s")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(HERE))
    from speedclock import SpeedClock

    clock = SpeedClock()
    clock.start()
    try:
        return _main(args, clock)
    finally:
        clock.stop()


def _main(args: argparse.Namespace, clock) -> int:
    import_s = _import_program(clock)
    import tracing
    import workloads

    design = json.loads((HERE / "design.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, clock, import_s, design, workloads, tracing, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, clock, import_s, design, workloads, tracing, out_dir: Path, workdir: Path) -> int:
    host = _host(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    digests = design["digests"][args.workload]
    workload = workloads.WORKLOADS[args.workload](args.scale, workdir, digests, clock.now)
    tracer = tracing.Tracer(clock.now_ns) if args.trace else None
    # A traced run measures the first input only, half untraced, half traced.
    inputs = 1 if tracer is not None else workload.inputs
    budget = args.seconds / inputs / (2 if tracer is not None else 1)

    untraced = Rounds(clock)
    traced = Rounds(clock)
    setup_times: list[float] = []
    checks = []
    want = got = 0
    probe = None
    for k in range(inputs):
        # Set-up and rounds alternate per input, so only one input is in memory.
        if tracer is not None:
            tracer.patch()
        begin = clock.now()
        state = workload.prepare(workload.corpus_seed(args.seed, k), k)
        setup_times.append(clock.now() - begin)
        if tracer is not None:
            tracer.unpatch()
        # Keep the cyclic collector from rescanning the prepared input, so
        # collections cost what the program's own allocations cost.
        gc.collect()
        gc.freeze()
        untraced.run(workload, state, budget)
        if tracer is not None:
            tracer.patch()
            try:
                traced.run(workload, state, budget, tracer)
            finally:
                tracer.unpatch()
            probe = workload.probe(state)
        default_seed = args.scale == "full" and args.seed == workloads.DEFAULT_SEED and k == 0
        checks += workload.check(state, default_seed)
        wanted, returned = workload.recall(state)
        want, got = want + wanted, got + returned
        del state
        gc.unfreeze()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_checks = [c for c in checks if not c.ok]
    for c in failed_checks:
        print(f"check failed: {c.name} {c.detail}")
    rounds = traced if tracer is not None else untraced
    attempted = untraced.attempted + traced.attempted + len(checks)
    failed = untraced.failed + traced.failed + len(failed_checks)

    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": untraced.wall_s(),
            "updates_per_s": untraced.updates_per_s(),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END_UNITS
    else:
        metrics = _layer_metrics(tracer, traced, untraced, probe, len(setup_times))
        units = {name: _layer_unit(name) for name in metrics}
        if tracer.missing:
            print("trace targets missing: " + ", ".join(tracer.missing))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        f"rounds = {rounds.rounds}, ops timed = {len(rounds.op_s)}, "
        f"set-up samples = {len(setup_times)}, import_s = {import_s:.4g}"
    )
    # Printed but not declared in BENCHMARK.json: too unsteady between runs on a shared host.
    op_p50_us = _percentile_us(rounds.op_s, 50)
    op_p99_us = _percentile_us(rounds.op_s, 99)
    print(f"op_p50_us = {op_p50_us:.6g} us, op_p99_us = {op_p99_us:.6g} us ({len(rounds.op_s)} ops)")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations and checks)")
    print(f"planted_recall = {got / want if want else float('nan'):.6g} ({got} of {want} planted pairs)")

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "run_id": run_id,
        "host": host,
        "metrics": metrics,
        "setup_samples_s": setup_times,
        "import_s": import_s,
        "round_durations_s": rounds.by_input,
        "round_wall_durations_s": rounds.raw_durations,
        "clock_samples": clock.samples,
        "clock_kernel_median_s": statistics.median(clock.kernel_s),
        "ops_timed": len(rounds.op_s),
        "op_p50_us": op_p50_us,
        "op_p99_us": op_p99_us,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": [c.name for c in failed_checks],
        "planted_recall": {"wanted": want, "returned": got},
    }
    (out_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{run_id}.spans.npz", run_id)

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
