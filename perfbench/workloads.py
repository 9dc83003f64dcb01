"""The three benchmark workloads, driven through dynlsh's public API only.

Each workload builds its inputs from a seed in `prepare` (set-up, timed as
`setup_s`), runs one round of timed work in `run_round`, and checks the
program's outputs in `check`.  Why each workload exists is recorded in
perfbench/design.json.

Rules every workload keeps:
- the program sees only the generated inputs; the seed reaches it only as
  the master seed a user would pass;
- a sketch is never changed after it has been inserted into an index unless
  it is inserted again, so outputs do not depend on whether the index
  snapshots or aliases the sketches it holds.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

import dynlsh
import dynlsh.cli

DEFAULT_SEED = 7
# Independent generators for the benchmark's own choices; disjoint from the
# spawn keys dynlsh uses internally.
_TAG_CORPUS = 101
_TAG_INTERLEAVE = 102
_TAG_CHURN = 103


def child_seed(seed: int, *key: int) -> int:
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def pairs_digest(pairs: Sequence[Any]) -> str:
    text = "".join(f"{p.id_a},{p.id_b},{p.level},{p.repetition}\n" for p in pairs)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


def build_sketch(randomness: Any, items: np.ndarray) -> Any:
    sketch = dynlsh.LevelSketch(randomness)
    sketch.update_many(items)
    return sketch


@dataclass
class RoundResult:
    """What one round did: updates applied, per-op latencies, failures."""

    updates: int
    op_s: list[float]
    attempted: int
    failed: int
    output: Any = None


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class LayerProbe:
    """Sketches (and index settings) the traced run inspects after its rounds."""

    sketches: list[Any]
    randomness: Any
    cfg: Any = None
    updates_ingested: int = 0


class Workload:
    """Base: prepare an input, run rounds on it, check the outputs."""

    name = ""
    # Inputs per untraced run.  The work of one input (its candidate count,
    # its update count) varies with the seed, so a run averages over several;
    # turnstile-live's work varies least and its rounds are longest, so it
    # uses two.  More inputs would push a run past about 40 s on a busy host.
    inputs = 3
    warmup_rounds = 0

    def __init__(self, scale: str, workdir: Path, digests: dict[str, str], clock: Callable[[], float]) -> None:
        self.clock = clock
        self.scale = scale
        self.workdir = workdir
        self.digests = digests

    def corpus_seed(self, seed: int, k: int) -> int:
        """Input 0 uses the run's seed itself, the others seeds derived from it."""
        return seed if k == 0 else child_seed(seed, _TAG_CORPUS, k)

    def prepare(self, seed: int, k: int) -> Any:
        raise NotImplementedError

    def run_round(self, state: Any) -> RoundResult:
        raise NotImplementedError

    def summarize(self, state: Any, output: Any) -> Any:
        """What of a round's output is kept for checks (outside the timed round)."""
        return output

    def record(self, state: Any, output: Any) -> bool:
        """Keep the first round's summary; later rounds must repeat it."""
        summary = self.summarize(state, output)
        if state.first is None:
            state.first = summary
            return True
        return summary == state.first

    def check(self, state: Any, default_seed: bool) -> list[Check]:
        """Checks of the last round's outputs; digests only at the default seed."""
        raise NotImplementedError

    def recall(self, state: Any) -> tuple[int, int]:
        """Planted pairs the workload should return, and how many it did."""
        return 0, 0

    def probe(self, state: Any) -> LayerProbe:
        raise NotImplementedError


# ---------------------------------------------------------------- lsh-verify


@dataclass
class VerifyState:
    seed: int
    corpus: Any
    randomness: Any
    stream: Path
    out: Path
    updates: int
    first: Any = None


class LshVerify(Workload):
    """The README `dynlsh lsh --threshold 0.6` job, in-process via cli.main."""

    name = "lsh-verify"
    threshold = 0.6
    buckets = 1024

    def __init__(self, scale: str, workdir: Path, digests: dict[str, str], clock: Callable[[], float]) -> None:
        super().__init__(scale, workdir, digests, clock)
        self.rows, self.every = (1000, 100) if scale == "full" else (120, 40)
        self.cols = 10_000
        self.churn = 0.5

    def _argv(self, state: VerifyState, out: Path, verify: bool) -> list[str]:
        argv = ["lsh", "--stream", str(state.stream), "--buckets", str(self.buckets)]
        if verify:
            argv += ["--threshold", str(self.threshold)]
        return argv + ["--seed", str(state.seed), "--out", str(out)]

    def prepare(self, seed: int, k: int) -> VerifyState:
        corpus = dynlsh.generate(
            self.rows, self.cols, (0.01, 0.05), dynlsh.DEFAULT_PLANTED_RANGES, self.every, seed
        )
        stream = self.workdir / f"corpus{k}.stream"
        updates = dynlsh.write_stream(corpus, stream, churn=self.churn, seed=seed)
        randomness = dynlsh.SketchRandomness(self.cols, self.buckets, seed)
        return VerifyState(seed, corpus, randomness, stream, self.workdir / f"kept{k}.csv", updates)

    def run_round(self, state: VerifyState) -> RoundResult:
        start = self.clock()
        try:
            code = dynlsh.cli.main(self._argv(state, state.out, verify=True))
        except Exception as exc:  # a raising job is a failed operation, not a crash
            print(f"lsh-verify: cli.main raised {exc!r}")
            code = -1
        elapsed = self.clock() - start
        output = state.out.read_bytes() if code == 0 else None
        return RoundResult(state.updates, [elapsed], 1, int(code != 0), output)

    def _kept(self, state: VerifyState) -> list[tuple[int, int, float, str]]:
        lines = state.first.decode("ascii").splitlines()
        if not lines or lines[0] != "id_a,id_b,level,repetition,verified_distance":
            raise ValueError(f"unexpected candidate CSV header {lines[:1]!r}")
        out = []
        for line in lines[1:]:
            a, b, _, _, dist = line.split(",")
            out.append((int(a), int(b), float(dist), dist))
        return out

    def check(self, state: VerifyState, default_seed: bool) -> list[Check]:
        if state.first is None:
            return [Check("job_ok", False, "no successful job output")]
        try:
            kept = self._kept(state)
        except ValueError as exc:
            return [Check("csv", False, str(exc))]
        checks: list[Check] = []
        estimator = dynlsh.DistanceEstimator(dynlsh.jaccard(self.cols), state.randomness)
        for a, b, dist, text in kept:
            checks.append(Check(f"pair{a}-{b}.within_threshold", dist <= self.threshold, text))
            again = estimator.estimate_distance(
                build_sketch(state.randomness, state.corpus.rows[a]),
                build_sketch(state.randomness, state.corpus.rows[b]),
            )
            checks.append(Check(f"pair{a}-{b}.re_estimate", f"{again:.6f}" == text, f"{again:.6f} vs {text}"))
        if default_seed:
            cand_out = self.workdir / "candidates.csv"
            code = dynlsh.cli.main(self._argv(state, cand_out, verify=False))
            cand = hashlib.sha256(cand_out.read_bytes()).hexdigest() if code == 0 else ""
            verified = hashlib.sha256(state.first).hexdigest()
            checks.append(Check("digest.candidates", cand == self.digests["candidates"], cand))
            checks.append(Check("digest.verified", verified == self.digests["verified"], verified))
        return checks

    def recall(self, state: VerifyState) -> tuple[int, int]:
        if state.first is None:
            return 0, 0
        kept = {(a, b) for a, b, _, _ in self._kept(state)}
        want = got = 0
        for pair in state.corpus.manifest:
            if pair.exact_similarity >= 1.0 - self.threshold:
                want += 1
                got += (min(pair.id_a, pair.id_b), max(pair.id_a, pair.id_b)) in kept
        return want, got

    def probe(self, state: VerifyState) -> LayerProbe:
        corpus = dynlsh.ingest(state.stream, self.buckets, state.seed)
        cfg = dynlsh.LshConfig(r1=0.5, r2=0.1)  # the `dynlsh lsh` defaults
        return LayerProbe(corpus.sketches, corpus.randomness, cfg, state.updates)


# ------------------------------------------------------------ turnstile-live


@dataclass
class LiveState:
    corpus: Any
    randomness: Any
    estimator: Any
    batches: list[tuple[int, np.ndarray, np.ndarray]]
    queries: dict[int, tuple[int, int]]
    updates: int
    first: Any = None
    sketches: list[Any] = field(default_factory=list)


class TurnstileLive(Workload):
    """Interleaved per-row update batches with distance queries between them."""

    name = "turnstile-live"
    inputs = 2
    batch = 64
    query_every = 16
    buckets = 256

    def __init__(self, scale: str, workdir: Path, digests: dict[str, str], clock: Callable[[], float]) -> None:
        super().__init__(scale, workdir, digests, clock)
        self.rows, self.cols, self.every = (256, 2**20, 32) if scale == "full" else (32, 2**16, 8)
        self.churn = 1.0

    def prepare(self, seed: int, k: int) -> LiveState:
        corpus = dynlsh.generate(
            self.rows, self.cols, (0.001, 0.004), dynlsh.DEFAULT_PLANTED_RANGES, self.every, seed
        )
        buf = io.StringIO()
        updates = dynlsh.write_stream(corpus, buf, churn=self.churn, seed=seed)
        text = buf.getvalue()
        table = np.fromstring(text[text.index("\n") + 1 :], dtype=np.int64, sep=" ").reshape(-1, 3)
        if table.shape[0] != updates:
            raise ValueError(f"parsed {table.shape[0]} updates, stream reports {updates}")
        # The stream lists each row's updates together and in order; cut each
        # row into batches, then interleave rows at random while keeping every
        # row's own batch order, so each prefix of a row stays a valid set.
        starts = np.flatnonzero(np.r_[True, table[1:, 0] != table[:-1, 0]])
        ends = np.r_[starts[1:], table.shape[0]]
        per_row: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for lo, hi in zip(starts, ends):
            j = int(table[lo, 0])
            per_row[j] = [
                (table[s : min(s + self.batch, hi), 1].copy(), table[s : min(s + self.batch, hi), 2].copy())
                for s in range(lo, hi, self.batch)
            ]
        rng = _rng(seed, _TAG_INTERLEAVE)
        order = np.repeat(np.array(sorted(per_row)), [len(per_row[j]) for j in sorted(per_row)])
        rng.shuffle(order)
        taken = dict.fromkeys(per_row, 0)
        batches = []
        queries: dict[int, tuple[int, int]] = {}
        for i, j in enumerate(order.tolist()):
            items, values = per_row[j][taken[j]]
            taken[j] += 1
            batches.append((j, items, values))
            if i % self.query_every == self.query_every - 1:
                other = int(rng.integers(corpus.n - 1))
                queries[i] = (j, other + (other >= j))
        randomness = dynlsh.SketchRandomness(self.cols, self.buckets, seed)
        estimator = dynlsh.DistanceEstimator(dynlsh.jaccard(self.cols), randomness)
        return LiveState(corpus, randomness, estimator, batches, queries, updates)

    def run_round(self, state: LiveState) -> RoundResult:
        sketches = [dynlsh.LevelSketch(state.randomness) for _ in range(state.corpus.n)]
        latencies: list[float] = []
        answers: list[float] = []
        failed = 0
        clock = self.clock
        for i, (j, items, values) in enumerate(state.batches):
            try:
                sketches[j].update_many(items, values)
            except Exception as exc:
                failed += 1
                print(f"turnstile-live: update_many raised {exc!r}")
            pair = state.queries.get(i)
            if pair is None:
                continue
            start = clock()
            try:
                answers.append(state.estimator.estimate_distance(sketches[pair[0]], sketches[pair[1]]))
            except Exception as exc:
                failed += 1
                answers.append(float("nan"))
                print(f"turnstile-live: estimate_distance raised {exc!r}")
            latencies.append(clock() - start)
        state.sketches = sketches
        attempted = len(state.batches) + len(state.queries)
        return RoundResult(state.updates, latencies, attempted, failed, answers)

    def check(self, state: LiveState, default_seed: bool) -> list[Check]:
        checks = [
            Check(
                f"row{j}.sketch_equals_direct_build",
                sketch == build_sketch(state.randomness, state.corpus.rows[j]),
            )
            for j, sketch in enumerate(state.sketches)
        ]
        if default_seed:
            text = "".join(f"{a!r}\n" for a in state.first)
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()
            checks.append(Check("digest.query_answers", digest == self.digests["query_answers"], digest))
        return checks

    def probe(self, state: LiveState) -> LayerProbe:
        return LayerProbe(state.sketches, state.randomness)


# --------------------------------------------------------------- index-churn


@dataclass
class ChurnState:
    corpus: Any
    randomness: Any
    sketches: list[Any]
    plan: list[tuple[int, np.ndarray, np.ndarray]]
    final_sets: dict[int, np.ndarray]
    updates: int
    first: Any = None
    final_sketches: list[Any] = field(default_factory=list)


class IndexChurn(Workload):
    """Index every row, enumerate candidates, churn 10% of rows, re-index."""

    name = "index-churn"
    # Round times on one input creep up by about 15% over the first rounds
    # (allocator state after 10^5 pair objects come and go) and then hold;
    # time only the steady rounds.
    warmup_rounds = 1
    buckets = 1024
    change_share = 0.1
    delete_share = 0.2

    def __init__(self, scale: str, workdir: Path, digests: dict[str, str], clock: Callable[[], float]) -> None:
        super().__init__(scale, workdir, digests, clock)
        self.rows, self.cols, self.every = (2000, 2**16, 40) if scale == "full" else (200, 2**14, 20)
        self.cfg = dynlsh.LshConfig(
            r1=0.5, r2=0.1, epsilon=0.9, delta=0.5, bands_r=3, repetitions_l=8
        )

    def prepare(self, seed: int, k: int) -> ChurnState:
        corpus = dynlsh.generate(
            self.rows, self.cols, (0.02, 0.1), dynlsh.DEFAULT_PLANTED_RANGES, self.every, seed
        )
        randomness = dynlsh.SketchRandomness(self.cols, self.buckets, seed)
        sketches = [build_sketch(randomness, row) for row in corpus.rows]
        rng = _rng(seed, _TAG_CHURN)
        changed = np.sort(rng.choice(corpus.n, size=int(corpus.n * self.change_share), replace=False))
        plan = []
        final_sets = {}
        for j in changed.tolist():
            row = corpus.rows[j]
            drop = rng.choice(row, size=int(round(row.size * self.delete_share)), replace=False)
            perm = rng.permutation(self.cols)
            add = perm[~np.isin(perm, row)][: drop.size]
            items = np.concatenate([drop, add])
            values = np.concatenate([np.full(drop.size, -1), np.ones(add.size, dtype=np.int64)])
            plan.append((j, items, values))
            final_sets[j] = np.union1d(np.setdiff1d(row, drop), add)
        updates = sum(items.size for _, items, _ in plan)
        return ChurnState(corpus, randomness, sketches, plan, final_sets, updates)

    def run_round(self, state: ChurnState) -> RoundResult:
        latencies: list[float] = []
        failed = 0
        clock = self.clock
        index = dynlsh.LshIndex(self.cfg, state.randomness)
        final = list(state.sketches)

        def insert(j: int, sketch: Any) -> None:
            nonlocal failed
            start = clock()
            try:
                index.insert(j, sketch)
            except Exception as exc:
                failed += 1
                print(f"index-churn: insert raised {exc!r}")
            latencies.append(clock() - start)

        for j, sketch in enumerate(state.sketches):
            insert(j, sketch)
        first = index.candidates()
        for j, items, values in state.plan:
            # change a copy: the indexed sketch itself is never mutated
            sketch = state.sketches[j].copy()
            try:
                sketch.update_many(items, values)
            except Exception as exc:
                failed += 1
                print(f"index-churn: update_many raised {exc!r}")
            insert(j, sketch)
            final[j] = sketch
        last = index.candidates()
        state.final_sketches = final
        attempted = len(state.sketches) + 2 * len(state.plan) + 2
        return RoundResult(state.updates, latencies, attempted, failed, (first, last))

    def _planted_wanted(self, state: ChurnState) -> list[tuple[int, int]]:
        """Planted pairs whose final exact similarity reaches r1."""
        out = []
        for pair in state.corpus.manifest:
            a = state.final_sets.get(pair.id_a, state.corpus.rows[pair.id_a])
            b = state.final_sets.get(pair.id_b, state.corpus.rows[pair.id_b])
            if exact_jaccard(a, b) >= self.cfg.r1:
                out.append((min(pair.id_a, pair.id_b), max(pair.id_a, pair.id_b)))
        return out

    def summarize(self, state: ChurnState, output: Any) -> Any:
        # Digests, not the pair lists: ~10^5 pair objects kept alive across
        # rounds would make the program's garbage collections slower.
        first, last = output
        found = {(p.id_a, p.id_b) for p in last}
        planted = tuple(pair in found for pair in self._planted_wanted(state))
        return pairs_digest(first), pairs_digest(last), len(last), planted

    def check(self, state: ChurnState, default_seed: bool) -> list[Check]:
        first, last, count, _ = state.first
        fresh = dynlsh.LshIndex(self.cfg, state.randomness)
        for j, sketch in enumerate(state.final_sketches):
            fresh.insert(j, sketch)
        checks = [
            Check("final_candidates_equal_fresh_index", pairs_digest(fresh.candidates()) == last, f"{count} pairs")
        ]
        if default_seed:
            for label, digest in (("first", first), ("final", last)):
                checks.append(Check(f"digest.{label}", digest == self.digests[label], digest))
        return checks

    def recall(self, state: ChurnState) -> tuple[int, int]:
        if state.first is None:
            return 0, 0
        planted = state.first[3]
        return len(planted), sum(planted)

    def probe(self, state: ChurnState) -> LayerProbe:
        return LayerProbe(state.final_sketches, state.randomness, self.cfg)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (LshVerify, TurnstileLive, IndexChurn)}
