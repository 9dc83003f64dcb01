"""In-memory span tracing of dynlsh's public functions, patched at runtime.

The benchmark never edits the package.  For a traced run it replaces each
public function listed in TARGETS by a wrapper that records one span per
call: name, start, end, parent span, round id, and the size of the call's
input and output where one is defined.  Times come from the run's clock
(perfbench/speedclock.py), in reference nanoseconds.  Spans live in flat arrays and are
written out once, when the run ends; self time is derived from them.

A name is patched in every dynlsh module that binds it, not only where it
is defined: `cli` binds `ingest` and `distance` binds `merge` and
`l0_estimate` by name, so patching the defining module alone would miss
those calls.  Methods are patched on their class, which every caller shares.
"""

from __future__ import annotations

import importlib
import sys
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


def _len_arg(position: int, keyword: str) -> Callable[[tuple, dict], int]:
    def size(args: tuple, kwargs: dict) -> int:
        value = kwargs[keyword] if keyword in kwargs else args[position]
        try:
            return len(value)
        except TypeError:
            return int(np.size(value))

    return size


def _len_result(result: Any) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: span name, module, attribute path."""

    name: str
    module: str
    attr: str
    size_in: Callable[[tuple, dict], int] | None = None
    size_out: Callable[[Any], int] | None = None


# Positions count `self` for methods, since wrappers see the raw arguments.
TARGETS: tuple[Target, ...] = (
    Target("cli.main", "dynlsh.cli", "main"),
    Target("bench.generate", "dynlsh.bench", "generate"),
    Target("bench.write_stream", "dynlsh.bench", "write_stream"),
    Target("bench.ingest", "dynlsh.bench", "ingest"),
    Target("sketch.update_many", "dynlsh.sketch", "LevelSketch.update_many", _len_arg(1, "items")),
    Target("sketch.merge", "dynlsh.sketch", "merge"),
    Target("sketch.l0_estimate", "dynlsh.sketch", "l0_estimate"),
    Target("sketch.similarity_from_level", "dynlsh.sketch", "similarity_from_level"),
    Target("hashing.levels_of", "dynlsh.hashing", "SketchRandomness.levels_of", _len_arg(1, "items")),
    Target("hashing.buckets_of", "dynlsh.hashing", "SketchRandomness.buckets_of", _len_arg(2, "items")),
    Target("hashing.minhash_positions", "dynlsh.hashing", "minhash_positions"),
    Target("hashing.minhash_spec", "dynlsh.hashing", "SketchRandomness.minhash_spec"),
    Target("distance.estimate_distance", "dynlsh.distance", "DistanceEstimator.estimate_distance"),
    Target("lsh.insert", "dynlsh.lsh", "LshIndex.insert"),
    Target("lsh.candidates", "dynlsh.lsh", "LshIndex.candidates", None, _len_result),
    Target("lsh.verify", "dynlsh.lsh", "LshIndex.verify", _len_arg(1, "pairs"), _len_result),
)

SETUP_ROUND = -1


class Tracer:
    """Span store plus the patch/unpatch of TARGETS; single-threaded."""

    def __init__(self, clock_ns: Callable[[], int], targets: tuple[Target, ...] = TARGETS) -> None:
        self.clock_ns = clock_ns
        self.targets = targets
        self.names = [t.name for t in targets]
        self.missing: list[str] = []
        self.round_id = SETUP_ROUND
        self._name = array("i")
        self._parent = array("q")
        self._round = array("i")
        self._start = array("q")
        self._end = array("q")
        self._size_in = array("q")
        self._size_out = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name_id: int, target: Target, fn: Callable) -> Callable:
        names, parents, rounds = self._name, self._parent, self._round
        starts, ends, size_in, size_out = self._start, self._end, self._size_in, self._size_out
        stack = self._stack
        measure_in, measure_out = target.size_in, target.size_out
        clock = self.clock_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.round_id)
            size_in.append(measure_in(args, kwargs) if measure_in else 0)
            size_out.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure_out:
                size_out[idx] = measure_out(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self) -> None:
        """Wrap every target that exists; warn about those that do not."""
        self.missing = []
        loaded = [m for key, m in sys.modules.items() if key == "dynlsh" or key.startswith("dynlsh.")]
        for name_id, target in enumerate(self.targets):
            try:
                owner: Any = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                warnings.warn(f"trace target {target.module}.{target.attr} not found; reported as 0 calls")
                self.missing.append(target.name)
                continue
            wrapped = self._wrap(name_id, target, original)
            if path:
                self._set(owner, leaf, wrapped)
                continue
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """Column arrays of every span recorded, plus each span's self time."""
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int64).copy()
        start = np.frombuffer(self._start, dtype=np.int64).copy()
        end = np.frombuffer(self._end, dtype=np.int64).copy()
        duration = end - start
        child = np.zeros(duration.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name": name,
            "parent": parent,
            "round": np.frombuffer(self._round, dtype=np.int32).copy(),
            "start_ns": start,
            "end_ns": end,
            "self_ns": duration - child,
            "size_in": np.frombuffer(self._size_in, dtype=np.int64).copy(),
            "size_out": np.frombuffer(self._size_out, dtype=np.int64).copy(),
        }

    def summary(self, rounds: int) -> dict[str, dict[str, float]]:
        """Per target: calls, seconds, self seconds, sizes per traced round.

        Spans recorded in set-up (round SETUP_ROUND) are summed separately
        under `setup_s`, so that per-round figures describe the timed work.
        """
        cols = self.spans()
        duration = cols["end_ns"] - cols["start_ns"]
        timed = cols["round"] >= 0
        per = max(rounds, 1)
        out: dict[str, dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mine = cols["name"] == name_id
            sel = mine & timed
            out[name] = {
                "calls": int(sel.sum()) / per,
                "s": float(duration[sel].sum()) / 1e9 / per,
                "self_s": float(cols["self_ns"][sel].sum()) / 1e9 / per,
                "size_in": float(cols["size_in"][sel].sum()) / per,
                "size_out": float(cols["size_out"][sel].sum()) / per,
                "setup_s": float(duration[mine & ~timed].sum()) / 1e9,
            }
        return out

    def write(self, path: Path, run_id: str) -> None:
        """Write all spans as one compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run_id=np.array(run_id),
            **self.spans(),
        )
