"""Self-test of the benchmark: small inputs, same code path, a few seconds each.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --scale smoke, untraced at the
default seed and at another seed, and traced at the other seed.  Each run
must exit 0 with `correct` true, and its last line must name exactly the
metrics BENCHMARK.json declares for that mode, with the declared units.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OTHER_SEED = 11


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((7, 0), (OTHER_SEED, 0), (OTHER_SEED, 1)):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} seed={seed} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {lines[-1]}")
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(n for n in set(got) & set(declared[trace]) if got[n] != declared[trace][n])
                problems.append(f"{label}: missing {missing}, undeclared {extra}, unit differs {wrong}")
            print(f"ok  {label}" if not problems or not problems[-1].startswith(label) else f"BAD {label}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
