#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark command.

    python3 e2ebench/smoke_test.py

Runs every workload through run.py at a tiny scale (--scale 0.05, one
second of passes), untraced and traced, so the harness is built against the
current src/ and every output check runs, including the cross-workload
fingerprint checks.  Fails unless both runs exit 0 and each workload's
result line has exactly the shape BENCHMARK.json asks for, with every
check passed.  Takes ~15 s on 4 cores once built.  The e2ebench CMake
project registers it as the ctest bench_e2e_smoke (label tier1).
"""

import json
import numbers
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_result(line, specs, positive):
    """Problems with one result line, given its BENCHMARK.json metric specs;
    `positive`: every value must be above 0."""
    r = json.loads(line)
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(r)}"]
    problems = []
    if r["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(r["attempted"], int) and r["attempted"] >= 1):
        problems.append(f"attempted {r['attempted']!r}")
    if r["failed"] != 0:
        problems.append(f"failed {r['failed']!r}")
    if set(r["metrics"]) != {s["name"] for s in specs}:
        problems.append(f"metric names {sorted(r['metrics'])}")
        return problems
    for s in specs:
        m = r["metrics"][s["name"]]
        if (set(m) != {"value", "unit"} or m["unit"] != s["unit"]
                or not isinstance(m["value"], numbers.Real)
                or isinstance(m["value"], bool)
                or (positive and not m["value"] > 0)):
            problems.append(f"{s['name']}: {m!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    n = len(spec["workloads"])
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--scale", "0.05",
             "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=170)
        if out.returncode != 0:
            problems.append(f"--trace {trace}: exit {out.returncode}")
        lines = out.stdout.strip().splitlines()[-n:]
        if len(lines) != n:
            problems.append(f"--trace {trace}: {len(lines)} result lines")
            continue
        for w, line in zip(spec["workloads"], lines):
            try:
                # End-to-end metrics are times, rates and sizes: never 0.
                found = check_result(line, spec[key], positive=trace == 0)
            except (ValueError, TypeError, KeyError) as e:
                found = [f"malformed result: {e}"]
            problems += [f"--trace {trace} {w['name']}: {p}" for p in found]
    for p in problems:
        print(f"smoke_test: {p}", file=sys.stderr)
    print("smoke_test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
