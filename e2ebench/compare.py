#!/usr/bin/env python3
"""Summarise or compare end-to-end benchmark runs.

    python3 e2ebench/compare.py A.jsonl            # spread of A's own runs
    python3 e2ebench/compare.py A.jsonl B.jsonl    # A = parent, B = change
    python3 e2ebench/compare.py A.jsonl --baseline BENCH_e2e.json

The inputs are the JSON lines `run.py --out` appends, one per run.  Each
(workload, end-to-end metric) row shows the median and quartiles of each
side.  With one file the verdict says whether the runs' spread (quartile
distance over median) stays within the metric's BENCHMARK.json bound; with
two it is better / worse / unchanged / unresolved:

  unresolved  A's own spread exceeds the bound, and not every run of B
              beats every run of A
  worse       B's median is worse than A's by more than the bound
  better      B wins at least 9 of 10 seed-matched pairs and the medians
              differ by more than A's quartile distance
  unchanged   otherwise

The simulated metrics (sim_read_ms, sim_disk_accesses) are deterministic
for a given seed, so they are compared exactly instead, seed by seed: worse
if any seed-matched pair is worse, better if none is and one is better,
unchanged if every pair is equal, unresolved if no seed is in both files.
Their BENCHMARK.json bound only covers their spread across seeds.

The exit code is non-zero when a spread exceeds its bound (one file) or any
row is worse (two files).
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = {"sim_read_ms", "sim_disk_accesses"}


def load(path):
    """{workload: {metric: {seed: value}}} for untraced runs, plus the
    per-layer tables of traced runs and the host records."""
    e2e = defaultdict(lambda: defaultdict(dict))
    layers = {}
    hosts = []
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            hosts.append(r["host"])
            metrics = r["result"]["metrics"]
            if r["trace"]:
                layers[r["workload"]] = metrics
                continue
            for name, m in metrics.items():
                e2e[r["workload"]][name][r["seed"]] = m["value"]
    return e2e, layers, hosts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.4g}, {q3:.4g}]"


def verdict(spec, a, b):
    """Verdict for one row; `a` and `b` map seed -> value."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    if spec["name"] in EXACT:
        pairs = [(a[s], b[s]) for s in a if s in b]
        if not pairs:
            return "unresolved"
        if any(better(x, y) for x, y in pairs):
            return "worse"
        if any(better(y, x) for x, y in pairs):
            return "better"
        return "unchanged"
    q1, med_a, q3 = quartiles(list(a.values()))
    med_b = quartiles(list(b.values()))[1]
    if (q3 - q1) / med_a > bound:
        everyone = all(better(y, x) for x in a.values() for y in b.values())
        return "better" if everyone else "unresolved"
    worse_by = (med_b - med_a) / med_a * (1 if lower else -1)
    if worse_by > bound:
        return "worse"
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(better(y, x) for x, y in pairs)
    if (pairs and wins >= 0.9 * len(pairs) and better(med_b, med_a)
            and abs(med_b - med_a) > q3 - q1):
        return "better"
    return "unchanged"


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("--baseline", help="write A's summary here as JSON")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"]}
    a, a_layers, hosts = load(args.a)
    b = load(args.b)[0] if args.b else None

    status = 0
    for workload in a:
        print(f"== {workload}")
        for name, m in specs.items():
            va = a[workload].get(name)
            if not va:
                continue
            row = f"  {name:18s} {m['unit']:7s} A {fmt(list(va.values()))}"
            if b is None:
                q1, med, q3 = quartiles(list(va.values()))
                spread = (q3 - q1) / med
                ok = name == "setup_s" or spread <= m["bound"]
                status |= not ok
                print(f"{row}  n={len(va)} spread {spread:.3f} / bound "
                      f"{m['bound']} {'ok' if ok else 'TOO NOISY'}")
                continue
            vb = b.get(workload, {}).get(name)
            if not vb:
                print(f"{row}  B missing")
                status = 1
                continue
            v = verdict(m, va, vb)
            status |= v == "worse"
            print(f"{row}  B {fmt(list(vb.values()))}  {v}")

    if args.baseline:
        summary = {
            "schema": "lap-bench-e2e-v1",
            "git_sha": git_sha(),
            "host": hosts[0] if hosts else {},
            "run_seconds": spec["run_seconds"],
            "workloads": {
                w: {name: dict(zip(("q1", "median", "q3"),
                                   quartiles(list(v.values()))),
                               n=len(v), unit=specs[name]["unit"])
                    for name, v in metrics.items()}
                for w, metrics in a.items()},
            "per_layer": a_layers,
        }
        Path(args.baseline).write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
