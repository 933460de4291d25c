#!/usr/bin/env python3
"""End-to-end benchmark: builds lap_e2e, runs one workload, checks its
outputs and prints every metric by name with its unit.

    python3 e2ebench/run.py --workload <name> [--seed N] [--seconds S]
                            [--trace 0|1] [--scale F] [--out runs.jsonl]
                            [--pin]

Without --workload every workload runs in turn.  Each workload's result is
one JSON line at the end of stdout: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are BENCHMARK.json's end_to_end set,
with --trace 1 its per_layer set.  The exit code is non-zero when any
output check fails.  See README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
EXPECTED = HERE / "expected.json"

# Workloads sharing a trace family replay the same input, so a grid point
# they share must produce the same fingerprint in each of them.
FAMILY = {
    "charisma-xfs-aggr": "charisma",
    "sprite-pafs-fig6": "sprite",
    "charisma-xfs-shard2": "charisma",
    "charisma-xfs-explain": "charisma",
}
# The generators' own default seeds: the runs whose fingerprints are pinned.
DEFAULT_SEED = {"charisma": 7, "sprite": 1999}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; all output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return BUILD / "lap_e2e"


def harness(exe, workload, seed, seconds, scale, trace_out):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", str(scale)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # Generous beyond the timed passes, but a hung simulation still ends
    # the run: 170 s at the default 25 s.
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=seconds + 145)
    return json.loads(out.stdout)


def check(workload, raw, pins, first):
    """Per-operation output checks; returns (attempted, failed, problems).

    `first` maps each grid point of the workload's trace family to the
    first run of it in this invocation, as (workload, run).  It is shared
    by the family's workloads, so a point two of them run (the explain
    point and its charisma-xfs-aggr twin, NP@4MB of -shard2 and -aggr) is
    checked against the other at any seed, not only through the pins."""
    problems = []
    failed = set()
    if not raw["roundtrip_ok"]:
        problems.append(".lapt encode/decode did not reproduce the trace")
    sims = raw["sims"]
    for i, s in enumerate(sims):
        point = s["point"]
        if s["prefetch_arrived"] != s["prefetch_used"] + s["prefetch_wasted"]:
            problems.append(f"{point} ({s['role']}): prefetch arrived "
                            f"{s['prefetch_arrived']} != used + wasted")
            failed.add(i)
        spans = s.get("span_totals")
        if spans and (spans["arrived"], spans["used"], spans["wasted"]) != (
                s["prefetch_arrived"], s["prefetch_used"],
                s["prefetch_wasted"]):
            problems.append(f"{point} ({s['role']}): span totals disagree "
                            "with the run's prefetch counters")
            failed.add(i)
        # Every run of one point must produce the same RunResult, whatever
        # its role or workload: repeated passes, sharded vs sequential, with
        # spans and counters attached or not.
        ref_workload, ref = first.setdefault(point, (workload, s))
        if s["fingerprint"] != ref["fingerprint"]:
            problems.append(f"{point}: {s['role']} run (pass {s['pass']}, "
                            f"{s['shards']} shard(s)) fingerprint "
                            f"{s['fingerprint']} != {ref['role']} run of "
                            f"{ref_workload} {ref['fingerprint']}")
            failed.add(i)
        if pins is not None and s["fingerprint"] != pins.get(point):
            problems.append(f"{point}: fingerprint {s['fingerprint']} != "
                            f"pinned {pins.get(point)}")
            failed.add(i)
    setup_reps = len(raw["setup"])
    attempted = setup_reps + len(sims)
    n_failed = len(failed) + (0 if raw["roundtrip_ok"] else setup_reps)
    return attempted, n_failed, problems


def median_setup(raw):
    """Host time of one input build: the sum over its phases of each phase's
    median across the builds, so a preemption that stalls one phase of a
    build (a third of them on a busy VM) does not count."""
    return sum(statistics.median(s[phase] for s in raw["setup"])
               for phase in ("generate_s", "encode_s", "decode_s"))


def end_to_end(raw):
    """The end_to_end metrics from the timed passes of one run."""
    timed = [s for s in raw["sims"] if s["role"] == "timed"]
    points = list(dict.fromkeys(s["point"] for s in timed))
    per_point = {p: [s["host_s"] for s in timed if s["point"] == p]
                 for p in points}
    # A pass's host time, robust to one slow run: the sum over the grid of
    # each point's median across passes.
    wall = sum(statistics.median(v) for v in per_point.values())
    first = {p: next(s for s in timed if s["point"] == p) for p in points}
    events = sum(s["events"] for s in first.values())
    return {
        "setup_s": median_setup(raw),
        "wall_s": wall,
        "events_per_s": events / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_read_ms": statistics.mean(
            s["avg_read_ms"] for s in first.values()),
        "sim_disk_accesses": float(
            sum(s["disk_accesses"] for s in first.values())),
    }, {"passes": len(next(iter(per_point.values()))),
        "setup_reps": len(raw["setup"])}


def print_table(workload, seed, raw, specs, values, notes, problems):
    print(f"== {workload}  seed {seed}  scale {raw['scale']:g}  "
          f"shards {raw['shards']}")
    for spec in specs:
        name = spec["name"]
        print(f"  {name:28s} {values[name]:>16.6g} {spec['unit']}")
    for note in notes:
        print(f"  ({note})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def run_workload(exe, spec, args, workload, expected, first_runs):
    family = FAMILY[workload]
    seed = DEFAULT_SEED[family] if args.seed is None else args.seed
    pins = None
    if seed == DEFAULT_SEED[family] and args.scale == 1.0:
        pins = expected.setdefault(family, {})
        if not args.pin and not pins:
            fail(f"{EXPECTED.name} has no fingerprints for {family}")

    trace_out = None
    if args.trace:
        out_dir = ROOT / ".bench_build" / "e2ebench-traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_out = out_dir / f"{workload}-seed{seed}.trace.json"
    raw = harness(exe, workload, seed, args.seconds, args.scale, trace_out)
    if args.pin:
        # The first workload of a family to reach a point pins it; the
        # others are then checked against it like any pinned run.
        for s in raw["sims"]:
            pins.setdefault(s["point"], s["fingerprint"])
    attempted, failed, problems = check(
        workload, raw, pins, first_runs.setdefault(family, {}))

    if args.trace:
        specs = spec["per_layer"]
        values = raw["layers"]
        demand = sum(values[f"cache.{k}"] for k in (
            "hits_local", "hits_remote", "hits_inflight", "misses"))
        notes = [f"host times: per grid point, the median of "
                 f"{raw['rounds']} round(s)",
                 f"Chrome trace: {trace_out}",
                 f"core.accuracy base: {values['core.prefetch_arrived']:.0f} "
                 "arrived prefetches",
                 f"cache.hit_ratio base: {demand:.0f} demand blocks"]
        table = trace_out.with_suffix("").with_suffix(".layers.json")
        table.write_text(json.dumps(
            {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
             for s in specs}, indent=1) + "\n")
        notes.append(f"per-layer table: {table}")
    else:
        specs = spec["end_to_end"]
        values, counts = end_to_end(raw)
        notes = [f"host times: per grid point, the median of {counts['passes']}"
                 " pass(es); too few samples for a tail percentile",
                 "setup_s: per build phase, the median of "
                 f"{counts['setup_reps']} trace builds, summed",
                 "sim_* are simulated, not host, quantities"]

    print_table(workload, seed, raw, specs, values, notes, problems)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    if args.out:
        record = {"workload": workload, "seed": seed, "trace": args.trace,
                  "scale": args.scale,
                  "host": dict(raw["host"], nproc=os.cpu_count()),
                  "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(FAMILY))
    p.add_argument("--seed", type=int,
                   help="input seed (default: the generator's own)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="host seconds of timed passes per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one traced pass, per-layer metrics")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies each workload's trace scale (pins apply "
                        "only at 1)")
    p.add_argument("--out", help="append each result as a JSON line here")
    p.add_argument("--pin", action="store_true",
                   help="rewrite expected.json from a run of every workload")
    args = p.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.pin and (args.workload or args.seed is not None
                     or args.scale != 1.0):
        fail("--pin re-pins every workload at its default seed and scale 1; "
             "pass no --workload, --seed or --scale")
    expected = {}
    if EXPECTED.is_file() and not args.pin:
        expected = json.loads(EXPECTED.read_text())
    try:
        exe = build()
        workloads = [args.workload] if args.workload else [
            w["name"] for w in spec["workloads"]]
        first_runs = {}
        results = [run_workload(exe, spec, args, w, expected, first_runs)
                   for w in workloads]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(str(e))
    if args.pin:
        if not all(r["correct"] for r in results):
            fail(f"checks failed; {EXPECTED.name} left unchanged")
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
        print(f"wrote {EXPECTED}", file=sys.stderr)
    for r in results:
        print(json.dumps(r))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
