#!/usr/bin/env python3
"""Interleaved A/B comparison of two builds of the end-to-end benchmark.

    python3 bench/e2e/ab.py BUILD_A BUILD_B [--workloads ocean,mdb]
        [--pairs 10] [--seconds 8] [--seed 1000] [--trace 0|1] [--json FILE]

BUILD_A (the parent) and BUILD_B (the change) are build directories that
hold an nvc_e2e binary, such as .bench_build/e2e of two checkouts. For each
workload, pair i runs both sides with seed SEED+i, alternating which side
goes first, one process per run. Per metric it reports each side's median
and quartiles, the share of pairs B won, and a verdict against the bound in
BENCHMARK.json:

  improved    B won at least 90% of the pairs and the medians differ by more
              than A's interquartile distance, or every B run beat every A run
  regressed   B's median is worse than A's by more than the bound
  unresolved  a side's spread (interquartile distance / median) exceeds the
              bound, and not every B run beat every A run
  unchanged   otherwise

Per-layer metrics (--trace 1) have no bound and get no verdict.
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
WIN_SHARE = 0.9


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(a, b, bound, better):
    """Verdict for change B against parent A; a[i] and b[i] share a seed."""
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    won = [sign * (y - x) < 0 for x, y in zip(a, b)]
    every_run_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound:
        return "improved" if every_run_better else "unresolved"
    worse = sign * (mb - ma) / ma if ma else 0.0
    if worse > bound:
        return "regressed"
    q1, _, q3 = quartiles(a)
    if sum(won) >= WIN_SHARE * len(won) and sign * (ma - mb) > q3 - q1:
        return "improved"
    return "unchanged"


def run(build, workload, seed, seconds, trace):
    build = Path(build).resolve()
    pmem = build / "pmem"
    shutil.rmtree(pmem, ignore_errors=True)
    pmem.mkdir(parents=True)
    command = [str(build / "nvc_e2e"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(build / "out")]
    proc = subprocess.run(command, env=dict(os.environ, NVC_PMEM_DIR=str(pmem)),
                          capture_output=True, text=True, timeout=600)
    shutil.rmtree(pmem, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab.py: {' '.join(command)} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"ab.py: {build} {workload} seed {seed} failed its oracles")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description="Interleaved A/B runs of nvc_e2e.")
    parser.add_argument("build_a")
    parser.add_argument("build_b")
    parser.add_argument("--benchmark", default=str(HERE.parents[1] / "BENCHMARK.json"))
    parser.add_argument("--workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed for a verdict")

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    report = {}
    for workload in workloads:
        a, b = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [("a", args.build_a), ("b", args.build_b)]
            if i % 2:
                sides.reverse()
            for side, build in sides:
                (a if side == "a" else b).append(
                    run(build, workload, seed, seconds, args.trace))
        rows = {}
        print(f"== {workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
        for name, m in metrics.items():
            va = [r[name] for r in a]
            vb = [r[name] for r in b]
            better = m.get("better", "lower")
            won = sum((y < x) if better == "lower" else (y > x) for x, y in zip(va, vb))
            row = {
                "a": quartiles(va), "b": quartiles(vb),
                "b_won": won / args.pairs,
                "verdict": verdict(va, vb, m["bound"], better) if "bound" in m else None,
            }
            rows[name] = row
            print(f"  {name:32s} A {row['a'][1]:<12.6g} [{row['a'][0]:.6g}, {row['a'][2]:.6g}]"
                  f"  B {row['b'][1]:<12.6g} [{row['b'][0]:.6g}, {row['b'][2]:.6g}]"
                  f"  B won {row['b_won']:.0%}  {row['verdict'] or ''}")
        report[workload] = rows
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
