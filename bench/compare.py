#!/usr/bin/env python3
"""Compare a micro_gbench JSON run against the committed baseline.

Usage:
    bench/compare.py [--threads-noise F] [current.json] [baseline.json]
        current  defaults to BENCH_micro.json (micro_gbench's default output)
        baseline defaults to bench/BENCH_micro.baseline.json

The committed baseline is produced with the *simulated* flush backend —
real clflush latency swings tens of percent run-to-run on this host, the
same reason the bench harness defaults to `sim` (see bench/harness.cpp) —
and is a conservative envelope over several independent runs: per name,
the fastest repetition within each run, the slowest such value across
runs. That calibrates the gate to observed host variance (machine state —
frequency, cache pressure — shifts whole runs by >10% for some kernels);
a failure means slower than every observed good state by the tolerance.
Refresh it with:

    for i in 1 2 3; do
      NVC_FLUSH=sim NVC_FLUSH_NS=100 NVC_BENCH_JSON=/tmp/run$i.json \
          ./build/bench/micro_gbench --benchmark_min_time=0.1 --benchmark_repetitions=3
    done
    bench/compare.py --merge bench/BENCH_micro.baseline.json /tmp/run{1,2,3}.json

and run the comparison side under the same NVC_FLUSH environment.

Exits nonzero when any benchmark present in both files regressed by more
than the tolerance (default 10%, override with NVC_BENCH_TOLERANCE, e.g.
NVC_BENCH_TOLERANCE=0.25). Benchmarks only in one file are reported but are
not failures (families come and go across PRs; the baseline is refreshed
whenever micro_gbench changes shape). A baseline row is reported MISSING
only when the run measured its family (the name up to the first `/`); the
rows of families a filtered run left out are counted in one summary line.

Regression = real_time above baseline * (1 + tolerance) AND above baseline
by an absolute floor (default 20 ns, NVC_BENCH_MIN_DELTA_NS): a 3 ns shift
on an 8 ns ring-push micro is below this host's measurement noise, not a
regression. Counters (flushes, fences, ...) are carried through to the
report for context but are not gated: they are exact re-runnable
invariants covered by the test suite, while wall-clock needs slack.

Exception: counters named `exact_*` (the per-policy line write-backs of
BM_PolicyLinesPerFase, the log traffic of BM_PstoreFase*) are
bit-deterministic by construction — computed from a fixed-length replay
or a fixed per-FASE count, not from timing — so when one is present in
both files it is gated EXACTLY, no tolerance at all. Any divergence is an
accounting regression and fails the gate; an exact counter present on only one side
is reported (EXACT?) but does not fail, mirroring the MISSING/NEW policy
for whole benchmarks.

Multi-threaded families (google-benchmark "threads" field > 1 — the
producer-thread sweeps of BM_FlushPipelineDrainPool and friends) swing
far more than single-threaded micros on a shared host: N timed threads
multiplex over whatever cores the container actually grants, so scheduler
placement shifts whole configurations by 2x. `--threads-noise F` (or
NVC_BENCH_THREADS_NOISE) widens the tolerance to F for exactly those
entries, leaving single-threaded gating tight (default 0.75).

Exit codes: 0 = no regression, 1 = at least one gated regression,
2 = the gate could not run (bad usage, missing or malformed input file).
Covered by tests/test_compare_gate.py against golden fixtures in
tests/data/compare/.
"""

import json
import os
import sys


def load_results(path):
    """name -> entry, keeping the fastest raw run per name.

    With --benchmark_repetitions=N every repetition shares one name;
    min-of-N is the stable statistic on a noisy shared host (the fastest
    run is the one least perturbed by scheduling), matching how both the
    committed baseline and fresh comparison runs should be produced.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    results = {}
    for entry in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) — compare raw runs only.
        if entry.get("run_type") == "aggregate":
            continue
        name = entry["name"]
        best = results.get(name)
        if best is None or entry.get("real_time", 0.0) < best.get(
                "real_time", 0.0):
            results[name] = entry
    return results


def family(name):
    """The benchmark family: the name up to its first argument."""
    return name.split("/", 1)[0]


def fmt_time(entry):
    return "%.0f %s" % (entry.get("real_time", 0.0), entry.get("time_unit", "ns"))


def exact_counters(entry):
    """The bit-deterministic `exact_*` counters of a benchmark entry
    (google-benchmark flattens UserCounters into the entry itself)."""
    return {key: value for key, value in entry.items()
            if key.startswith("exact_") and isinstance(value, (int, float))}


def merge(out_path, in_paths):
    """Write the envelope baseline: per name, max across runs of the
    per-run fastest repetition (see the module docstring)."""
    merged = {}
    for path in in_paths:
        for name, entry in load_results(path).items():
            best = merged.get(name)
            if best is None or entry.get("real_time", 0.0) > best.get(
                    "real_time", 0.0):
                merged[name] = entry
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"benchmarks": [merged[n] for n in sorted(merged)]},
                  handle, indent=1)
        handle.write("\n")
    print("merged %d benchmarks from %d runs into %s"
          % (len(merged), len(in_paths), out_path))
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--merge":
        if len(argv) < 4:
            print("usage: compare.py --merge <out.json> <run.json>...")
            return 2
        return merge(argv[2], argv[3:])
    threads_noise = float(os.environ.get("NVC_BENCH_THREADS_NOISE", "0.75"))
    args = []
    i = 1
    while i < len(argv):
        if argv[i] == "--threads-noise":
            if i + 1 >= len(argv):
                print("usage: compare.py --threads-noise <float> ...")
                return 2
            try:
                threads_noise = float(argv[i + 1])
            except ValueError:
                print("compare.py: bad --threads-noise value: %s" % argv[i + 1])
                return 2
            i += 2
            continue
        args.append(argv[i])
        i += 1
    current_path = args[0] if len(args) > 0 else "BENCH_micro.json"
    baseline_path = (
        args[1]
        if len(args) > 1
        else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_micro.baseline.json")
    )
    tolerance = float(os.environ.get("NVC_BENCH_TOLERANCE", "0.10"))
    min_delta_ns = float(os.environ.get("NVC_BENCH_MIN_DELTA_NS", "20"))
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

    try:
        current = load_results(current_path)
        baseline = load_results(baseline_path)
    except FileNotFoundError as err:
        # Distinct from a regression (1): the gate could not run at all.
        print("compare.py: cannot load results: %s" % err)
        return 2
    except json.JSONDecodeError as err:
        print("compare.py: malformed results file: %s" % err)
        return 2

    regressions = []
    exact_failures = []
    compared = 0
    compared_exact = 0
    measured = {family(name) for name in current}
    unmeasured = {}  # family -> baseline rows the run left out
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            if family(name) in measured:
                print("MISSING  %-55s (in baseline only)" % name)
            else:
                unmeasured[family(name)] = unmeasured.get(family(name), 0) + 1
            continue
        if cur.get("time_unit") != base.get("time_unit"):
            print("UNIT?    %-55s %s vs %s" % (name, cur.get("time_unit"),
                                               base.get("time_unit")))
            continue
        compared += 1
        base_t = base.get("real_time", 0.0)
        cur_t = cur.get("real_time", 0.0)
        ratio = cur_t / base_t if base_t > 0 else 1.0
        delta_ns = (cur_t - base_t) * to_ns.get(base.get("time_unit", "ns"),
                                                1.0)
        # Multi-threaded entries get the wider threads-noise envelope; the
        # baseline's thread count decides (both sides should agree, and the
        # baseline is the committed contract).
        gate = tolerance
        if base.get("threads", 1) > 1 or cur.get("threads", 1) > 1:
            gate = max(tolerance, threads_noise)
        status = "OK"
        if (base_t > 0 and cur_t > base_t * (1.0 + gate)
                and delta_ns > min_delta_ns):
            status = "REGRESSED"
            regressions.append((name, ratio))
        print("%-8s %-55s %12s -> %12s  (%+5.1f%%)"
              % (status, name, fmt_time(base), fmt_time(cur),
                 (ratio - 1.0) * 100.0))
        # Exact counters: no tolerance, any divergence fails the gate.
        for key, base_value in sorted(exact_counters(base).items()):
            cur_value = cur.get(key)
            if not isinstance(cur_value, (int, float)):
                print("EXACT?   %-55s %s (in baseline only)" % (name, key))
                continue
            compared_exact += 1
            if abs(cur_value - base_value) > 1e-9:
                exact_failures.append((name, key, base_value, cur_value))
                print("EXACT!   %-55s %s: %g -> %g"
                      % (name, key, base_value, cur_value))
    for name in sorted(set(current) - set(baseline)):
        print("NEW      %-55s %s" % (name, fmt_time(current[name])))
    if unmeasured:
        print("%d baseline rows not measured (families left out: %s)"
              % (sum(unmeasured.values()), ", ".join(sorted(unmeasured))))

    print()
    failed = False
    if exact_failures:
        print("%d/%d exact counters diverged (gated with zero tolerance):"
              % (len(exact_failures), compared_exact))
        for name, key, base_value, cur_value in exact_failures:
            print("  %s %s: %g -> %g" % (name, key, base_value, cur_value))
        failed = True
    if regressions:
        print("%d/%d benchmarks regressed more than %.0f%%:"
              % (len(regressions), compared, tolerance * 100.0))
        for name, ratio in regressions:
            print("  %s  (%.2fx baseline)" % (name, ratio))
        failed = True
    if failed:
        return 1
    print("no regression beyond %.0f%% across %d benchmarks"
          " (%d exact counters matched)"
          % (tolerance * 100.0, compared, compared_exact))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
