#!/usr/bin/env python3
"""Run every workload once at one seed, untraced and traced, and collect the
results into one JSON file: a baseline set.

    python3 bench/e2e/baseline.py OUT.json [--seed 42] [--seconds S]
                                  [--flush KIND]

Each entry is the result file nvc_e2e wrote for one (workload, trace) run:
the run's settings, the result line and the report-only metrics.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parents[1] / ".bench_build" / "e2e" / "out"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--flush", default="sim")
    args = parser.parse_args()

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(trace), f"--flush={args.flush}"]
            result = OUT / f"result-{workload}-seed{args.seed}-trace{trace}.json"
            result.unlink(missing_ok=True)
            if subprocess.run(command, stdout=subprocess.DEVNULL).returncode != 0:
                sys.exit(f"baseline.py: {' '.join(command)} failed")
            runs.append(json.loads(result.read_text()))
            print(f"{workload} trace={trace}: correct={runs[-1]['result']['correct']}")
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
