#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                             [--quick] [--flush=KIND] [--plant-bug=ORACLE]

Everything it writes goes under .bench_build/e2e at the checkout root: the
CMake build, the region files of the emulated persistent memory, and the
per-run result and span files. The last line of stdout is the run's JSON
result; see bench/e2e/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then let the build tool bring nvc_e2e up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any((BUILD / name).exists() for name in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)] + generator)
    steps.append(["cmake", "--build", str(BUILD), "--target", "nvc_e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write(f"\nrun.py: build step failed: {' '.join(step)}\n")
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not build():
        return 1
    pmem_dir = BUILD / "pmem"
    shutil.rmtree(pmem_dir, ignore_errors=True)  # regions of killed runs
    pmem_dir.mkdir()
    env = dict(os.environ, NVC_PMEM_DIR=str(pmem_dir))
    command = [str(BUILD / "nvc_e2e"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--out", str(BUILD / "out")] + extra
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s\n")
        return 3
    finally:
        shutil.rmtree(pmem_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
