#!/usr/bin/env python3
"""Golden outputs of the paper benches at quick scale (bench/golden/).

Each golden is one bench binary run under one environment; its stdout is
deterministic (trace replay, no wall time), so any change to it is a change
to the paper's results.

    scripts/golden.py [--bench-dir build/bench]          regenerate the files
    scripts/golden.py --check [--bench-dir build/bench]  diff against them

`--check` is the `paper_golden` ctest: it exits 1 and prints a unified diff
for every golden whose output moved. A change that moves a golden on
purpose regenerates it in the same commit and says why in CHANGES.md.

Every NVC_* variable of the calling environment is dropped (except
NVC_PMEM_DIR, which only says where persistent regions live), so a stray
knob cannot leak into a golden.
"""

import argparse
import difflib
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "bench", "golden")

# (golden file, bench binary, environment)
GOLDENS = [
    ("table3.txt", "table3_flush_ratios", {}),
    ("table3_flush_async.txt", "table3_flush_ratios", {"NVC_FLUSH_ASYNC": "1"}),
    ("table3_log_batched.txt", "table3_flush_ratios",
     {"NVC_LOG": "1", "NVC_LOG_SYNC": "batched"}),
    ("fig7.txt", "fig7_mrc_accuracy", {}),
    ("fig2.txt", "fig2_mrc_waterspatial", {}),
    ("table4.txt", "table4_waterspatial_detail", {}),
    ("fig6.txt", "fig6_sc_vs_best", {}),
    ("ablation_cache_size_sweep.txt", "ablation_cache_size_sweep", {}),
    ("ablation_knee_policy.txt", "ablation_knee_policy", {}),
]


def run_bench(bench_dir, binary, extra_env):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NVC_") or k == "NVC_PMEM_DIR"}
    env.update(extra_env)
    result = subprocess.run([os.path.join(bench_dir, binary)], env=env,
                            capture_output=True, text=True, check=False)
    if result.returncode != 0:
        sys.exit(f"golden.py: {binary} exited {result.returncode}:\n"
                 f"{result.stderr}")
    return result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bench-dir", default=os.path.join(REPO, "build", "bench"))
    parser.add_argument("--check", action="store_true",
                        help="diff against the goldens instead of writing them")
    args = parser.parse_args()

    moved = 0
    for name, binary, extra_env in GOLDENS:
        path = os.path.join(GOLDEN_DIR, name)
        output = run_bench(args.bench_dir, binary, extra_env)
        label = " ".join(f"{k}={v}" for k, v in extra_env.items()) or "default"
        if not args.check:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w") as f:
                f.write(output)
            print(f"wrote {os.path.relpath(path, REPO)} ({binary}, {label})")
            continue
        with open(path) as f:
            golden = f.read()
        if output == golden:
            print(f"ok    {name} ({binary}, {label})")
            continue
        moved += 1
        print(f"MOVED {name} ({binary}, {label})")
        sys.stdout.writelines(difflib.unified_diff(
            golden.splitlines(keepends=True), output.splitlines(keepends=True),
            fromfile=f"bench/golden/{name}", tofile=f"{binary} now"))
    if moved:
        print(f"{moved} golden(s) moved; if on purpose, rerun "
              "scripts/golden.py and say why in CHANGES.md")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
