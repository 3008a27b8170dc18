#!/usr/bin/env python3
"""Line coverage of src/ from a --coverage build, with gcov alone.

    python3 scripts/coverage.py BUILD_DIR

Runs `gcov --json-format --stdout` over every .gcda counter file under
BUILD_DIR (what the last test run left there) and unions each source line
over the translation units that compiled it: a header line counts once,
and it is covered if any unit ran it. Prints the line coverage of every
file under src/, least covered first, then the total. It reports and
never fails on a low number (scripts/check.sh --coverage runs it).
"""
import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
CHUNK = 64


def gcov_json(gcda_files):
    """One gcov run over a batch of counter files; one JSON doc per file."""
    out = subprocess.run(["gcov", "--json-format", "--stdout", *gcda_files],
                         capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def line_hits(build_dir):
    """{source path: {line number: covered}} for the files under src/."""
    gcda = sorted(os.path.join(d, f) for d, _, files in os.walk(build_dir)
                  for f in files if f.endswith(".gcda"))
    if not gcda:
        sys.exit(f"coverage: no .gcda files under {build_dir}: build it with "
                 "--coverage and run its tests first")
    chunks = [gcda[i:i + CHUNK] for i in range(0, len(gcda), CHUNK)]
    hits = {}
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for docs in pool.map(gcov_json, chunks):
            for doc in docs:
                cwd = doc["current_working_directory"]
                for f in doc["files"]:
                    path = os.path.realpath(os.path.join(cwd, f["file"]))
                    if not path.startswith(SRC):
                        continue
                    lines = hits.setdefault(path, {})
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        lines[n] = lines.get(n, False) or ln["count"] > 0
    return hits


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir")
    args = parser.parse_args()

    rows = []
    for path, lines in line_hits(args.build_dir).items():
        if not lines:
            continue
        covered = sum(lines.values())
        rows.append((covered / len(lines), covered, len(lines),
                     os.path.relpath(path, ROOT)))
    rows.sort()
    for frac, covered, total, rel in rows:
        print(f"{100 * frac:6.1f}%  {covered:5d}/{total:<5d}  {rel}")
    covered = sum(r[1] for r in rows)
    total = sum(r[2] for r in rows)
    print(f"{100 * covered / total:6.1f}%  {covered:5d}/{total:<5d}  "
          f"src/ total ({len(rows)} files)")


if __name__ == "__main__":
    main()
