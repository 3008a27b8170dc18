#!/usr/bin/env python3
"""README's knob tables against the NVC_* knobs the code parses.

A knob is parsed when its name is a whole string literal ("NVC_X") in the
C++ under src/, bench/*.cpp or tests/*.cpp (every env_int/env_str/getenv
call names its knob that way), and documented when it appears in the first
column of a README table row. Both directions must hold; only the NVC_TEST_*
fixture names of the env-parsing unit tests are exempt.

The libraries read no environment: under src/, outside the test helpers in
src/testing/, the only knob is NVC_PMEM_DIR (a deployment path). Every other
setting is a constructor argument that the bench harness or a test sets.

Run directly (python3 tests/test_knob_table.py) or via ctest as `knob_table`.
"""

import glob
import os
import re
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


LIBRARY_KNOBS = {"NVC_PMEM_DIR"}


def knobs_in(files):
    knobs = set()
    for path in files:
        with open(path, encoding="utf-8") as f:
            knobs.update(re.findall(r'"(NVC_[A-Z0-9_]+)"', f.read()))
    return {k for k in knobs if not k.startswith("NVC_TEST_")}


def source_files(*parts):
    return glob.glob(os.path.join(REPO, *parts, "**", "*.[ch]pp"),
                     recursive=True)


def parsed_knobs():
    files = source_files("src")
    files += glob.glob(os.path.join(REPO, "bench", "*.cpp"))
    files += glob.glob(os.path.join(REPO, "tests", "*.cpp"))
    return knobs_in(files)


def library_knobs():
    testing = os.path.join(REPO, "src", "testing") + os.sep
    return knobs_in(f for f in source_files("src")
                    if not f.startswith(testing))


def documented_knobs():
    knobs = set()
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        for line in f:
            cell = re.match(r"^\|([^|]*)\|", line)
            if cell:
                knobs.update(re.findall(r"`(NVC_[A-Z0-9_]+)`", cell.group(1)))
    return knobs


class KnobTable(unittest.TestCase):
    def test_scan_finds_both_sides(self):
        # Guards against a vacuous pass (moved directories, renamed tables).
        self.assertIn("NVC_SEED", parsed_knobs())
        self.assertIn("NVC_SEED", documented_knobs())

    def test_every_parsed_knob_is_documented(self):
        self.assertEqual(sorted(parsed_knobs() - documented_knobs()), [],
                         "parsed by the code but missing from README")

    def test_libraries_read_only_the_region_directory(self):
        # Vacuity guard: the scan reaches src/pmem, where the one library
        # knob is read.
        self.assertEqual(knobs_in(source_files("src", "pmem")), LIBRARY_KNOBS)
        self.assertEqual(sorted(library_knobs()), sorted(LIBRARY_KNOBS),
                         "a library reads a knob; make it a config field "
                         "that bench/harness.cpp sets")

    def test_every_documented_knob_is_parsed(self):
        self.assertEqual(sorted(documented_knobs() - parsed_knobs()), [],
                         "documented in README but parsed nowhere")


if __name__ == "__main__":
    unittest.main()
