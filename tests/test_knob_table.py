#!/usr/bin/env python3
"""README's knob tables against the NVC_* knobs the code parses.

A knob is parsed when its name is a whole string literal ("NVC_X") in the
C++ under src/, bench/*.cpp or tests/*.cpp (every env_int/env_str/getenv
call names its knob that way), and documented when it appears in the first
column of a README table row. Both directions must hold; only the NVC_TEST_*
fixture names of the env-parsing unit tests are exempt.

Run directly (python3 tests/test_knob_table.py) or via ctest as `knob_table`.
"""

import glob
import os
import re
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parsed_knobs():
    files = glob.glob(os.path.join(REPO, "src", "**", "*.[ch]pp"),
                      recursive=True)
    files += glob.glob(os.path.join(REPO, "bench", "*.cpp"))
    files += glob.glob(os.path.join(REPO, "tests", "*.cpp"))
    knobs = set()
    for path in files:
        with open(path, encoding="utf-8") as f:
            knobs.update(re.findall(r'"(NVC_[A-Z0-9_]+)"', f.read()))
    return {k for k in knobs if not k.startswith("NVC_TEST_")}


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

    def test_every_documented_knob_is_parsed(self):
        self.assertEqual(sorted(documented_knobs() - parsed_knobs()), [],
                         "documented in README but parsed nowhere")


if __name__ == "__main__":
    unittest.main()
