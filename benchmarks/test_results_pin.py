"""The paper figures are pinned: ``RESULTS.txt`` must equal, byte for
byte, the first seven sections of ``python -m repro.report all`` (Table 1,
Figures 4-7, blur and section 5.2).

Every number there is deterministic (modeled cycles), so any difference is
drift: a change that moves a figure regenerates ``RESULTS.txt`` with
``python -m repro.report all`` and names the cause in EXPERIMENTS.md.
Rendering takes about 20 s.
"""

from __future__ import annotations

import difflib
from pathlib import Path

from repro.report import __main__ as report_cli

RESULTS = Path(__file__).resolve().parent.parent / "RESULTS.txt"


def test_results_txt_matches_the_report():
    # ``all`` prints the sections, so the file ends in one newline.
    rendered = report_cli.report_paper_figures() + "\n"
    pinned = RESULTS.read_text()
    diff = "".join(difflib.unified_diff(
        pinned.splitlines(keepends=True), rendered.splitlines(keepends=True),
        "RESULTS.txt", "python -m repro.report all"))
    assert rendered == pinned, "paper figures drifted:\n" + diff
