"""Replay the recorded CLI transcript in tests/data/cli_golden byte for byte.

Each case in cases.json holds an argv, run from inside the data directory,
and the exact stdout, stderr and exit code the CLI gave for it. The cases
cover all six verbs, pretty and compact output, and the exit-2 path.
"""

import json
from pathlib import Path

import pytest

from bayent.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_transcript_covers_every_verb():
    verbs = {case["argv"][0] for case in CASES}
    assert verbs == {"prob", "entail", "map-entail", "pref-entail", "audit", "simulate"}
    assert {case["exit"] for case in CASES} == {0, 1, 2}


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_replay(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]
