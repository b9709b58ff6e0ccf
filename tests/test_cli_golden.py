"""Replay the recorded CLI transcript in tests/data/cli_golden byte for byte.

Each case in cases.json holds an argv, run from inside the data directory,
and the exact stdout, stderr and exit code the CLI gave for it. The cases
cover all six verbs, pretty and compact output, and the exit-2 path.

world.json is written by hand (indented, rows shuffled, decimal and
unreduced probs), so it is read by the row loop. world_dumped.json is the
same world as json.dump(world_to_dict(model), fh) writes it, which the
text pass reads; every world.json case is replayed on it as well.

help.json holds the --help text of the program and of each verb.
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from bayent import worlds
from bayent.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
HELP = json.loads((GOLDEN / "help.json").read_text(encoding="utf-8"))


def test_transcript_covers_every_verb():
    verbs = {case["argv"][0] for case in CASES}
    assert verbs == {"prob", "entail", "map-entail", "pref-entail", "audit", "simulate"}
    assert {case["exit"] for case in CASES} == {0, 1, 2}
    assert set(HELP) == {"", *verbs}


@pytest.mark.parametrize("verb", HELP, ids=[verb or "bayent" for verb in HELP])
def test_help_text(verb, capsys, monkeypatch):
    # argparse wraps to COLUMNS, and Python 3.13 breaks the entail usage line
    # elsewhere than 3.10-3.12, so the words are compared with whitespace collapsed
    monkeypatch.setenv("COLUMNS", "80")
    assert main([verb, "--help"] if verb else ["--help"]) == 0
    assert capsys.readouterr().out.split() == HELP[verb].split()


def replay(argv, case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_replay(case, capsys, monkeypatch):
    replay(case["argv"], case, capsys, monkeypatch)


def test_dumped_world_is_world_json_as_json_dump_writes_it():
    dumped = (GOLDEN / "world_dumped.json").read_text(encoding="utf-8")
    by_hand = (GOLDEN / "world.json").read_text(encoding="utf-8")
    model = worlds.world_from_dict(json.loads(by_hand))
    assert dumped == json.dumps(worlds.world_to_dict(model))
    with mock.patch.object(worlds, "world_from_dict", side_effect=AssertionError):
        assert worlds.world_from_text(dumped) == model


ON_WORLD_JSON = [(i, case) for i, case in enumerate(CASES) if "world.json" in case["argv"]]


@pytest.mark.parametrize(
    "case", [case for _, case in ON_WORLD_JSON],
    ids=[f"{i:02d}-{case['argv'][0]}" for i, case in ON_WORLD_JSON],
)
def test_replay_on_dumped_world(case, capsys, monkeypatch):
    argv = ["world_dumped.json" if arg == "world.json" else arg for arg in case["argv"]]
    replay(argv, case, capsys, monkeypatch)


# Every formula of a case, premise, conclusion or scenario observation,
# rewritten 20,000 levels deep with the same models: a ~ chain, a left-deep
# & chain, or a right-deep -> chain, taken in turn. No walk recurses and no
# premise is hashed, so each must give the case's recorded output.
DEPTH = 20_000
DEEPEN = [
    lambda text: "~~" * (DEPTH // 2) + f"({text})",
    lambda text: " & ".join([f"({text})"] * DEPTH),
    lambda text: "true -> " * DEPTH + f"({text})",
]
DEEPENED = [
    (i, case) for i, case in enumerate(CASES)
    if case["exit"] != 2 and case["argv"][0] != "audit"
]


def deepened_argv(argv, deepen, tmp_path):
    out = []
    for flag, arg in zip([None, *argv], argv):
        if flag in ("--premise", "--conclusion"):
            arg = deepen(arg)
        elif flag == "--scenario":
            scenario = json.loads((GOLDEN / arg).read_text(encoding="utf-8"))
            scenario["observations"] = [
                [deepen(text) for text in row] for row in scenario["observations"]
            ]
            arg = tmp_path / arg
            arg.write_text(json.dumps(scenario), encoding="utf-8")
        out.append(str(arg))
    return out


@pytest.mark.parametrize(
    "i, case", DEEPENED, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in DEEPENED]
)
def test_replay_with_deep_formulas(i, case, capsys, monkeypatch, tmp_path):
    argv = deepened_argv(case["argv"], DEEPEN[i % len(DEEPEN)], tmp_path)
    assert argv != case["argv"]
    replay(argv, case, capsys, monkeypatch)
