import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bayent import SymbolTable, uniform_world, world_to_dict
from bayent.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, main
from bayent.formula import Valuation

from conftest import EXAMPLE_EDGES


@pytest.fixture
def world_file(tmp_path, table1_world):
    path = tmp_path / "table1.json"
    path.write_text(json.dumps(world_to_dict(table1_world)))
    return str(path)


@pytest.fixture
def monotony_world_file(tmp_path):
    from fractions import Fraction

    from bayent import monotony_counterexample_world

    path = tmp_path / "table2.json"
    path.write_text(
        json.dumps(world_to_dict(monotony_counterexample_world(Fraction(4, 5))))
    )
    return str(path)


@pytest.fixture
def structure_file(tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(
        json.dumps({"universe": [0, 1, 2, 3], "edges": [list(e) for e in EXAMPLE_EDGES]})
    )
    return str(path)


@pytest.fixture
def scenario_file(tmp_path, table1_world):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "prior": world_to_dict(table1_world),
                "transition": {"kind": "identity"},
                "observations": [["a|~b", "~a|b"]],
            }
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def run_input_error(capsys, *argv):
    """Run a command that must fail with exit 2 and one line on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


def write_json(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


class TestProb:
    def test_joint(self, capsys, world_file):
        code, out = run(capsys, "prob", "--world", world_file, "--premise", "a|~b")
        assert code == EXIT_YES
        assert out == {"probability": "4/5"}

    def test_conditional(self, capsys, world_file):
        code, out = run(
            capsys,
            "prob",
            "--world",
            world_file,
            "--premise",
            "a|~b",
            "--premise",
            "~a|b",
            "--conclusion",
            "~a",
        )
        assert out == {"probability": "5/8"}

    def test_undefined_conditional_is_null(self, capsys, world_file):
        code, out = run(
            capsys,
            "prob",
            "--world",
            world_file,
            "--premise",
            "a & ~a",
            "--conclusion",
            "b",
        )
        assert out == {"probability": None}


    def test_world_row_without_prob(self, capsys, tmp_path, table1_world):
        body = world_to_dict(table1_world)
        del body["worlds"][2]["prob"]
        path = write_json(tmp_path, "noprob.json", body)
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "a")
        assert "'prob'" in line

    def test_world_row_with_unknown_atom(self, capsys, tmp_path, table1_world):
        body = world_to_dict(table1_world)
        body["worlds"][0]["assignment"]["z"] = 1
        path = write_json(tmp_path, "extra.json", body)
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "a")
        assert "unknown atom 'z'" in line

    def test_worlds_not_a_list(self, capsys, tmp_path):
        path = write_json(tmp_path, "worlds5.json", {"symbols": ["a"], "worlds": 5})
        line = run_input_error(capsys, "prob", "--world", path)
        assert "'worlds' must be a list" in line

    def test_cap_reported_before_worlds_not_a_list(self, capsys, tmp_path):
        # the symbol table refuses 21 names before the rows are looked at
        body = {"symbols": [f"s{i}" for i in range(21)], "worlds": 5}
        path = write_json(tmp_path, "wide5.json", body)
        line = run_input_error(capsys, "prob", "--world", path)
        assert line == f"error: bad world file {path}: 21 symbols exceeds the enumeration cap of 20"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(0, 0.1), (1, 0.9)], "cannot parse 0.1 as an exact rational: a float is not"),
            ([(0, "1/10"), (1.0, "9/10")], "truth value for 'a' must be 0 or 1"),
            ([(0, 0.1), (1.0, 0.9)], "cannot parse 0.1 as an exact rational"),
        ],
        ids=["float probs", "float truth value", "both"],
    )
    def test_floats_refused(self, capsys, tmp_path, rows, message):
        worlds = [{"assignment": {"a": b}, "prob": p} for b, p in rows]
        path = write_json(tmp_path, "floats.json", {"symbols": ["a"], "worlds": worlds})
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "a")
        assert message in line

    def test_assignment_not_a_mapping(self, capsys, tmp_path, table1_world):
        body = world_to_dict(table1_world)
        body["worlds"][0]["assignment"] = [1]
        path = write_json(tmp_path, "listrow.json", body)
        line = run_input_error(capsys, "prob", "--world", path)
        assert "bad world row" in line

    @pytest.mark.parametrize(
        "text",
        [
            # no walk recurses and the premises are never hashed
            "a" + " & a" * 2999,
            "~" * 3000 + "a",
            # the parentheses leave a single atom behind
            "(" * 1500 + "a" + ")" * 1500,
        ],
        ids=["and-chain", "negations", "parentheses"],
    )
    def test_deep_formula(self, capsys, world_file, text):
        argv = ["prob", "--world", world_file, "--premise"]
        assert main([*argv, text]) == EXIT_YES
        deep = capsys.readouterr()
        assert main([*argv, "a"]) == EXIT_YES
        assert deep == capsys.readouterr()

    @pytest.mark.parametrize("n", [21, 40, 64])
    def test_too_many_symbols(self, capsys, tmp_path, n):
        # at 40 a 2^n-bit mask takes GiB and at 64 it overflows: the cap
        # must be checked before any mask is built
        body = {"symbols": [f"s{i}" for i in range(n)], "worlds": []}
        path = write_json(tmp_path, "wide.json", body)
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "s0")
        assert line.endswith(f": {n} symbols exceeds the enumeration cap of 20")

    def test_deep_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        line = run_input_error(capsys, "prob", "--world", str(path))
        assert line.endswith("deep.json is nested too deeply")

    @pytest.mark.parametrize("symbols", ["ab", {"a": 0, "b": 1}, None])
    def test_symbols_not_a_list(self, capsys, tmp_path, symbols):
        # a string would be read one symbol per character, a dict as its keys
        body = world_to_dict(uniform_world(SymbolTable(["a", "b"])))
        body["symbols"] = symbols
        path = write_json(tmp_path, "strsyms.json", body)
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "a")
        kind = type(symbols).__name__
        assert line.endswith(f"'symbols' must be a list of names, not {kind}")


    @pytest.mark.parametrize(
        "prob, message",
        [
            ("1e5000", "cannot parse '1e5000' as an exact rational: exponent 5000 is above 4300"),
            (
                "1e4300",
                "probabilities sum to a ratio of 14285-bit and 1-bit ints,"
                " off by a negative ratio of 14285-bit and 1-bit ints",
            ),
        ],
        ids=["exponent past the limit", "sum too long to print"],
    )
    def test_prob_past_the_digit_limit(self, capsys, tmp_path, prob, message):
        # 1 - 10^4300 has 4,300 digits, which str() would print in full
        rows = [{"assignment": {"a": 0}, "prob": prob}, {"assignment": {"a": 1}, "prob": "0"}]
        path = write_json(tmp_path, "big.json", {"symbols": ["a"], "worlds": rows})
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "a")
        assert line == f"error: bad world file {path}: {message}"

    @pytest.mark.parametrize(
        "prob, size",
        [("9" * 5000 + "/3", 5002), ("x" * 5000, 5000)],
        ids=["past the digit limit", "not a number"],
    )
    def test_long_prob_string_named_by_its_length(self, capsys, tmp_path, prob, size):
        # quoted whole, and again by Fraction's message, these lines ran to 5,229 and
        # 10,119 characters
        rows = [{"assignment": {"a": 0}, "prob": prob}, {"assignment": {"a": 1}, "prob": "0"}]
        path = write_json(tmp_path, "long.json", {"symbols": ["a"], "worlds": rows})
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "a")
        message = f"cannot parse a {size}-character str as an exact rational"
        assert line == f"error: bad world file {path}: {message}"
        assert len(line) < 200

    def test_result_too_long_to_print(self, capsys, tmp_path):
        # every prob has under 2,600 digits, but p(~b) = 1/d1 + 1/d2 has about 4,450
        d1, d2 = 2 * 3**4000, 2 * 7**3000
        probs = [f"1/{d1}", f"{d1 // 2 - 1}/{d1}", f"1/{d2}", f"{d2 // 2 - 1}/{d2}"]
        world = {
            "symbols": ["a", "b"],
            "worlds": [
                {"assignment": {"a": i >> 1, "b": i & 1}, "prob": p} for i, p in enumerate(probs)
            ],
        }
        path = write_json(tmp_path, "long.json", world)
        code, out = run(capsys, "prob", "--world", path, "--premise", "~a")
        assert (code, out) == (EXIT_YES, {"probability": "1/2"})
        line = run_input_error(capsys, "prob", "--world", path, "--premise", "~b")
        limit = sys.get_int_max_str_digits()
        assert line == f"error: an exact result has more than {limit} digits to print"


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--world", "world.json", "--conclusion", ""],
        ["entail", "--world", "world.json", "--conclusion", "", "--omega", "1/2"],
        ["map-entail", "--world", "world.json", "--conclusion", ""],
        ["pref-entail", "--structure", "structure.json", "--symbols", "a,b,c", "--conclusion", ""],
        ["simulate", "--scenario", "scenario.json", "--conclusion", "", "--omega", "1/2"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_conclusion(capsys, monkeypatch, argv):
    # an empty --conclusion once read as none: a traceback for the verdict verbs
    # and p(premises) for prob
    monkeypatch.chdir(Path(__file__).parent / "data" / "cli_golden")
    assert run_input_error(capsys, *argv) == "error: empty formula (at position 0)"


class TestEntail:
    def args(self, world, omega):
        return [
            "entail",
            "--world",
            world,
            "--premise",
            "a|~b",
            "--premise",
            "~a|b",
            "--conclusion",
            "~a",
            "--omega",
            omega,
        ]

    def test_holds(self, capsys, world_file):
        code, out = run(capsys, *self.args(world_file, "0.6"))
        assert code == EXIT_YES
        assert out["holds"] is True
        assert out["probability"] == "5/8"
        assert out["vacuous"] is False

    def test_fails(self, capsys, world_file):
        code, out = run(capsys, *self.args(world_file, "0.7"))
        assert code == EXIT_NO
        assert out["holds"] is False
        assert out["witnesses"] == [{"index": 3, "assignment": {"a": 1, "b": 1}}]

    def test_missing_world_file(self, capsys, tmp_path):
        code = main(self.args(str(tmp_path / "nope.json"), "0.6"))
        assert code == EXIT_ERROR

    def test_bad_formula(self, capsys, world_file):
        code = main(
            ["entail", "--world", world_file, "--conclusion", "a & | b", "--omega", "1"]
        )
        assert code == EXIT_ERROR

    def test_omega_exponent_past_the_limit(self, capsys, world_file):
        # Fraction("1e100000000") alone ran for minutes
        start = time.perf_counter()
        line = run_input_error(
            capsys, "entail", "--world", world_file, "--conclusion", "a",
            "--omega", "1e100000000",
        )
        assert time.perf_counter() - start < 1
        assert line == (
            "error: cannot parse '1e100000000' as an exact rational: "
            "exponent 100000000 is above 4300"
        )

    def test_deterministic_output(self, capsys, world_file):
        _, first = run(capsys, *self.args(world_file, "0.6"))
        code = main(self.args(world_file, "0.6"))
        second = capsys.readouterr().out
        assert json.dumps(first, separators=(",", ":")) + "\n" == second


class TestMapEntail:
    def test_verdict(self, capsys, world_file):
        code, out = run(
            capsys,
            "map-entail",
            "--world",
            world_file,
            "--premise",
            "a",
            "--conclusion",
            "b",
        )
        assert code == EXIT_YES
        assert out["witnesses"] == [{"index": 3, "assignment": {"a": 1, "b": 1}}]


class TestPrefEntail:
    @pytest.mark.parametrize(
        "body, message",
        [
            ({"universe": 5, "edges": []}, "must be lists"),
            ({"universe": [0, 1], "edges": 5}, "must be lists"),
            ({"universe": ["0"], "edges": []}, "universe index '0' is not an integer"),
            ({"universe": [0, 1], "edges": [5]}, "index pairs"),
            ({"universe": [0, 1, 2], "edges": ["01", "12"]}, "index pairs, not '01'"),
            ({"universe": [0, 1], "edges": [[0.9, 1]]}, "index pairs, not [0.9, 1]"),
            ({"universe": [0, 1], "edges": [[True, 1]]}, "index pairs, not [True, 1]"),
            ({"universe": [0, 1, 2], "edges": [[0, 1, 2]]}, "index pairs, not [0, 1, 2]"),
            ({"universe": [0, 1], "edges": [{"0": 1}]}, "index pairs, not {'0': 1}"),
            ({"universe": [True, 0], "edges": []}, "universe index True is not an integer"),
            ({"universe": [0, 1.0], "edges": []}, "universe index 1.0 is not an integer"),
        ],
    )
    def test_malformed_structure(self, capsys, tmp_path, body, message):
        path = write_json(tmp_path, "bad_structure.json", body)
        line = run_input_error(
            capsys, "pref-entail", "--structure", path, "--symbols", "a,b", "--conclusion", "a"
        )
        assert message in line

    @pytest.mark.parametrize("n", [21, 40, 64])
    @pytest.mark.parametrize(
        "verb", [["pref-entail", "--conclusion", "s0"], ["audit", "--property", "or"]]
    )
    def test_too_many_symbols(self, capsys, structure_file, verb, n):
        # premise masks have 2^n bits, so --symbols has the worlds' cap
        symbols = ",".join(f"s{i}" for i in range(n))
        line = run_input_error(
            capsys, *verb, "--structure", structure_file, "--symbols", symbols
        )
        assert line.startswith("error: bad symbol list ")
        assert line.endswith(f": {n} symbols exceeds the enumeration cap of 20")

    @pytest.mark.parametrize(
        "verb", [["pref-entail", "--conclusion", "a"], ["audit", "--property", "or"]]
    )
    def test_universe_index_out_of_range(self, capsys, tmp_path, verb):
        # a,b has the valuation indices 0-3
        path = write_json(tmp_path, "structure.json", {"universe": [0, 4], "edges": []})
        line = run_input_error(capsys, *verb, "--structure", path, "--symbols", "a,b")
        assert line == f"error: bad structure file {path}: universe index 4 out of range"

    def test_a_long_cycle_is_refused_on_one_short_line(self, capsys, tmp_path, monkeypatch):
        # a relative path, so the line's length does not depend on where tmp_path is
        monkeypatch.chdir(tmp_path)
        edges = [[i, (i + 1) % 1024] for i in range(1024)]
        write_json(tmp_path, "cycle.json", {"universe": list(range(1024)), "edges": edges})
        symbols = ",".join(f"p{i}" for i in range(10))
        line = run_input_error(
            capsys, "pref-entail", "--structure", "cycle.json", "--symbols", symbols,
            "--conclusion", "p0",
        )
        assert len(line.encode()) < 300
        assert line.startswith("error: bad structure file cycle.json: irreflexivity: (0,0); ")
        assert line.endswith("; irreflexivity: (7,7); and 1,016 more")

    def test_holds(self, capsys, structure_file):
        code, out = run(
            capsys,
            "pref-entail",
            "--structure",
            structure_file,
            "--symbols",
            "a,b",
            "--premise",
            "a|~b",
            "--conclusion",
            "~b",
        )
        assert code == EXIT_YES
        assert out["holds"] is True
        assert out["maximal_models"] == [{"index": 0, "assignment": {"a": 0, "b": 0}}]

    def test_fails(self, capsys, structure_file):
        code, out = run(
            capsys,
            "pref-entail",
            "--structure",
            structure_file,
            "--symbols",
            "a,b",
            "--premise",
            "a",
            "--conclusion",
            "~b",
        )
        assert code == EXIT_NO
        assert [m["index"] for m in out["maximal_models"]] == [2, 3]


class TestAudit:
    def test_counterexample_exit_code(self, capsys, monotony_world_file):
        code, out = run(
            capsys,
            "audit",
            "--world",
            monotony_world_file,
            "--omega",
            "0.8",
            "--property",
            "monotony",
        )
        assert code == EXIT_NO
        report = out["reports"][0]
        assert report["verdict"] == "counterexample"
        assert report["counterexample"]["alpha"] == "a"

    def test_pass_exit_code(self, capsys, world_file):
        code, out = run(
            capsys,
            "audit",
            "--world",
            world_file,
            "--omega",
            "1",
            "--property",
            "monotony",
        )
        assert code == EXIT_YES
        assert out["reports"][0]["verdict"] == "pass"

    def test_unknown_property(self, world_file):
        code = main(
            [
                "audit",
                "--world",
                world_file,
                "--omega",
                "1",
                "--property",
                "flying-pigs",
            ]
        )
        assert code == EXIT_ERROR

    def test_theorem_suite_over_structure(self, capsys, structure_file):
        code, out = run(
            capsys,
            "audit",
            "--structure",
            structure_file,
            "--symbols",
            "a,b",
            "--property",
            "theorem-suite",
        )
        assert {r["property"] for r in out["reports"]} == {
            "reflexivity",
            "monotony",
            "cut",
            "supraclassicality",
            "cautious_monotony",
            "classical_cautious_monotony",
            "classical_cut",
            "or",
        }

    def test_map_oracle(self, capsys, world_file):
        code, out = run(
            capsys,
            "audit",
            "--world",
            world_file,
            "--map",
            "--property",
            "reflexivity",
        )
        assert code == EXIT_YES

    @pytest.mark.parametrize(
        "prop,cap,cases",
        [("or", "3", "88,628,904,000"), ("theorem-suite", "2", "2,985,984,000")],
    )
    def test_over_budget_exits_at_once(self, capsys, tmp_path, prop, cap, cases):
        # 3 symbols give the 90-formula pool; without a budget these ran for hours
        world = world_to_dict(uniform_world(SymbolTable(["a", "b", "c"])))
        path = write_json(tmp_path, "abc.json", world)
        start = time.perf_counter()
        line = run_input_error(
            capsys,
            "audit",
            "--world",
            path,
            "--omega",
            "3/5",
            "--property",
            prop,
            "--premise-cap",
            cap,
        )
        assert time.perf_counter() - start < 1
        assert line == (
            f"error: or over 90 formulas at premise cap {cap} is {cases} cases, "
            "over the budget of 100,000,000"
        )

    def test_premise_cap_far_above_the_pool_exits_at_once(self, capsys, tmp_path):
        # the case count once summed comb(90, s) for every s up to the cap
        world = world_to_dict(uniform_world(SymbolTable(["a", "b", "c"])))
        path = write_json(tmp_path, "abc.json", world)
        start = time.perf_counter()
        line = run_input_error(
            capsys, "audit", "--world", path, "--omega", "3/5", "--property", "cut",
            "--premise-cap", "1000000000",
        )
        assert time.perf_counter() - start < 1
        assert line == (
            "error: cut over 90 formulas at premise cap 1000000000 is "
            f"{2**90 * 90**2:,} cases, over the budget of 100,000,000"
        )

    @pytest.mark.parametrize(
        "flag, message",
        [("--max-depth", "max_depth -1 is negative"), ("--premise-cap", "premise cap -1 is negative")],
    )
    def test_negative_bound_refused(self, capsys, world_file, flag, message):
        # both once ran as 0: a depth-0 pool, or no premise sets but the empty one
        line = run_input_error(
            capsys, "audit", "--world", world_file, "--omega", "1", "--property", "cut",
            flag, "-1",
        )
        assert line == f"error: {message}"

    def test_premise_cap_above_a_small_pool_stops_at_the_pool(self, capsys, world_file):
        # the premise sets of this 4-formula pool end at size 4; looping over
        # every size up to the cap took seconds here and minutes at 10^9
        argv = ["audit", "--world", world_file, "--omega", "1", "--property", "reflexivity",
                "--max-depth", "0", "--premise-cap"]
        start = time.perf_counter()
        code, out = run(capsys, *argv, "10000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == run(capsys, *argv, "4")

    def test_unknown_property_message(self, capsys, world_file):
        line = run_input_error(
            capsys, "audit", "--world", world_file, "--omega", "1", "--property", "x"
        )
        assert line == "error: unknown property 'x'"

    def test_no_oracle_source(self, capsys):
        line = run_input_error(capsys, "audit", "--property", "or")
        assert line == "error: audit needs either --world or --structure"

    def test_world_without_omega_or_map(self, capsys, world_file):
        line = run_input_error(capsys, "audit", "--world", world_file, "--property", "or")
        assert line == "error: audit over a world needs --omega (or --map)"


class TestSimulate:
    def test_prior_symbols_not_a_list(self, capsys, tmp_path):
        prior = world_to_dict(uniform_world(SymbolTable(["a", "b"])))
        prior["symbols"] = "ab"
        path = write_json(
            tmp_path,
            "strprior.json",
            {"prior": prior, "transition": {"kind": "identity"}, "observations": [["a"]]},
        )
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1/2"
        )
        assert line.endswith("bad prior: 'symbols' must be a list of names, not str")

    def test_reproduces_static_value(self, capsys, scenario_file):
        code, out = run(
            capsys,
            "simulate",
            "--scenario",
            scenario_file,
            "--conclusion",
            "~a",
            "--omega",
            "3/5",
        )
        assert code == EXIT_YES
        assert out["verdict"]["probability"] == "5/8"
        assert out["steps"][0]["weights"] == ["5/8", "0", "0", "3/8"]

    def test_contradictory_scenario_vacuous(self, capsys, tmp_path, table1_world):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "prior": world_to_dict(table1_world),
                    "transition": {"kind": "identity"},
                    "observations": [["a"], ["~a"]],
                }
            )
        )
        code, out = run(
            capsys,
            "simulate",
            "--scenario",
            str(path),
            "--conclusion",
            "b",
            "--omega",
            "1",
        )
        assert out["verdict"]["vacuous"] is True

    def test_sticky_without_epsilon(self, capsys, tmp_path, table1_world):
        path = write_json(
            tmp_path,
            "sticky.json",
            {
                "prior": world_to_dict(table1_world),
                "transition": {"kind": "sticky"},
                "observations": [["a"]],
            },
        )
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1"
        )
        assert "epsilon" in line

    @pytest.mark.parametrize(
        "transition",
        [
            {"kind": "sticky", "epsilon": 0.1},
            {"kind": "matrix", "rows": [[1, 0, 0, 0]] * 3 + [[0.5, 0.5, 0, 0]]},
        ],
        ids=["epsilon", "matrix entry"],
    )
    def test_float_in_transition_refused(self, capsys, tmp_path, table1_world, transition):
        body = {"prior": world_to_dict(table1_world), "transition": transition}
        path = write_json(tmp_path, "floats.json", {**body, "observations": []})
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1"
        )
        assert "a float is not exact" in line

    @pytest.mark.parametrize(
        "transition, message",
        [
            ({"kind": "sticky"}, "sticky transition needs an 'epsilon'"),
            (
                {"kind": "sticky", "epsilon": 0.1},
                "bad sticky 'epsilon': cannot parse 0.1 as an exact rational: "
                "a float is not exact",
            ),
            (
                {"kind": "sticky", "epsilon": "1e100000000"},
                "bad sticky 'epsilon': cannot parse '1e100000000' as an exact rational: "
                "exponent 100000000 is above 4300",
            ),
            (
                {"kind": "sticky", "epsilon": "1e4300"},
                "epsilon a ratio of 14285-bit and 1-bit ints outside [0, 1]",
            ),
            (
                {"kind": "matrix", "rows": [["1", "0", "0", "0"]] * 3 + [["-1e5000"] * 4]},
                "bad transition matrix: cannot parse '-1e5000' as an exact rational: "
                "exponent 5000 is above 4300",
            ),
        ],
        ids=["missing", "float", "exponent past the limit", "too long to print", "matrix"],
    )
    def test_transition_messages(self, capsys, tmp_path, table1_world, transition, message):
        body = {"prior": world_to_dict(table1_world), "transition": transition}
        path = write_json(tmp_path, "eps.json", {**body, "observations": []})
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1"
        )
        assert line == f"error: bad scenario file {path}: {message}"

    def test_weights_too_long_to_print(self, capsys, tmp_path, table1_world):
        # each step multiplies the counts by about 1000000007 * 3
        body = {
            "prior": world_to_dict(table1_world),
            "transition": {"kind": "sticky", "epsilon": "1/1000000007"},
            "observations": [["a | b"]] * 600,
        }
        path = write_json(tmp_path, "long.json", body)
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1/2"
        )
        limit = sys.get_int_max_str_digits()
        assert line == f"error: an exact result has more than {limit} digits to print"

    def test_observation_with_unknown_atom(self, capsys, tmp_path, table1_world):
        path = write_json(
            tmp_path,
            "unknown.json",
            {
                "prior": world_to_dict(table1_world),
                "transition": {"kind": "identity"},
                "observations": [["a | z"]],
            },
        )
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1"
        )
        assert "unknown atom 'z'" in line

    @pytest.mark.parametrize(
        "observations, message",
        [([[5]], "formula must be a string, not int"), (5, "not iterable"), ([5], "not iterable")],
    )
    def test_malformed_observations(self, capsys, tmp_path, table1_world, observations, message):
        path = write_json(
            tmp_path,
            "badobs.json",
            {
                "prior": world_to_dict(table1_world),
                "transition": {"kind": "identity"},
                "observations": observations,
            },
        )
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1"
        )
        assert message in line

    @pytest.mark.parametrize(
        "transition, observations",
        [
            ({"kind": "matrix", "rows": ["1000", "0100", "0010", "0001"]}, [["a"]]),
            ({"kind": "matrix", "rows": "1000"}, [["a"]]),
            ({"kind": "identity"}, "ab"),
            ({"kind": "identity"}, [["a"], "ab"]),
        ],
        ids=["matrix-row", "matrix-rows", "observations", "observation-row"],
    )
    def test_string_in_place_of_a_list_refused(
        self, capsys, tmp_path, table1_world, transition, observations
    ):
        # iterating a string would read its characters as entries or formulas
        path = write_json(
            tmp_path,
            "strings.json",
            {
                "prior": world_to_dict(table1_world),
                "transition": transition,
                "observations": observations,
            },
        )
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "a", "--omega", "1"
        )
        assert line.endswith("must be a list of lists, not strings")

    def test_filters_each_observation_once(self, capsys, monkeypatch, tmp_path, table1_world):
        from bayent import temporal

        calls = []
        step = temporal.filter_step

        def counting_step(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(temporal, "filter_step", counting_step)
        path = write_json(
            tmp_path,
            "three.json",
            {
                "prior": world_to_dict(table1_world),
                "transition": {"kind": "sticky", "epsilon": "1/10"},
                "observations": [["a | b"], ["b"], []],
            },
        )
        code, out = run(
            capsys, "simulate", "--scenario", path, "--conclusion", "b", "--omega", "1/2"
        )
        assert code == EXIT_YES
        assert len(out["steps"]) == 3
        assert len(calls) == 3

    def test_too_many_symbols_refused_before_the_transition_is_built(
        self, capsys, tmp_path
    ):
        table = SymbolTable([f"s{i}" for i in range(11)])
        path = write_json(
            tmp_path,
            "eleven.json",
            {
                "prior": world_to_dict(uniform_world(table)),
                "transition": {"kind": "identity"},
                "observations": [],
            },
        )
        line = run_input_error(
            capsys, "simulate", "--scenario", path, "--conclusion", "s0", "--omega", "1"
        )
        assert "11 symbols exceeds the temporal cap of 10" in line

    def test_malformed_transition_row(self, tmp_path, table1_world):
        path = tmp_path / "rows.json"
        path.write_text(
            json.dumps(
                {
                    "prior": world_to_dict(table1_world),
                    "transition": {
                        "kind": "matrix",
                        "rows": [["1", "0", "0", "0"]] * 3 + [["1/2", "0", "0", "0"]],
                    },
                    "observations": [],
                }
            )
        )
        code = main(
            ["simulate", "--scenario", str(path), "--conclusion", "a", "--omega", "1"]
        )
        assert code == EXIT_ERROR


_LONG = 5000
_ONE_SYMBOL_WORLD = {
    "symbols": ["a"],
    "worlds": [
        {"assignment": {"a": 0}, "prob": "1/2"},
        {"assignment": {"a": 1}, "prob": "1/2"},
    ],
}


def _scenario(transition, observations):
    return {"prior": _ONE_SYMBOL_WORLD, "transition": transition, "observations": observations}


@pytest.mark.parametrize(
    "body, argv",
    [
        (
            {"symbols": ["a"], "worlds": [{"assignment": {"a": 0, "b" * _LONG: 1}, "prob": "1"}]},
            ["prob", "--world", "FILE"],
        ),
        (_ONE_SYMBOL_WORLD, ["prob", "--world", "FILE", "--premise", "b" * _LONG]),
        (_ONE_SYMBOL_WORLD, ["prob", "--world", "FILE", "--premise", "a " + "b" * _LONG]),
        (_ONE_SYMBOL_WORLD, ["prob", "--world", "FILE", "--premise", "(a " + "b" * _LONG]),
        ({"symbols": ["A" * _LONG], "worlds": []}, ["prob", "--world", "FILE"]),
        (
            {"universe": [0], "edges": []},
            ["pref-entail", "--structure", "FILE", "--symbols", "A" + "b" * _LONG,
             "--conclusion", "a"],
        ),
        (
            {"universe": [0, 1], "edges": [[0, "x" * _LONG]]},
            ["pref-entail", "--structure", "FILE", "--symbols", "a", "--conclusion", "a"],
        ),
        (
            {"universe": [10**4000 - 1], "edges": []},
            ["pref-entail", "--structure", "FILE", "--symbols", "a", "--conclusion", "a"],
        ),
        (
            _scenario({"kind": "x" * _LONG}, []),
            ["simulate", "--scenario", "FILE", "--conclusion", "a", "--omega", "1/2"],
        ),
        (
            _scenario({"kind": "identity"}, [["b" * _LONG]]),
            ["simulate", "--scenario", "FILE", "--conclusion", "a", "--omega", "1/2"],
        ),
        (
            _ONE_SYMBOL_WORLD,
            ["audit", "--world", "FILE", "--omega", "1", "--property", "x" * _LONG],
        ),
        (
            _ONE_SYMBOL_WORLD,
            ["audit", "--world", "FILE", "--omega", "1", "--property", "or",
             "--max-depth", "9" * 4000],
        ),
        (
            _ONE_SYMBOL_WORLD,
            ["audit", "--world", "FILE", "--omega", "1", "--property", "or",
             "--premise-cap", "-" + "9" * 4000],
        ),
        (None, ["prob", "--world", "FILE"]),
    ],
    ids=[
        "world row key",
        "premise atom",
        "unexpected token",
        "expected parenthesis",
        "world symbol",
        "symbols argument",
        "structure edge",
        "universe entry",
        "transition kind",
        "observation atom",
        "property argument",
        "max-depth argument",
        "premise-cap argument",
        "file path",
    ],
)
def test_long_values_are_named_by_their_size(capsys, tmp_path, body, argv):
    # each of these lines once quoted the value whole, some twice: 4,000 to 10,000
    # characters
    if body is None:
        path = str(tmp_path / ("p" * _LONG))
    else:
        path = write_json(tmp_path, "input.json", body)
    line = run_input_error(capsys, *[path if a == "FILE" else a for a in argv])
    assert len(line) < 200
    assert re.search(r"\ba \d+-(character \w+|bit int)\b", line)


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--world", "FILE", "--premise", "a"],
        ["pref-entail", "--structure", "FILE", "--symbols", "a,b", "--conclusion", "a"],
        ["simulate", "--scenario", "FILE", "--conclusion", "a", "--omega", "1/2"],
    ],
    ids=["world", "structure", "scenario"],
)
def test_file_not_utf8(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"symbols": ["\xe9"]}'.encode("latin-1"))
    line = run_input_error(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert line.startswith(f"error: {path} is not valid UTF-8: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--world", "FILE", "--premise", "a"],
        ["pref-entail", "--structure", "FILE", "--symbols", "a,b", "--conclusion", "a"],
        ["simulate", "--scenario", "FILE", "--conclusion", "a", "--omega", "1/2"],
    ],
    ids=["world", "structure", "scenario"],
)
def test_json_int_past_the_digit_limit(capsys, tmp_path, argv):
    # json.load refuses it with a ValueError that is not a JSONDecodeError
    path = tmp_path / "big.json"
    path.write_text('{"symbols": [' + "1" * 5000 + "]}")
    line = run_input_error(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert line.startswith(f"error: {path} is not valid JSON: Exceeds the limit (4300 digits)")


def test_verdict_verbs_emit_witnesses_without_building_valuations(monkeypatch, capsys):
    built = []
    init = Valuation.__init__

    def counting_init(self, table, index):
        built.append(index)
        init(self, table, index)

    monkeypatch.setattr(Valuation, "__init__", counting_init)
    monkeypatch.chdir(Path(__file__).parent / "data" / "cli_golden")
    calls = [
        ["entail", "--world", "world4.json", "--conclusion", "a&b", "--omega", "1/2"],
        ["map-entail", "--world", "world.json", "--premise", "a<->b", "--conclusion", "c"],
        ["pref-entail", "--structure", "structure.json", "--symbols", "a,b,c",
         "--premise", "b&~c|a&~b", "--conclusion", "c"],
    ]
    rows = []
    for argv in calls:
        assert main(argv) == EXIT_NO
        out = json.loads(capsys.readouterr().out)
        rows.append(len(out["witnesses"] if "witnesses" in out else out["maximal_models"]))
    assert built == [] and rows == [9, 4, 3]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["prob"],
        ["bogus"],
        ["map-entail", "--world", "w.json", "--conclusion", "a", "--mode", "bogus"],
        ["prob", "--world", "w.json", "--bogus"],
        ["prob", "--world", "w.json", "a\nb"],
        ["prob", "--world", "w.json", "--pr=a\nb"],
        ["audit", "--property", "or", "--max-depth", "x" * 300],
        ["audit", "--property", "or", "--premise-cap", "9" * 5000],
        ["map-entail", "--world", "w.json", "--conclusion", "a", "--mode", "m" * 300],
        ["v" * 300],
        ["prob", "--world", "w.json", "u" * 300],
        ["map-entail", "--world", "w.json", "--conclusion", "a", "--mode", " ".join("w" * 1000)],
        ["prob", "--world", "w.json", *["u"] * 1000],
    ],
    ids=[
        "no verb",
        "missing option",
        "unknown verb",
        "bad choice",
        "unrecognized option",
        "unrecognized argument with a line break",
        "ambiguous option with a line break",
        "bad int",
        "int past the digit limit",
        "300-character choice",
        "300-character verb",
        "300-character unrecognized argument",
        "choice of 1,000 words",
        "1,000 unrecognized arguments",
    ],
)
def test_usage_errors_are_one_short_line(capsys, argv):
    # argparse words these differently across Python versions, so only the shape is pinned
    assert len(run_input_error(capsys, *argv).encode()) < 200


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("sink", ["full device", "closed pipe"])
def test_a_failed_write_exits_2_with_one_line(sink):
    # in a child process: in-process, captured stdout has no file descriptor to fail
    world = Path(__file__).parent / "data" / "cli_golden" / "world.json"
    argv = [sys.executable, "-m", "bayent.cli", "prob", "--world", str(world)]
    if sink == "full device":
        with open("/dev/full", "w") as out:
            done = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, text=True)
        reason = "No space left on device"
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        reason = "Broken pipe"
    assert done.returncode == EXIT_ERROR
    assert done.stderr == f"error: cannot write the output: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_an_unwritable_stderr_still_exits_2(tmp_path):
    # exit 1 would read as a negative verdict
    argv = [sys.executable, "-m", "bayent.cli", "prob", "--world", str(tmp_path / "nope.json")]
    with open("/dev/full", "w") as err:
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err)
    assert done.returncode == EXIT_ERROR
    assert done.stdout == b""
