import json

import pytest

from bayent import world_to_dict
from bayent.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, main

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


class TestSimulate:
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
