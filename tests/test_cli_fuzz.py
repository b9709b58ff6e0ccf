"""Malformed world, structure and scenario files and malformed command
lines never crash the CLI.

Each example writes one file and runs a verb on it in-process. Whatever
the file holds, the CLI must return 0, 1 or 2; exit 2 must print exactly
one line, on stderr, and nothing on stdout. An exception escaping main
(the traceback a user would see) fails the test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayent import SymbolTable, random_world, world_to_dict
from bayent.cli import EXIT_ERROR, main

from conftest import EXAMPLE_EDGES
from test_worlds import PERTURBATIONS, seeds, zero_fractions

# decimal exponents at and past the limit on what int() reads; Fraction alone would
# spend minutes building 10^100000000
EXPONENTS = ["1e4300", "-1e4300", "1e-4300", "1e5000", "-1e-5000", "1e100000000"]
# JSON values a mutation may put anywhere in a document
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=5) | st.sampled_from(EXPONENTS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# characters a byte edit may write: JSON punctuation, digits, letters and whitespace
edit_chars = st.sampled_from(list('{}[]",:/0123456789.-+eE ptrufalsn\t\n\\') + ["é", "\x00"])


@st.composite
def text_edits(draw, text):
    """text with a character replaced, a cut, or whitespace or a character inserted."""
    at = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["replace", "truncate", "whitespace", "insert"]))
    if kind == "truncate":
        return text[:at]
    if kind == "whitespace":
        return text[:at] + draw(st.sampled_from([" ", "\n", "\t", "\r\n"])) + text[at:]
    cut = at + (kind == "replace")
    return text[:at] + draw(edit_chars) + text[cut:]


@st.composite
def value_swaps(draw, document):
    """document with one value, anywhere in it, replaced by a random JSON value."""
    doc = json.loads(json.dumps(document))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = node[key]
    replacement = draw(json_values)
    if parent is None:
        return json.dumps(replacement)
    parent[key] = replacement
    return json.dumps(doc)


def malformed(draw, document):
    """The text of document after a text edit or a value swap."""
    if draw(st.booleans()):
        return draw(text_edits(json.dumps(document)))
    return draw(value_swaps(document))


@st.composite
def world_files(draw):
    """A world over 1 to 4 of the symbols a, b, c, d, written as json.dump writes it and
    then broken: by a text edit, a value swap, a row perturbation of test_worlds or an
    exponent string as a prob."""
    table = SymbolTable("abcd"[: draw(st.integers(1, 4))])
    data = world_to_dict(random_world(table, draw(seeds), draw(zero_fractions)))
    kind = draw(st.sampled_from(["text", "value", "row", "exponent"]))
    if kind == "exponent":
        row = draw(st.sampled_from(data["worlds"]))
        row["prob"] = draw(st.sampled_from(EXPONENTS))
        return json.dumps(data)
    if kind == "row":
        rows = data["worlds"]
        r, s = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        PERTURBATIONS[draw(st.sampled_from(sorted(PERTURBATIONS)))](rows, r, s)
        return json.dumps(data)
    if kind == "text":
        return draw(text_edits(json.dumps(data)))
    return draw(value_swaps(data))


STRUCTURE = {"universe": [0, 1, 2, 3], "edges": [list(e) for e in EXAMPLE_EDGES]}
TRANSITIONS = [
    {"kind": "identity"},
    {"kind": "sticky", "epsilon": "1/10"},
    {"kind": "matrix", "rows": [["1/2", "1/2", "0", "0"], ["0", "1", "0", "0"],
                                ["0", "0", "1", "0"], ["1/4", "1/4", "1/4", "1/4"]]},
]


def scenario(transition):
    prior = random_world(SymbolTable(["a", "b"]), 7, 0)
    return {"prior": world_to_dict(prior), "transition": transition,
            "observations": [["a|b"], ["~a"]]}


WORLD_VERBS = [
    ["prob", "--premise", "a"],
    ["prob", "--premise", "a", "--conclusion", "b|~a"],
    ["entail", "--premise", "a", "--conclusion", "a|b", "--omega", "1/2"],
    ["map-entail", "--premise", "a", "--conclusion", "a"],
]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def check(argv, path, text):
    """Run argv on a file holding text and check the exit code and output contract."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == EXIT_ERROR:
        assert out == ""
        assert err.endswith("\n") and len(err.splitlines()) == 1
        assert err.startswith("error: ")
    else:
        assert err == ""
        json.loads(out)
    return code


@settings(deadline=None, max_examples=150)
@given(world_files(), st.sampled_from(WORLD_VERBS))
def test_malformed_world_files(path, text, verb):
    check(verb + ["--world"], path, text)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_malformed_structure_files(path, data):
    argv = ["pref-entail", "--symbols", "a,b", "--premise", "a", "--conclusion", "b",
            "--structure"]
    check(argv, path, malformed(data.draw, STRUCTURE))


@st.composite
def exponent_scenarios(draw):
    """A scenario with an exponent string as a prior prob, the sticky epsilon or a
    transition matrix entry."""
    doc = scenario(json.loads(json.dumps(draw(st.sampled_from(TRANSITIONS[1:])))))
    exponent = draw(st.sampled_from(EXPONENTS))
    transition = doc["transition"]
    if draw(st.booleans()):
        draw(st.sampled_from(doc["prior"]["worlds"]))["prob"] = exponent
    elif transition["kind"] == "sticky":
        transition["epsilon"] = exponent
    else:
        draw(st.sampled_from(transition["rows"]))[draw(st.integers(0, 3))] = exponent
    return json.dumps(doc)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(TRANSITIONS), st.data())
def test_malformed_scenario_files(path, transition, data):
    argv = ["simulate", "--conclusion", "a", "--omega", "1/2", "--scenario"]
    check(argv, path, malformed(data.draw, scenario(transition)))


@settings(deadline=None, max_examples=50)
@given(exponent_scenarios())
def test_exponents_in_scenario_files(path, text):
    check(["simulate", "--conclusion", "a", "--omega", "1/2", "--scenario"], path, text)


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# free text for argparse to quote; a leading "-" could spell -h or an abbreviated --help
free_text = st.text(max_size=300).filter(lambda t: not t.startswith("-"))
VERBS = ["prob", "entail", "map-entail", "pref-entail", "audit", "simulate"]


@st.composite
def usage_errors(draw):
    """argv, to which check appends a world file, that argparse refuses: a required
    option missing, an unknown verb, a bad --mode choice, a count that is no int, or
    an unrecognized argument or option."""
    kind = draw(st.sampled_from(["missing", "verb", "choice", "count", "extra"]))
    if kind == "missing":  # no --world: the file is a premise
        verb = draw(st.sampled_from(VERBS[:3]))
        return [verb, "--conclusion", draw(free_text), "--premise"]
    if kind == "verb":
        return [draw(free_text.filter(lambda t: t not in VERBS)), "--world"]
    if kind == "choice":
        mode = draw(free_text.filter(lambda t: t not in ("universal", "existential")))
        return ["map-entail", "--conclusion", "a", "--mode", mode, "--world"]
    if kind == "count":
        option = draw(st.sampled_from(["--max-depth", "--premise-cap"]))
        count = draw(free_text.filter(_not_an_int))
        return ["audit", "--property", "or", "--omega", "1", option, count, "--world"]
    text = draw(free_text)
    extra = draw(st.sampled_from([text, "--x" + text]))
    return draw(st.sampled_from(WORLD_VERBS)) + [extra, "--world"]


@settings(deadline=None, max_examples=150)
@given(usage_errors())
def test_malformed_command_lines(path, argv):
    world = json.dumps(world_to_dict(random_world(SymbolTable(["a", "b"]), 7, 0)))
    assert check(argv, path, world) == EXIT_ERROR
