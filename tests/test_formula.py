import copy
import os
import pickle
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bayent
from bayent import (
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    Not,
    Or,
    SymbolTable,
    SyntaxError_,
    Top,
    UnknownAtomError,
    Valuation,
    atoms,
    evaluate,
    parse_formula,
    render,
)
from bayent.formula import Formula, FormulaError, _atom_mask, truth_mask

from formula_oracle import (
    _tokenize,
    old_evaluate,
    old_parse_formula,
    old_render,
    old_truth_mask,
)


def test_valuation_is_a_frozen_value():
    t = SymbolTable(["a", "b"])
    v = Valuation(t, 2)
    twin = Valuation(SymbolTable(["a", "b"]), 2)
    assert v == twin and hash(v) == hash(twin) == hash((t, 2))
    assert v != Valuation(t, 3) and v != Valuation(SymbolTable(["a", "c"]), 2)
    assert v.__eq__((t, 2)) is NotImplemented and v != 2
    with pytest.raises(FrozenInstanceError):
        v.index = 3
    with pytest.raises(FrozenInstanceError):
        del v.table
    for index in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            Valuation(t, index)
    assert repr(v) == "Valuation(a=1,b=0)"
    assert copy.copy(v) == v and pickle.loads(pickle.dumps(v)) == v


def test_repr_of_every_node_kind():
    f = parse_formula("(a & ~b | true) -> (false <-> c)")
    assert repr(f) == (
        "Implies(Or(And(Atom('a'), Not(Atom('b'))), Top()), Iff(Bottom(), Atom('c')))"
    )


@pytest.mark.parametrize("n", [1, 2, 5])
def test_table_assignment_matches_the_valuation_bits(n):
    t = SymbolTable([f"p{k}" for k in range(n)])
    for index in range(t.num_valuations):
        bits = [(index >> (n - 1 - k)) & 1 for k in range(n)]
        assert t.assignment(index) == dict(zip(t.symbols, bits))
        assert Valuation(t, index).assignment() == t.assignment(index)
    for index in (-1, t.num_valuations):
        with pytest.raises(ValueError, match="out of range"):
            t.assignment(index)


class TestSymbolTable:
    def test_order_and_lookup(self):
        t = SymbolTable(["a", "b", "c"])
        assert t.position("a") == 0
        assert t.position("c") == 2
        assert len(t) == 3
        assert t.num_valuations == 8

    def test_position_of_an_unknown_atom(self):
        with pytest.raises(UnknownAtomError, match="^unknown atom 'd'$") as info:
            SymbolTable(["a", "b", "c"]).position("d")
        assert info.value.name == "d"

    @pytest.mark.parametrize("bad", [["A"], ["1a"], ["a", "a"], [""], []])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ValueError):
            SymbolTable(bad)

    def test_first_symbol_is_most_significant(self):
        t = SymbolTable(["a", "b"])
        # index order walks the truth table: (0,0), (0,1), (1,0), (1,1)
        assert [v.assignment() for v in t.valuations()] == [
            {"a": 0, "b": 0},
            {"a": 0, "b": 1},
            {"a": 1, "b": 0},
            {"a": 1, "b": 1},
        ]

    def test_assignment_round_trip(self):
        t = SymbolTable(["a", "b"])
        assert t.index_of({"a": 1, "b": 0}) == 2
        assert t.valuation(2).assignment() == {"a": 1, "b": 0}

    def test_assignment_must_cover_all_symbols(self):
        t = SymbolTable(["a", "b"])
        with pytest.raises(ValueError):
            t.index_of({"a": 1})
        with pytest.raises(UnknownAtomError):
            t.index_of({"a": 1, "b": 0, "c": 1})


class TestParse:
    def test_or_not(self):
        t = SymbolTable(["a", "b"])
        assert parse_formula("a | ~b", t) == Or(Atom("a"), Not(Atom("b")))

    def test_implies_right_associative(self):
        t = SymbolTable(["a", "b", "c"])
        assert parse_formula("a -> b -> c", t) == Implies(
            Atom("a"), Implies(Atom("b"), Atom("c"))
        )

    def test_and_or_left_associative(self):
        t = SymbolTable(["a", "b", "c"])
        assert parse_formula("a & b & c", t) == And(
            And(Atom("a"), Atom("b")), Atom("c")
        )
        assert parse_formula("a | b | c", t) == Or(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_precedence(self):
        t = SymbolTable(["a", "b", "c"])
        assert parse_formula("a | b & c", t) == Or(Atom("a"), And(Atom("b"), Atom("c")))
        assert parse_formula("~a & b", t) == And(Not(Atom("a")), Atom("b"))
        assert parse_formula("a & b -> c", t) == Implies(
            And(Atom("a"), Atom("b")), Atom("c")
        )
        assert parse_formula("a -> b <-> c", t) == Iff(
            Implies(Atom("a"), Atom("b")), Atom("c")
        )

    def test_constants_and_bang(self):
        assert parse_formula("true & !false") == And(Top(), Not(Bottom()))

    def test_parens(self):
        t = SymbolTable(["a", "b", "c"])
        assert parse_formula("(a | b) & c", t) == And(
            Or(Atom("a"), Atom("b")), Atom("c")
        )

    def test_syntax_error_with_position(self):
        with pytest.raises(SyntaxError_) as exc:
            parse_formula("a & | b", SymbolTable(["a", "b"]))
        assert exc.value.position == 4

    def test_unknown_atom_named(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse_formula("a | zz", SymbolTable(["a"]))
        assert exc.value.name == "zz"

    @pytest.mark.parametrize("bad", ["", "   ", "a &", "( a", "a b", "->"])
    def test_malformed(self, bad):
        with pytest.raises(SyntaxError_):
            parse_formula(bad, SymbolTable(["a", "b"]))

    def test_parse_without_table_accepts_any_atom(self):
        assert parse_formula("whatever") == Atom("whatever")


class TestEvaluate:
    def test_table_rows(self):
        t = SymbolTable(["a", "b"])
        f = parse_formula("a | ~b", t)
        # the one falsifying row is a=0, b=1
        assert [evaluate(f, v) for v in t.valuations()] == [1, 0, 1, 1]

    def test_top_everywhere(self):
        t = SymbolTable(["a"])
        assert all(evaluate(Top(), v) == 1 for v in t.valuations())

    def test_atoms(self):
        t = SymbolTable(["a", "b"])
        assert atoms(parse_formula("a | ~b", t)) == {"a", "b"}
        assert atoms(Top()) == set()
        assert atoms(parse_formula("(a & a) -> a", t)) == {"a"}


# --- property tests ----------------------------------------------------

_TABLE = SymbolTable(["a", "b", "c"])


def formulas(depth=4):
    leaves = st.sampled_from(
        [Atom("a"), Atom("b"), Atom("c"), Top(), Bottom()]
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: Iff(*p)),
        ),
        max_leaves=depth * 4,
    )


valuations = st.integers(min_value=0, max_value=7).map(
    lambda i: Valuation(_TABLE, i)
)


@given(formulas())
def test_render_parse_round_trip(formula):
    assert parse_formula(render(formula), _TABLE) == formula


@given(formulas(), valuations)
def test_negation_flips(formula, v):
    assert evaluate(Not(formula), v) == 1 - evaluate(formula, v)


@given(formulas(), formulas(), valuations)
def test_connective_identities(f, g, v):
    fv, gv = evaluate(f, v), evaluate(g, v)
    assert evaluate(And(f, g), v) == fv * gv
    assert evaluate(Or(f, g), v) == fv + gv - fv * gv
    assert evaluate(Implies(f, g), v) == evaluate(Or(Not(f), g), v)
    assert evaluate(Iff(f, g), v) == evaluate(
        And(Implies(f, g), Implies(g, f)), v
    )


# --- truth masks -------------------------------------------------------


def _mask_by_evaluation(f, table):
    return sum(evaluate(f, v) << v.index for v in table.valuations())


@pytest.mark.parametrize("n", range(1, 11))
def test_every_atom_mask_matches_evaluate(n):
    table = SymbolTable([f"p{i}" for i in range(n)])
    for name in table:
        assert truth_mask(Atom(name), table) == _mask_by_evaluation(Atom(name), table)


@given(formulas())
def test_truth_mask_matches_evaluate(formula):
    assert truth_mask(formula, _TABLE) == _mask_by_evaluation(formula, _TABLE)


def test_twenty_atom_masks_build_in_under_a_second():
    table = SymbolTable([f"p{i}" for i in range(20)])
    _atom_mask.cache_clear()
    start = time.perf_counter()
    masks = [truth_mask(Atom(name), table) for name in table]
    assert time.perf_counter() - start < 1
    assert all(m.bit_count() == 1 << 19 for m in masks)


def test_only_atom_masks_are_cached_and_at_most_n_per_table_size():
    assert not hasattr(truth_mask, "cache_info")
    _atom_mask.cache_clear()
    sizes = (3, 4)
    for n in sizes:
        table = SymbolTable([f"p{i}" for i in range(n)])
        f = Atom("p0")
        for i in range(200):
            f = (f & Atom(f"p{i % n}")) if i % 2 else (f | ~Atom(f"p{(i * 7) % n}"))
            truth_mask(f, table)
    assert _atom_mask.cache_info().currsize <= sum(sizes)


def test_full_mask_is_built_once_per_table():
    for n in (1, 3, 16):
        table = SymbolTable([f"p{i}" for i in range(n)])
        assert table.full_mask == (1 << (1 << n)) - 1
        assert truth_mask(Top(), table) is table.full_mask


def test_wide_table_builds_no_mask_until_read():
    # the cap is checked before any 2^n-bit mask, which at 64 names would overflow
    with pytest.raises(ValueError) as info:
        SymbolTable([f"p{i}" for i in range(64)])
    assert str(info.value) == "64 symbols exceeds the enumeration cap of 20"


def test_symbol_cap():
    with pytest.raises(ValueError) as info:
        SymbolTable([f"p{i}" for i in range(21)])
    assert str(info.value) == "21 symbols exceeds the enumeration cap of 20"
    assert SymbolTable([f"p{i}" for i in range(20)]).full_mask == (1 << 2**20) - 1


def test_truth_mask_rejects_non_formulas():
    # evaluate and render walk the same nodes and refuse them alike
    for bad in ("a", None, And(Atom("a"), "b")):
        with pytest.raises(TypeError, match="not a formula"):
            truth_mask(bad, _TABLE)
        with pytest.raises(TypeError, match="not a formula"):
            evaluate(bad, _TABLE.valuation(0))
        with pytest.raises(TypeError, match="not a formula"):
            render(bad)


def test_one_atom_object_per_name_within_a_parse():
    f = parse_formula("a & (b | a) -> a", _TABLE)
    assert f.left.left is f.left.right.right is f.right


def test_deep_parentheses_parse_without_recursion():
    assert parse_formula("(" * 100_000 + "a" + ")" * 100_000) == Atom("a")


def test_deep_chain_compiles_without_recursion():
    table = SymbolTable(["a", "b"])
    f = Atom("a")
    for _ in range(10_000):
        f = Not(And(f, Atom("b")))
    # two levels take g to ~(~(g & b) & b), which is g | ~b
    assert truth_mask(f, table) == truth_mask(Or(Atom("a"), Not(Atom("b"))), table)


# Under a recursion limit of 250, a walk that recursed would fail at any depth
# past it; each chain must match its one-level equivalent.
_DEEP_WALKS = """
import sys
from bayent.formula import SymbolTable, atoms, evaluate, parse_formula, render, truth_mask

sys.setrecursionlimit(250)
table = SymbolTable(["a", "b"])
chains = [
    ("~" * 100_000 + "a", "a"),
    ("a" + " & b" * 100_000, "a & b"),
    ("a -> " * 100_000 + "b", "a -> b"),
]
for text, shallow in chains:
    deep, flat = parse_formula(text, table), parse_formula(shallow, table)
    assert render(deep) == text
    assert atoms(deep) == atoms(flat)
    assert truth_mask(deep, table) == truth_mask(flat, table)
    for v in table.valuations():
        assert evaluate(deep, v) == evaluate(flat, v)
"""


def test_every_walk_takes_100000_levels_under_a_low_recursion_limit():
    src = str(Path(bayent.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_WALKS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@settings(max_examples=300)
@given(formulas(depth=12), valuations)
def test_walks_match_the_recursive_render_and_evaluate(f, v):
    assert render(f) == old_render(f)
    assert evaluate(f, v) == old_evaluate(f, v)


# --- the explicit-stack front end against the recursive one ------------

_BINARY_TOKEN = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_SOUP = [
    "a", "b", "c", "zz", "true", "false", "~", "!", "&", "|", "->", "<->",
    "(", ")", "$", "1", "_", "A", "<", "-", ">", "\u00e9", "<end>",
]
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n", "\u00a0"])


def _outcome(parse, text, table):
    try:
        return parse(text, table)
    except FormulaError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _assert_same_as_recursive(text, table):
    new = _outcome(parse_formula, text, table)
    assert new == _outcome(old_parse_formula, text, table)
    if isinstance(new, Formula) and table is not None:
        assert truth_mask(new, table) == old_truth_mask(new, table)


def _fully_parenthesised(f):
    if isinstance(f, Not):
        return f"(~{_fully_parenthesised(f.arg)})"
    if type(f) in _BINARY_TOKEN:
        left, right = _fully_parenthesised(f.left), _fully_parenthesised(f.right)
        return f"({left} {_BINARY_TOKEN[type(f)]} {right})"
    return render(f)


def _respace(data, text):
    """text's tokens, each ~ possibly as !, joined by drawn whitespace."""
    out = data.draw(_SPACE)
    for tok, _ in _tokenize(text)[:-1]:
        if tok == "~" and data.draw(st.booleans()):
            tok = "!"
        out += tok + data.draw(_SPACE)
    return out


@given(formulas(), st.booleans(), st.data())
def test_parse_matches_recursive_parser_on_rendered_formulas(f, full, data):
    text = _respace(data, _fully_parenthesised(f) if full else render(f))
    assert parse_formula(text, _TABLE) == f
    _assert_same_as_recursive(text, _TABLE)


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from(_SOUP), max_size=12),
    st.data(),
    st.sampled_from([_TABLE, None]),
)
def test_parse_matches_recursive_parser_on_token_soup(tokens, data, table):
    text = "".join(tok + data.draw(_SPACE) for tok in tokens)
    _assert_same_as_recursive(text, table)


@given(st.text(alphabet="abz()~!&|-<>$ \t", max_size=16))
def test_parse_matches_recursive_parser_on_raw_text(text):
    _assert_same_as_recursive(text, _TABLE)
