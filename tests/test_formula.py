import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bayent.formula import _atom_mask, truth_mask


class TestSymbolTable:
    def test_order_and_lookup(self):
        t = SymbolTable(["a", "b", "c"])
        assert t.position("a") == 0
        assert t.position("c") == 2
        assert len(t) == 3
        assert t.num_valuations == 8

    @pytest.mark.parametrize("bad", [["A"], ["1a"], ["a", "a"], [""], []])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ValueError):
            SymbolTable(bad)

    def test_first_symbol_is_most_significant(self):
        t = SymbolTable(["a", "b"])
        # index order walks the truth table: (0,0), (0,1), (1,0), (1,1)
        assert [v.bits for v in t.valuations()] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_assignment_round_trip(self):
        t = SymbolTable(["a", "b"])
        v = t.valuation_from_assignment({"a": 1, "b": 0})
        assert v.index == 2
        assert v.assignment() == {"a": 1, "b": 0}

    def test_assignment_must_cover_all_symbols(self):
        t = SymbolTable(["a", "b"])
        with pytest.raises(ValueError):
            t.valuation_from_assignment({"a": 1})
        with pytest.raises(UnknownAtomError):
            t.valuation_from_assignment({"a": 1, "b": 0, "c": 1})


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
