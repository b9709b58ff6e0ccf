import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayent import (
    SymbolTable,
    UNDEFINED,
    WorldError,
    WorldModel,
    evaluate,
    make_world,
    map_oracle,
    map_set,
    parse_formula,
    parse_rational,
    premises,
    random_world,
    uniform_world,
    world_from_dict,
    world_to_dict,
)
from bayent.worlds import premise_mask

from test_formula import formulas, _TABLE


class TestMakeWorld:
    def test_accepts_valid(self, ab, table1_world):
        assert table1_world.probs == (
            Fraction(1, 2),
            Fraction(1, 5),
            Fraction(0),
            Fraction(3, 10),
        )

    def test_sum_error_reports_deficit(self):
        t = SymbolTable(["a"])
        with pytest.raises(WorldError, match="5/6"):
            make_world(t, [Fraction(1, 2), Fraction(1, 3)])

    def test_zero_entries_allowed(self):
        t = SymbolTable(["a"])
        model = make_world(t, [1, 0])
        assert model.probs == (Fraction(1), Fraction(0))

    def test_negative_rejected(self):
        t = SymbolTable(["a"])
        with pytest.raises(WorldError, match="negative"):
            make_world(t, [Fraction(3, 2), Fraction(-1, 2)])

    def test_wrong_length(self, ab):
        with pytest.raises(WorldError, match="4"):
            make_world(ab, [1])

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [Fraction(1, 2), 0.5]])
    def test_floats_rejected(self, probs):
        with pytest.raises(TypeError, match="float"):
            make_world(SymbolTable(["a"]), probs)

    def test_symbol_cap(self):
        with pytest.raises(WorldError, match="cap"):
            t = SymbolTable([f"s{i}" for i in range(21)])
            make_world(t, [1] + [0] * (2**21 - 1))


class TestQueries:
    def test_models_of(self, table1_world, f):
        got = {v.index for v in table1_world.models_of({f("a|~b"), f("~a|b")})}
        assert got == {0, 3}  # the (0,0) and (1,1) rows
        assert table1_world.models_of({f("a & ~a")}) == set()
        assert len(table1_world.models_of(set())) == 4

    def test_prob(self, table1_world, f):
        assert table1_world.prob({f("a|~b")}) == Fraction(4, 5)
        assert table1_world.prob({f("~a|b")}) == 1
        assert table1_world.prob(set()) == 1

    def test_conditional(self, table1_world, f):
        d = {f("a|~b"), f("~a|b")}
        assert table1_world.conditional(f("~a"), d) == Fraction(5, 8)
        assert table1_world.conditional(f("b"), {f("a & ~a")}) is UNDEFINED

    def test_conditional_on_monotony_world(self, f):
        from bayent import monotony_counterexample_world

        w = monotony_counterexample_world(Fraction(4, 5))
        assert w.conditional(f("b"), {f("a")}) == Fraction(3, 4)

    def test_posterior(self, table1_world, f):
        post = table1_world.posterior({f("a|~b")})
        assert post.probs == (Fraction(5, 8), 0, 0, Fraction(3, 8))
        assert table1_world.posterior(set()).probs == table1_world.probs
        assert table1_world.posterior({f("a & ~a")}) is UNDEFINED

    def test_support(self, ab, table1_world):
        assert {v.index for v in table1_world.support()} == {0, 1, 3}
        assert len(uniform_world(ab).support()) == 4
        point = make_world(ab, [1, 0, 0, 0])
        assert {v.index for v in point.support()} == {0}

    def test_premises_dedupe(self, f):
        assert len(premises(f("a"), f("a"), f("b"))) == 2


class TestJson:
    def test_round_trip(self, table1_world):
        data = world_to_dict(table1_world)
        assert world_from_dict(json.loads(json.dumps(data))) == table1_world

    def test_decimal_strings_exact(self):
        data = {
            "symbols": ["a"],
            "worlds": [
                {"assignment": {"a": 0}, "prob": "0.7"},
                {"assignment": {"a": 1}, "prob": "3/10"},
            ],
        }
        model = world_from_dict(data)
        assert model.probs == (Fraction(7, 10), Fraction(3, 10))

    def test_duplicate_assignment_rejected(self):
        data = {
            "symbols": ["a"],
            "worlds": [
                {"assignment": {"a": 0}, "prob": "1/2"},
                {"assignment": {"a": 0}, "prob": "1/2"},
            ],
        }
        with pytest.raises(WorldError, match="twice"):
            world_from_dict(data)

    def test_missing_assignment_rejected(self):
        data = {
            "symbols": ["a"],
            "worlds": [{"assignment": {"a": 0}, "prob": "1"}],
        }
        with pytest.raises(WorldError, match="missing"):
            world_from_dict(data)

    def test_bad_rational(self):
        with pytest.raises(WorldError):
            parse_rational("one half")


# --- probability laws over random formulas and models ------------------

seeds = st.integers(min_value=0, max_value=10_000)
zero_fractions = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)])


def model_for(seed, zf):
    return random_world(_TABLE, seed, zf)


@given(formulas(), seeds, zero_fractions)
def test_complement_law(f, seed, zf):
    model = model_for(seed, zf)
    p = model.prob({f})
    assert 0 <= p <= 1
    assert model.prob({parse_formula(f"~({f})", _TABLE)}) == 1 - p


@given(formulas(), formulas(), seeds, zero_fractions)
def test_inclusion_exclusion(f, g, seed, zf):
    model = model_for(seed, zf)
    both = parse_formula(f"({f}) & ({g})", _TABLE)
    either = parse_formula(f"({f}) | ({g})", _TABLE)
    assert model.prob({either}) == model.prob({f}) + model.prob({g}) - model.prob(
        {both}
    )


@given(formulas(), st.lists(formulas(), max_size=3), seeds, zero_fractions)
def test_bayesian_update_decomposition(alpha, delta_list, seed, zf):
    # conditioning then predicting equals the direct conditional
    model = model_for(seed, zf)
    delta = frozenset(delta_list)
    cond = model.conditional(alpha, delta)
    post = model.posterior(delta)
    if cond is UNDEFINED:
        assert post is UNDEFINED
    else:
        assert cond == sum(
            evaluate(alpha, v) * post.probs[v.index] for v in _TABLE.valuations()
        )


@given(formulas(), st.lists(formulas(), max_size=3), seeds, zero_fractions)
def test_factorization_matches_joint_enumeration(alpha, delta_list, seed, zf):
    # independent oracle: walk every row of the full joint truth table
    model = model_for(seed, zf)
    delta = frozenset(delta_list)
    expected = Fraction(0)
    for v in _TABLE.valuations():
        term = model.probs[v.index] * evaluate(alpha, v)
        for beta in delta:
            term *= evaluate(beta, v)
        expected += term
    assert model.prob(delta | {alpha}) == expected


# --- integer kernel against Fraction brute force ------------------------


def exact_probs(size):
    """Probabilities over `size` valuations with mixed denominators and zeros."""
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=0, max_value=1, max_denominator=60),
    )
    return (
        st.lists(entry, min_size=size, max_size=size)
        .filter(any)
        .map(lambda raw: [x / sum(raw) for x in raw])
    )


@st.composite
def worlds_with_masks(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    size = 1 << n
    probs = draw(exact_probs(size))
    masks = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=1, max_size=5))
    return WorldModel(SymbolTable([f"p{i}" for i in range(n)]), probs), probs, masks


@given(worlds_with_masks())
def test_mass_equals_fraction_sum(case):
    model, probs, masks = case
    assert model.probs == tuple(probs)
    for mask in masks:
        expected = sum((p for i, p in enumerate(probs) if (mask >> i) & 1), Fraction(0))
        assert model.mass(mask) == expected


def _brute_map(probs, dmask):
    """Indices of the argmax of p over dmask; None when dmask has zero mass."""
    members = [i for i in range(len(probs)) if (dmask >> i) & 1]
    if sum(probs[i] for i in members) == 0:
        return None
    best = max(probs[i] for i in members)
    return {i for i in members if probs[i] == best}


@given(exact_probs(8), st.lists(formulas(), max_size=2), formulas())
def test_map_set_and_map_oracle_match_brute_force_argmax(probs, delta_list, alpha):
    model = WorldModel(_TABLE, probs)
    delta = frozenset(delta_list)
    dmask = premise_mask(delta, _TABLE)
    amask = sum(evaluate(alpha, v) << v.index for v in _TABLE.valuations())
    expected = _brute_map(probs, dmask)

    found = map_set(model, delta)
    assert (None if found is None else {v.index for v in found}) == expected

    universal = expected is None or all((amask >> i) & 1 for i in expected)
    existential = expected is None or any((amask >> i) & 1 for i in expected)
    assert map_oracle(model, "universal").mask_query(dmask, amask) == universal
    assert map_oracle(model, "existential").mask_query(dmask, amask) == existential
