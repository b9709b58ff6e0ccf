import json
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bayent import (
    SymbolTable,
    UNDEFINED,
    WorldError,
    WorldModel,
    evaluate,
    map_oracle,
    map_set,
    parse_formula,
    parse_rational,
    random_world,
    uniform_world,
    world_from_dict,
    world_from_text,
    world_to_dict,
)
from bayent import worlds
from bayent.worlds import MAX_EXPONENT, _indices, exact, premise_mask

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
            WorldModel(t, [Fraction(1, 2), Fraction(1, 3)])

    def test_zero_entries_allowed(self):
        t = SymbolTable(["a"])
        model = WorldModel(t, [1, 0])
        assert model.probs == (Fraction(1), Fraction(0))

    def test_negative_rejected(self):
        t = SymbolTable(["a"])
        with pytest.raises(WorldError, match="negative"):
            WorldModel(t, [Fraction(3, 2), Fraction(-1, 2)])

    def test_wrong_length(self, ab):
        with pytest.raises(WorldError, match="4"):
            WorldModel(ab, [1])

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [Fraction(1, 2), 0.5]])
    def test_floats_rejected(self, probs):
        with pytest.raises(TypeError, match="float"):
            WorldModel(SymbolTable(["a"]), probs)

    def test_symbol_cap(self):
        # the table refuses 21 names; the loader reports it as a bad world
        body = {"symbols": [f"s{i}" for i in range(21)], "worlds": []}
        with pytest.raises(WorldError) as info:
            world_from_dict(body)
        assert str(info.value) == "21 symbols exceeds the enumeration cap of 20"
        with pytest.raises(WorldError) as info:
            world_from_text(json.dumps(body))
        assert str(info.value) == "21 symbols exceeds the enumeration cap of 20"


class TestQueries:
    def test_premise_mask(self, ab, f):
        assert premise_mask({f("a|~b"), f("~a|b")}, ab) == 0b1001  # the (0,0) and (1,1) rows
        assert premise_mask({f("a & ~a")}, ab) == 0
        assert premise_mask(set(), ab) == ab.full_mask

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


# --- bit planes against per-valuation brute force ----------------------

# zero, 1-bit, 8-bit, 9-bit and wider-than-64-bit weights
WEIGHTS = st.one_of(
    st.just(0),
    st.integers(0, 1),
    st.integers(0, 255),
    st.integers(256, 511),
    st.integers(2**64, 2**72),
)


@st.composite
def integer_worlds(draw, n=None):
    """A model over symbols a, b, ... whose weights mix every width, with ties."""
    n = n or draw(st.integers(1, 8))
    size = 1 << n
    pool = draw(st.lists(WEIGHTS, min_size=1, max_size=3))
    raw = draw(
        st.lists(st.sampled_from(pool) | WEIGHTS, min_size=size, max_size=size).filter(any)
    )
    den = draw(st.sampled_from([sum(raw), max(sum(raw), 2**70)]))
    raw[0] += den - sum(raw)
    table = SymbolTable("abcdefgh"[:n])
    return WorldModel(table, [Fraction(w, den) for w in raw])


def masks_of(model):
    return st.integers(0, (1 << len(model.weights)) - 1)


def brute_weight(model, mask):
    return sum(w for i, w in enumerate(model.weights) if (mask >> i) & 1)


@given(integer_worlds())
def test_planes_reassemble_every_weight(model):
    assert len(model.planes) == max(model.weights).bit_length()
    for i, w in enumerate(model.weights):
        assert sum(((plane >> i) & 1) << b for b, plane in enumerate(model.planes)) == w


@given(integer_worlds())
def test_support_mask_is_the_mask_of_nonzero_weights(model):
    assert model.support_mask == sum(1 << i for i, w in enumerate(model.weights) if w)


@given(integer_worlds(), st.data())
def test_weight_equals_brute_force_sum(model, data):
    for mask in data.draw(st.lists(masks_of(model), min_size=1, max_size=4)):
        assert model.weight(mask) == brute_weight(model, mask)
        assert model.mass(mask) == Fraction(brute_weight(model, mask), model.den)


# --- the one validated (weights, den) constructor ------------------------


@st.composite
def unreduced_weights(draw):
    """(table, weights, den): weights of every width over 1 to 6 symbols, summing to
    den, all times a common factor, so gcd(den, *weights) is rarely 1."""
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(WEIGHTS, min_size=1 << n, max_size=1 << n).filter(any))
    scale = draw(st.sampled_from([1, 2, 6, 2**70]) | st.integers(1, 10**6))
    return SymbolTable("abcdef"[:n]), [w * scale for w in raw], sum(raw) * scale


@given(unreduced_weights())
def test_from_weights_equals_the_fraction_model(case):
    table, weights, den = case
    model = WorldModel.from_weights(table, weights, den)
    expected = WorldModel(table, [Fraction(w, den) for w in weights])
    assert model == expected
    assert (model.planes, model.support_mask) == (expected.planes, expected.support_mask)
    assert repr(model) == repr(expected)
    assert gcd(model.den, *model.weights) == 1


@pytest.mark.parametrize(
    "weights, den, message",
    [
        ([1], 1, "need 2 probabilities, got 1"),
        ([2, -1], 1, "negative probability -1 at valuation index 1"),
        ([4, -2], 2, "negative probability -1 at valuation index 1"),
        ([1, 2], 4, "probabilities sum to 3/4, off by 1/4"),
    ],
)
def test_from_weights_refuses_what_the_fraction_model_refuses(weights, den, message):
    table = SymbolTable(["a"])
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(WorldError, match=pattern):
        WorldModel.from_weights(table, weights, den)
    with pytest.raises(WorldError, match=pattern):
        WorldModel(table, [Fraction(w, den) for w in weights])


@given(integer_worlds(n=3), st.lists(formulas(), max_size=2))
def test_posterior_equals_the_fraction_model(model, delta_list):
    delta = frozenset(delta_list)
    dmask = premise_mask(delta, model.table)
    kept = model.weight(dmask)
    posterior = model.posterior(delta)
    if kept == 0:
        assert posterior is UNDEFINED
        return
    probs = [Fraction(w * (dmask >> i & 1), kept) for i, w in enumerate(model.weights)]
    assert posterior == WorldModel(model.table, probs)
    assert repr(posterior) == repr(WorldModel(model.table, probs))


@given(st.integers(1, 8), seeds, zero_fractions)
def test_uniform_and_random_worlds_equal_their_fraction_models(n, seed, zf):
    table = SymbolTable([f"p{i}" for i in range(n)])
    size = table.num_valuations
    assert uniform_world(table) == WorldModel(table, [Fraction(1, size)] * size)
    rng = random.Random(seed)  # random_world's draws, as a list of Fractions
    weights = [0 if rng.random() < zf else rng.randint(1, 10_000) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    expected = WorldModel(table, [Fraction(w, sum(weights)) for w in weights])
    assert random_world(table, seed, zf) == expected


def test_integer_paths_build_no_fraction():
    """posterior, uniform_world and the text pass reach the model without a Fraction."""
    table = SymbolTable([f"p{i}" for i in range(10)])
    model = random_world(table, 5, Fraction(1, 4))
    text = json.dumps(world_to_dict(model))
    expected = model.posterior({parse_formula("p0 | ~p3", table)})
    with mock.patch.object(worlds, "Fraction", side_effect=AssertionError("Fraction built")):
        assert model.posterior({parse_formula("p0 | ~p3", table)}) == expected
        assert uniform_world(table).den == table.num_valuations
        assert world_from_text(text) == model


# --- the text pass against json.loads and the row loop -------------------


def loaded(data):
    """(den, weights) of world_from_dict(data), or the text of its WorldError."""
    try:
        model = world_from_dict(data)
    except WorldError as exc:
        return str(exc)
    return model.den, model.weights


def loaded_text(text):
    """(den, weights) of world_from_text(text), or the text of its WorldError or
    JSON error."""
    try:
        model = world_from_text(text)
    except (WorldError, json.JSONDecodeError) as exc:
        return str(exc)
    return model.den, model.weights


def loaded_via_json(text):
    """loaded(json.loads(text)), or the text of the JSON error."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    return loaded(data)


def _raise(*args):
    raise AssertionError("the text pass left a world_to_dict text to world_from_dict")


def by_text_pass(text):
    """loaded_text(text) with world_from_dict turned off, so only the text pass reads it."""
    with mock.patch.object(worlds, "world_from_dict", _raise):
        return loaded_text(text)


def one_symbol_world(prob, rest):
    return {
        "symbols": ["a"],
        "worlds": [
            {"assignment": {"a": 0}, "prob": prob},
            {"assignment": {"a": 1}, "prob": rest},
        ],
    }


TRICKY_RATIONALS = [
    "2/4", "0/7", "007/014", "3", "0", " 1/2 ", "+1/2", "-1/2", "-0/3", "1/0",
    "1/00", "0.25", "1e-2", "1_0/3", "½", "١/٢", "1//2", "", "9" * 5000 + "/3",
    "1 /2", "1/ 2",  # int() reads "1 " and " 2"; Fraction refuses both
    "1e4300", "1e5000", "-1e-5000", "1e100000000", "1E+1_0000_0000",
]
# Fraction would build 10^e for these; parse_rational refuses them first
PAST_MAX_EXPONENT = {"1e5000", "-1e-5000", "1e100000000", "1E+1_0000_0000"}
DIGIT_STRING = re.compile(r"[0-9]+(/[0-9]+)?")


@pytest.mark.parametrize("text", TRICKY_RATIONALS)
def test_ratio_fast_path_agrees_with_parse_rational(text):
    """The row loop reads a prob as Fraction(str(prob)) does, and refuses what it
    refuses, what has a '_' (which Fraction reads as a digit separator from Python
    3.11 on) or what has an exponent past MAX_EXPONENT; the text pass, which reads
    plain digit strings, gives the same model or error."""
    try:
        refused = text in PAST_MAX_EXPONENT or "_" in text
        value = None if refused else Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None:
        with pytest.raises(WorldError) as slow:
            parse_rational(text)
        data = one_symbol_world(text, "1")
        assert loaded(data) == loaded_text(json.dumps(data)) == str(slow.value)
        return
    rest = str(1 - value) if 0 <= value <= 1 else "0"
    data = one_symbol_world(text, rest)
    assert loaded(data) == loaded_text(json.dumps(data))
    if DIGIT_STRING.fullmatch(text) and len(text) < 4300:
        assert by_text_pass(json.dumps(data)) == loaded(data)
    if 0 <= value <= 1:
        expected = WorldModel(SymbolTable(["a"]), [value, 1 - value])
        assert loaded(data) == (expected.den, expected.weights)


@given(st.integers(0, 10**30), st.integers(1, 10**30), st.integers(1, 10**6))
def test_ratio_of_digit_strings_is_in_lowest_terms(p, q, k):
    """Probs k·p/k·q, not in lowest terms, load as p/q through the row loop and the
    text pass alike: the model's constructor divides out the common factor."""
    low, high = sorted((p, q))
    value = Fraction(low, high)
    data = one_symbol_world(f"{k * low}/{k * high}", f"{k * (high - low)}/{k * high}")
    expected = WorldModel(SymbolTable(["a"]), [value, 1 - value])
    assert loaded(data) == by_text_pass(json.dumps(data)) == (expected.den, expected.weights)


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "-1e4300", "1e101", "-1e-101"])
def test_errors_name_results_too_long_to_print(text):
    """A sum or a negative prob of more than 100 digits is reported by its sign and size."""
    said = "negative probability a negative" if text.startswith("-") else "sum to a"
    with pytest.raises(WorldError, match=rf"{said} ratio of \d+-bit"):
        world_from_dict(one_symbol_world(text, "0"))


@pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["10^5000", "-10^5000"])
def test_int_past_the_digit_limit_is_named_by_its_size(value):
    # str() of the int raises, and so would the repr() in the error message
    message = "^cannot parse a 16610-bit int as an exact rational: Exceeds the limit"
    with pytest.raises(WorldError, match=message):
        parse_rational(value)


@pytest.mark.parametrize(
    "value, shown",
    [
        ("x" * 98, repr("x" * 98)),
        ("x" * 99, "a 99-character str"),
        (["1"] * 30, "a 150-character list"),
    ],
    ids=["98 characters", "99 characters", "list"],
)
def test_value_over_100_characters_is_named_by_its_length(value, shown):
    # past 100 characters of repr(), Fraction's message would quote the value a
    # second time, or count its digits
    with pytest.raises(WorldError) as info:
        parse_rational(value)
    assert str(info.value).startswith(f"cannot parse {shown} as an exact rational")


@pytest.mark.parametrize("value", ["1e100000000", "-1e-5000", "1E+4301", "1e0004301"])
def test_exponent_past_the_limit_is_refused_before_it_is_built(value):
    with pytest.raises(ValueError, match=f"is above {MAX_EXPONENT}"):
        exact(value)
    with pytest.raises(WorldError, match=f"is above {MAX_EXPONENT}"):
        parse_rational(value)
    with pytest.raises(ValueError, match=f"is above {MAX_EXPONENT}"):
        WorldModel(SymbolTable(["a"]), [value, 0])
    assert exact("1e4300") == parse_rational("1e4300") == 10**MAX_EXPONENT
    assert exact("1e-4300") == Fraction(1, 10**MAX_EXPONENT)


@given(
    exact_probs(8),
    st.lists(st.booleans(), min_size=24, max_size=24),
    st.lists(st.integers(1, 6), min_size=8, max_size=8),
    st.randoms(use_true_random=False),
)
def test_loader_matches_fraction_model(probs, as_bool, scales, rng):
    """Shuffled rows, true/false bits and unnormalised 'p/q' strings load exactly."""
    rows = []
    for v in _TABLE.valuations():
        names = list(_TABLE.symbols)
        rng.shuffle(names)
        flags = iter(as_bool[3 * v.index:])
        bits = {k: bool(v.value(k)) if next(flags) else v.value(k) for k in names}
        p, scale = probs[v.index], scales[v.index]
        prob = f"{p.numerator * scale}/{p.denominator * scale}"
        rows.append({"assignment": bits, "prob": prob})
    rng.shuffle(rows)
    loaded = world_from_dict({"symbols": list(_TABLE.symbols), "worlds": rows})
    expected = WorldModel(_TABLE, probs)
    assert loaded == expected
    assert loaded.support_mask == expected.support_mask


def test_round_trip_at_n10():
    model = random_world(SymbolTable([f"p{i}" for i in range(10)]), 3, Fraction(1, 4))
    assert world_from_dict(json.loads(json.dumps(world_to_dict(model)))) == model
    assert by_text_pass(json.dumps(world_to_dict(model))) == (model.den, model.weights)


def test_loader_refuses_too_many_symbols_before_allocating():
    data = {"symbols": [f"p{i}" for i in range(21)], "worlds": []}
    with pytest.raises(WorldError, match="cap of 20"):
        world_from_dict(data)
    with pytest.raises(WorldError, match="cap of 20"):
        world_from_text(json.dumps(data))


@pytest.mark.parametrize(
    "assignment, message",
    [
        ({"a": 0}, "missing symbols"),
        ({"a": 0, "b": 1, "z": 0}, "unknown atom 'z'"),
        ({"a": 2, "b": 1}, "must be 0 or 1"),
        ({"a": [0], "b": 1}, "must be 0 or 1"),
        ([1], "missing symbols"),
        (5, "not iterable"),
    ],
)
def test_loader_keeps_row_messages(assignment, message):
    data = {"symbols": ["a", "b"], "worlds": [{"assignment": assignment, "prob": "1"}]}
    with pytest.raises(WorldError, match=message):
        world_from_dict(data)


@pytest.mark.parametrize(
    "bits, probs, message",
    [
        ((0, 1), (0.1, 0.9), "cannot parse 0.1 as an exact rational: a float is not exact"),
        ((0, 1), ("1/10", 0.9), "cannot parse 0.9 as an exact rational"),
        ((0, 1.0), ("1/10", "9/10"), "truth value for 'a' must be 0 or 1"),
        ((0.0, 1), ("1/10", "9/10"), "truth value for 'a' must be 0 or 1"),
    ],
)
def test_floats_refused(bits, probs, message):
    data = {
        "symbols": ["a"],
        "worlds": [{"assignment": {"a": b}, "prob": p} for b, p in zip(bits, probs)],
    }
    with pytest.raises(WorldError, match=message):
        world_from_dict(data)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        SymbolTable(["a"]).index_of({"a": 1.0})


def test_int_and_boolean_values_accepted():
    data = one_symbol_world(1, 0)
    data["worlds"][1]["assignment"]["a"] = True
    assert world_from_dict(data) == WorldModel(SymbolTable(["a"]), [1, 0])


@pytest.mark.parametrize("symbols", ["ab", {"a": 0, "b": 1}, None, 2])
def test_symbols_must_be_a_list(symbols):
    data = world_to_dict(uniform_world(SymbolTable(["a", "b"])))
    data["symbols"] = symbols
    with pytest.raises(WorldError, match="'symbols' must be a list of names"):
        world_from_dict(data)
    assert loaded(data) == loaded_text(json.dumps(data))


def test_symbols_may_be_a_tuple():
    data = world_to_dict(uniform_world(SymbolTable(["a", "b"])))
    data["symbols"] = ("a", "b")
    assert world_from_dict(data) == uniform_world(SymbolTable(["a", "b"]))


def _drop_key(assignment):
    del assignment[next(iter(assignment))]


def _set_first(assignment, value):
    assignment[next(iter(assignment))] = value


# Each perturbation changes row r of a world_to_dict file (s is a second row).
PERTURBATIONS = {
    "none": lambda rows, r, s: None,
    "rows swapped": lambda rows, r, s: rows.insert(s, rows.pop(r)),
    "booleans": lambda rows, r, s: rows[r].update(
        assignment={k: bool(v) for k, v in rows[r]["assignment"].items()}
    ),
    "keys reordered": lambda rows, r, s: rows[r].update(
        assignment=dict(reversed(rows[r]["assignment"].items()))
    ),
    "key missing": lambda rows, r, s: _drop_key(rows[r]["assignment"]),
    "key extra": lambda rows, r, s: rows[r]["assignment"].update(zz=0),
    "value 2": lambda rows, r, s: _set_first(rows[r]["assignment"], 2),
    'value "1"': lambda rows, r, s: _set_first(rows[r]["assignment"], "1"),
    "value 1.0": lambda rows, r, s: _set_first(rows[r]["assignment"], 1.0),
    'prob "1/0"': lambda rows, r, s: rows[r].update(prob="1/0"),
    'prob "0.5"': lambda rows, r, s: rows[r].update(prob="0.5"),
    "prob of 5,000 digits": lambda rows, r, s: rows[r].update(prob="1" + "0" * 4999),
    "prob int 1": lambda rows, r, s: rows[r].update(prob=1),
    "prob float": lambda rows, r, s: rows[r].update(prob=0.5),
    "duplicate row": lambda rows, r, s: rows.__setitem__(s, json.loads(json.dumps(rows[r]))),
    "one row short": lambda rows, r, s: rows.pop(r),
}


def _nth(text, old, new, k):
    """text with the k-th occurrence of old (counted cyclically) replaced by new."""
    starts = [m.start() for m in re.finditer(re.escape(old), text)]
    if not starts:
        return text
    at = starts[k % len(starts)]
    return text[:at] + new + text[at + len(old):]


def _prob_edit(edit):
    """A text perturbation that rewrites the k-th "p/q" prob string as edit(p, q)."""
    def perturb(text, k):
        found = list(re.finditer(r'"prob": "([0-9]+)(?:/([0-9]+))?"', text))
        m = found[k % len(found)]
        new = f'"prob": "{edit(int(m[1]), int(m[2] or 1))}"'
        return text[:m.start()] + new + text[m.end():]
    return perturb


def _dumped_with(text, **options):
    return json.dumps(json.loads(text), **options)


def _rows_reversed_keys(text):
    data = json.loads(text)
    data["worlds"] = [dict(reversed(row.items())) for row in data["worlds"]]
    return json.dumps(data)


def _too_many_symbols(text):
    data = json.loads(text)
    data["symbols"] = [f"p{i}" for i in range(21)]
    return json.dumps(data)


# Each perturbation edits a world_to_dict text at (or near) its k-th match or character.
TEXT_PERTURBATIONS = {
    "indent": lambda t, k: _dumped_with(t, indent=1),
    "compact separators": lambda t, k: _dumped_with(t, separators=(",", ":")),
    "space inserted": lambda t, k: t[:k % len(t)] + " " + t[k % len(t):],
    "leading space": lambda t, k: " " + t,
    "trailing newline": lambda t, k: t + "\n",
    "trailing spaces": lambda t, k: t + " \t\r\n ",
    "trailing garbage": lambda t, k: t + "x",
    "key after worlds": lambda t, k: t[:-1] + ', "note": 1}',
    "key order": lambda t, k: _rows_reversed_keys(t),
    "escaped name": lambda t, k: _nth(t, '"p', '"\\u0070', k),
    "escaped key": lambda t, k: _nth(t, '"prob"', '"\\u0070rob"', k),
    "boolean": lambda t, k: _nth(t, ": 1", ": true", k),
    "duplicate key": lambda t, k: _nth(t, '{"p0": ', '{"p0": 1, "p0": ', k),
    "duplicate prob": lambda t, k: _nth(t, '"prob": ', '"prob": "9", "prob": ', k),
    "prob 2/4": _prob_edit(lambda p, q: f"{2 * p}/{2 * q}"),
    "prob leading zero": _prob_edit(lambda p, q: f"0{p}/{q}"),
    "prob 1/0": _prob_edit(lambda p, q: "1/0"),
    "prob of 5,000 digits": _prob_edit(lambda p, q: "1" + "0" * 4999),
    "negative prob": _prob_edit(lambda p, q: f"-{p}/{q}"),
    "sum above 1": _prob_edit(lambda p, q: f"{p + 1}/{q}"),
    "21 symbols": lambda t, k: _too_many_symbols(t),
    "truncated": lambda t, k: t[:k % len(t)],
    "character replaced": lambda t, k: t[:k % len(t)] + "0" + t[k % len(t) + 1:],
}
# the perturbations after which json.dump(world_to_dict(...)) could still have written
# the text, JSON whitespace after it allowed
TEXT_PASS = {"none", "trailing newline", "trailing spaces", "prob 2/4", "prob leading zero",
             "sum above 1"}
# the perturbations after which the text is still the same world
SAME_WORLD = {"none", "booleans", "keys reordered", "indent", "compact separators",
              "leading space", "trailing newline", "trailing spaces", "key order",
              "escaped name", "escaped key", "boolean", "duplicate key", "prob 2/4",
              "prob leading zero", "key after worlds"}


@st.composite
def perturbed_world_texts(draw):
    """A random world over 1 to 8 symbols, dumped as json.dump does, then perturbed
    as a dict (PERTURBATIONS) or as text (TEXT_PERTURBATIONS)."""
    table = SymbolTable([f"p{i}" for i in range(draw(st.integers(1, 8)))])
    model = random_world(table, draw(seeds), draw(zero_fractions))
    data = world_to_dict(model)
    kind = draw(st.sampled_from(sorted(PERTURBATIONS) + sorted(TEXT_PERTURBATIONS)))
    k = draw(st.integers(0, 10**6))
    if kind in PERTURBATIONS:
        rows = data["worlds"]
        PERTURBATIONS[kind](rows, k % len(rows), draw(st.integers(0, len(rows) - 1)))
        return model, json.dumps(data), kind
    return model, TEXT_PERTURBATIONS[kind](json.dumps(data), k), kind


@given(perturbed_world_texts())
def test_text_pass_agrees_with_the_row_loop(case):
    model, text, kind = case
    expected = loaded_via_json(text)
    assert loaded_text(text) == expected
    if kind in TEXT_PASS:
        assert by_text_pass(text) == expected
    if kind in SAME_WORLD:
        assert expected == (model.den, model.weights)


def test_text_pass_leaves_a_key_after_the_rows_to_the_row_loop():
    model = random_world(SymbolTable(["a", "b"]), 3, 0)
    text = TEXT_PERTURBATIONS["key after worlds"](json.dumps(world_to_dict(model)), 0)
    assert worlds._text_model(text) is None
    assert world_from_text(text) == model


def test_text_pass_refuses_a_text_one_row_short():
    # the rows it has match the rebuilt ones, so only the count check refuses it
    text = json.dumps({"symbols": ["p0"], "worlds": [{"assignment": {"p0": 0}, "prob": "1"}]})
    assert worlds._text_model(text) is None
    with pytest.raises(WorldError) as info:
        world_from_text(text)
    assert str(info.value) == "missing 1 assignments, e.g. {'p0': 1}"


def test_text_pass_refuses_a_text_with_its_last_row_repeated():
    data = world_to_dict(random_world(SymbolTable(["a", "b"]), 3, 0))
    data["worlds"].append(data["worlds"][-1])
    text = json.dumps(data)
    assert worlds._text_model(text) is None
    with pytest.raises(WorldError) as info:
        world_from_text(text)
    assert str(info.value) == "assignment {'a': 1, 'b': 1} appears twice"


def _n14_world():
    """2^14 rows in index order with probs 'w/total', w <= 8: the form the
    benchmark writes, as a dict, and the model it holds."""
    table = SymbolTable([f"p{i}" for i in range(14)])
    rng = random.Random(14)
    weights = [rng.choice([0, *range(1, 9)]) for _ in range(table.num_valuations)]
    total = sum(weights)
    data = {
        "symbols": list(table.symbols),
        "worlds": [
            {"assignment": table.assignment(i), "prob": f"{w}/{total}"}
            for i, w in enumerate(weights)
        ],
    }
    return data, WorldModel(table, [Fraction(w, total) for w in weights])


def traced_peak(load, arg):
    """(result, peak bytes that tracemalloc sees while load(arg) runs)."""
    tracemalloc.start()
    try:
        result = load(arg)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_loop_stays_within_two_mib_at_n14():
    data, expected = _n14_world()
    model, peak = traced_peak(world_from_dict, data)
    assert peak <= 2 * 2**20
    assert model == expected


def test_text_pass_peak_at_n14_is_below_json_loads():
    """The text pass holds the probs and one row of text, not a dict per row:
    about 3 MiB, against 12 MiB for json.loads and world_from_dict. The file
    text itself is made before tracing starts."""
    data, expected = _n14_world()
    text = json.dumps(data)
    del data
    with mock.patch.object(worlds, "world_from_dict", _raise):
        model, peak = traced_peak(world_from_text, text)
    assert model == expected
    assert peak <= 4 * 2**20
    _, loads_peak = traced_peak(lambda t: world_from_dict(json.loads(t)), text)
    assert peak < loads_peak / 2


def test_fraction_argument_is_kept():
    p = Fraction(1, 3)
    assert exact(p) is p


# --- set-bit indices against brute force ---------------------------------

WIDTHS = (1, 8, 255, 256, 257, 4096, 1 << 16, (1 << 16) + 9, 1 << 17)


@st.composite
def wide_masks(draw):
    """Masks up to 2^17 bits wide: zero, the top bit alone, sparse sets, and
    random masks of density 3/4 down to 1/128."""
    width = draw(st.sampled_from(WIDTHS))
    kind = draw(st.sampled_from(["zero", "top", "sparse", "dense"]))
    if kind == "zero":
        return 0
    if kind == "top":
        return 1 << (width - 1)
    if kind == "sparse":
        mask = 0
        for i in draw(st.lists(st.integers(0, width - 1), max_size=40)):
            mask |= 1 << i
        return mask
    rng = random.Random(draw(st.integers(0, 2**32)))
    mask = rng.getrandbits(width)
    if draw(st.booleans()):
        return mask | rng.getrandbits(width)
    for _ in range(draw(st.integers(0, 6))):
        mask &= rng.getrandbits(width)
    return mask


def _spread(width, count):
    """A mask of bit length width with count set bits about evenly spaced."""
    return sum(1 << (width - 1 - k * width // count) for k in range(count))


@given(wide_masks())
@example(0)
@example(1)
@example(1 << 65535)
@example(1 << (1 << 17))
@example((1 << 65536) - 1)
# _indices changes scan at one set bit in 16: at it, and one bit either side
@example(_spread(128, 7))
@example(_spread(128, 8))
@example(_spread(128, 9))
@example(_spread(1 << 14, (1 << 10) - 1))
@example(_spread(1 << 14, 1 << 10))
@example(_spread(1 << 14, (1 << 10) + 1))
@example(_spread(1 << 16, (1 << 12) - 1))
@example(_spread(1 << 16, 1 << 12))
@example(_spread(1 << 16, (1 << 12) + 1))
def test_indices_equal_brute_force(mask):
    expected = [i for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]
    assert _indices(mask) == expected
