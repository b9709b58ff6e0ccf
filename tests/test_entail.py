import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayent import (
    EXISTENTIAL,
    UNIVERSAL,
    PreferentialStructure,
    SymbolTable,
    TemporalModel,
    Verdict,
    WorldModel,
    bayes_entails,
    bayes_oracle,
    classical_entails,
    evaluate,
    filter_step,
    map_entails,
    map_oracle,
    map_set,
    monotony_counterexample_world,
    parse_premises,
    random_world,
    render,
    sticky_transition,
    uniform_world,
)

from bayent.entail import check_threshold, map_mask
from bayent.formula import And, Atom, Bottom, Not, Or, Top, Valuation
from bayent.worlds import premise_mask

from test_formula import formulas, _TABLE
from test_preferential import orders
from test_worlds import integer_worlds, masks_of


class TestVerdict:
    def test_vacuous_must_hold(self):
        with pytest.raises(ValueError):
            Verdict(holds=False, probability=None, vacuous=True)

    def test_probability_defined_iff_not_vacuous(self):
        with pytest.raises(ValueError):
            Verdict(holds=True, probability=Fraction(1), vacuous=True)
        with pytest.raises(ValueError):
            Verdict(holds=True, probability=None, vacuous=False)


def test_mask_backed_verdict_behaves_like_the_explicit_one(ab, f):
    model = WorldModel(ab, ["1/8", "1/8", "1/4", "1/2"])
    lazy = bayes_entails(model, set(), f("a & b"), 1)
    eager = Verdict(
        holds=False,
        probability=Fraction(1, 2),
        vacuous=False,
        witnesses=(ab.valuation(0), ab.valuation(1), ab.valuation(2)),
    )
    assert lazy.to_dict() == eager.to_dict()
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    assert repr(lazy) == repr(eager) == (
        "Verdict(holds=False, probability=Fraction(1, 2), vacuous=False, "
        "witnesses=(Valuation(a=0,b=0), Valuation(a=0,b=1), Valuation(a=1,b=0)))"
    )
    shorter = Verdict(False, Fraction(1, 2), False, eager.witnesses[:2])
    assert lazy != shorter and lazy.__eq__(eager.witnesses) is NotImplemented
    for twin in (copy.copy(lazy), copy.deepcopy(lazy), pickle.loads(pickle.dumps(lazy))):
        assert twin == lazy and twin.to_dict() == lazy.to_dict()
    for name in ("holds", "probability", "vacuous", "witnesses"):
        with pytest.raises(FrozenInstanceError):
            setattr(lazy, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(lazy, name)
    match lazy:
        case Verdict(holds, probability, vacuous, witnesses):
            assert (holds, probability, vacuous, witnesses) == (
                False, Fraction(1, 2), False, eager.witnesses
            )
    assert Verdict(True, None, True).witnesses == ()


def test_verdicts_build_no_valuation_until_witnesses_are_read(monkeypatch):
    table = SymbolTable(["a", "b", "c", "d"])
    model = uniform_world(table)
    delta = {Or(Atom("a"), Atom("b"))}
    alpha = And(Atom("c"), Atom("d"))
    built = []
    init = Valuation.__init__

    def counting_init(self, table, index):
        built.append(index)
        init(self, table, index)

    monkeypatch.setattr(Valuation, "__init__", counting_init)
    failing = bayes_entails(model, delta, alpha, Fraction(1, 2))
    tied = map_entails(model, delta, alpha)
    rows = failing.to_dict()["witnesses"] + tied.to_dict()["witnesses"]
    for oracle in (bayes_oracle(model, Fraction(1, 2)), map_oracle(model)):
        assert not oracle.query(delta, alpha)
        assert not oracle.monotonic_base(delta, alpha)
    assert built == [] and len(rows) == 9 + 12
    assert [v.index for v in failing.witnesses] == built == [4, 5, 6, 8, 9, 10, 12, 13, 14]
    assert failing.witnesses is failing.witnesses and len(built) == 9
    assert len(tied.witnesses) == 12 and len(built) == 21


class TestClassical:
    def test_modus_ponens(self, ab, f):
        assert classical_entails(ab, {f("a"), f("a -> b")}, f("b"))

    def test_tautology(self, ab, f):
        assert classical_entails(ab, set(), f("a | ~a"))

    def test_non_tautology(self, ab, f):
        assert not classical_entails(ab, set(), f("a | b"))


class TestBayes:
    def test_holds_at_one(self, table1_world, f):
        v = bayes_entails(table1_world, set(), f("~a | b"), 1)
        assert v.holds and v.probability == 1 and not v.vacuous

    def test_fails_below_threshold(self, f):
        w = monotony_counterexample_world(Fraction(4, 5))
        v = bayes_entails(w, {f("b")}, f("a"), Fraction(4, 5))
        assert not v.holds
        assert v.probability == Fraction(3, 4)

    def test_vacuous_on_zero_mass(self, table1_world, f):
        v = bayes_entails(table1_world, {f("a & ~a")}, f("b"), Fraction(1, 2))
        assert v.holds and v.vacuous and v.probability is None

    def test_countermodels_are_sound(self, f):
        w = monotony_counterexample_world(Fraction(4, 5))
        v = bayes_entails(w, {f("b")}, f("a"), Fraction(4, 5))
        assert v.witnesses
        for witness in v.witnesses:
            assert witness in support(w)
            assert evaluate(f("b"), witness) == 1
            assert evaluate(f("a"), witness) == 0

    def test_exact_threshold_boundary(self, f):
        # p(a) lands exactly on the threshold; >= must accept it
        w = monotony_counterexample_world(Fraction(4, 5))
        assert bayes_entails(w, set(), f("a"), Fraction(4, 5)).holds

    def test_float_threshold_rejected(self, table1_world, f):
        # 0.3 would silently become 5404319552844595/18014398509481984
        with pytest.raises(TypeError, match="float"):
            check_threshold(0.3)
        with pytest.raises(TypeError, match="float"):
            bayes_entails(table1_world, set(), f("a"), 0.3)
        with pytest.raises(TypeError, match="float"):
            bayes_oracle(table1_world, 0.3)
        with pytest.raises(TypeError, match="float"):
            monotony_counterexample_world(0.8)


class TestMapSet:
    def test_argmax_with_premise(self, table1_world, f):
        got = map_set(table1_world, {f("a")})
        assert {v.index for v in got} == {3}

    def test_tie(self, f):
        t = SymbolTable(["a"])
        got = map_set(uniform_world(t), set())
        assert {v.index for v in got} == {0, 1}

    def test_undefined(self, table1_world, f):
        assert map_set(table1_world, {f("a & ~a")}) is None


class TestMapEntails:
    def test_example_structure_queries(self, peaked_world, f):
        v = map_entails(peaked_world, {f("a | ~b")}, f("~b"))
        assert v.holds
        assert [w.index for w in v.witnesses] == [0]
        v = map_entails(peaked_world, {f("a")}, f("~b"))
        assert v.holds
        assert [w.index for w in v.witnesses] == [2]

    def test_universal_vs_existential_on_tie(self):
        from bayent import parse_formula

        t = SymbolTable(["a"])
        model = uniform_world(t)
        # tie between both valuations: universal fails, existential passes
        alpha = parse_formula("a", t)
        assert not map_entails(model, set(), alpha, UNIVERSAL).holds
        assert map_entails(model, set(), alpha, EXISTENTIAL).holds

    def test_vacuous(self, table1_world, f):
        v = map_entails(table1_world, {f("a & ~a")}, f("b"))
        assert v.holds and v.vacuous

    def test_unknown_mode(self, table1_world, f):
        with pytest.raises(ValueError):
            map_entails(table1_world, set(), f("a"), "middling")


# --- invariants over random models -------------------------------------


def support(model):
    """The valuations of positive weight, by brute force over the table."""
    return [v for v in model.table.valuations() if model.weights[v.index]]


seeds = st.integers(min_value=0, max_value=5_000)
zero_fractions = st.sampled_from([Fraction(0), Fraction(1, 2)])
premise_sets = st.lists(formulas(), max_size=2).map(frozenset)


@given(premise_sets, formulas(), seeds, zero_fractions)
def test_threshold_one_matches_support_enumeration(delta, alpha, seed, zf):
    model = random_world(_TABLE, seed, zf)
    expected = all(
        evaluate(alpha, v) == 1
        for v in support(model)
        if all(evaluate(b, v) == 1 for b in delta)
    )
    assert bayes_entails(model, delta, alpha, 1).holds == expected


@given(premise_sets, formulas(), seeds, zero_fractions)
def test_classical_included_in_threshold_one(delta, alpha, seed, zf):
    model = random_world(_TABLE, seed, zf)
    if classical_entails(_TABLE, delta, alpha):
        assert bayes_entails(model, delta, alpha, 1).holds


@given(premise_sets, formulas(), seeds)
def test_all_positive_model_collapses_to_classical(delta, alpha, seed):
    model = random_world(_TABLE, seed, 0)
    assert bayes_entails(model, delta, alpha, 1).holds == classical_entails(
        _TABLE, delta, alpha
    )


@given(
    premise_sets,
    formulas(),
    seeds,
    st.tuples(
        st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)
    ),
)
def test_threshold_monotone(delta, alpha, seed, pair):
    lo, hi = sorted(pair)
    w1, w2 = Fraction(hi, 20), Fraction(lo, 20)  # w2 <= w1
    model = random_world(_TABLE, seed, 0)
    if bayes_entails(model, delta, alpha, w1).holds:
        assert bayes_entails(model, delta, alpha, w2).holds


@given(formulas(), seeds, zero_fractions)
def test_tautology_characterization(alpha, seed, zf):
    model = random_world(_TABLE, seed, zf)
    expected = all(evaluate(alpha, v) == 1 for v in support(model))
    assert bayes_entails(model, set(), alpha, 1).holds == expected


@given(premise_sets, formulas(), seeds, zero_fractions)
def test_map_agrees_with_threshold_one_at_point_posterior(delta, alpha, seed, zf):
    model = random_world(_TABLE, seed, zf)
    post = model.posterior(delta)
    if post is None:
        return
    if sorted(post.probs, reverse=True)[0] != 1:
        return
    expected = bayes_entails(model, delta, alpha, 1).holds
    assert map_entails(model, delta, alpha, UNIVERSAL).holds == expected
    assert map_entails(model, delta, alpha, EXISTENTIAL).holds == expected


@given(premise_sets, formulas(), seeds, zero_fractions)
def test_bayes_countermodels_sound(delta, alpha, seed, zf):
    model = random_world(_TABLE, seed, zf)
    v = bayes_entails(model, delta, alpha, 1)
    if not v.holds:
        assert v.witnesses
    for witness in v.witnesses:
        assert witness in support(model)
        assert all(evaluate(b, witness) == 1 for b in delta)
        assert evaluate(alpha, witness) == 0


# --- the plane MAP kernel against a brute-force argmax -------------------


def brute_map_mask(model, dmask):
    members = [i for i, w in enumerate(model.weights) if w and (dmask >> i) & 1]
    best = max((model.weights[i] for i in members), default=None)
    return sum(1 << i for i in members if model.weights[i] == best)


@given(integer_worlds(), st.data())
def test_map_mask_equals_brute_force_argmax(model, data):
    full = (1 << len(model.weights)) - 1
    for dmask in data.draw(st.lists(masks_of(model) | st.just(full), min_size=1, max_size=4)):
        assert map_mask(model, dmask) == brute_map_mask(model, dmask)


@given(integer_worlds(n=3), premise_sets, formulas(), st.sampled_from([UNIVERSAL, EXISTENTIAL]))
def test_map_entails_witnesses_are_the_map_set_in_index_order(model, delta, alpha, mode):
    found = map_set(model, delta)
    verdict = map_entails(model, delta, alpha, mode)
    if found is None:
        assert verdict.vacuous and verdict.witnesses == ()
    else:
        assert verdict.witnesses == tuple(sorted(found, key=lambda v: v.index))
        assert map_mask(model, premise_mask(delta, _TABLE)) == sum(
            1 << v.index for v in found
        )


# --- witnesses and rows against brute force ------------------------------


def formula_of(mask, table):
    """A formula whose truth mask is mask: the disjunction of its minterms."""
    n = len(table)
    f = Bottom()
    for i in range(table.num_valuations):
        if (mask >> i) & 1:
            term = Top()
            for k, s in enumerate(table):
                term = And(term, Atom(s) if (i >> (n - 1 - k)) & 1 else Not(Atom(s)))
            f = Or(f, term)
    return f


def rows_of(indices, table):
    n = len(table)
    return [
        {"index": i, "assignment": {s: (i >> (n - 1 - k)) & 1 for k, s in enumerate(table)}}
        for i in indices
    ]


def check_witnesses(verdict, expected, table):
    assert verdict.to_dict()["witnesses"] == rows_of(expected, table)
    assert [v.index for v in verdict.witnesses] == expected
    assert all(v.table == table for v in verdict.witnesses)
    assert verdict.to_dict()["witnesses"] == rows_of(expected, table)


@given(integer_worlds(), st.data())
def test_verdict_witnesses_equal_brute_force(model, data):
    table, weights = model.table, model.weights
    full = (1 << len(weights)) - 1
    dmask = data.draw(masks_of(model) | st.just(full))
    amask = data.draw(masks_of(model))
    omega = data.draw(st.fractions(0, 1))
    delta, alpha = {formula_of(dmask, table)}, formula_of(amask, table)
    models = [i for i in range(len(weights)) if (dmask >> i) & 1 and weights[i]]
    kept = sum(weights[i] for i in models)
    hits = [i for i in models if (amask >> i) & 1]

    bayes = bayes_entails(model, delta, alpha, omega)
    if kept == 0:
        assert bayes.vacuous and bayes.holds and bayes.probability is None
        check_witnesses(bayes, [], table)
    else:
        p = Fraction(sum(weights[i] for i in hits), kept)
        assert bayes.probability == p and bayes.holds == (p >= omega)
        assert bayes_entails(model, delta, alpha, p).holds
        countermodels = [i for i in models if i not in hits]
        check_witnesses(bayes, [] if p >= omega else countermodels, table)

    best = max((weights[i] for i in models), default=None)
    winners = [i for i in models if weights[i] == best]
    for mode in (UNIVERSAL, EXISTENTIAL):
        verdict = map_entails(model, delta, alpha, mode)
        if not winners:
            assert verdict.vacuous and verdict.probability is None
            check_witnesses(verdict, [], table)
            continue
        won = [i for i in winners if (amask >> i) & 1]
        assert verdict.probability == Fraction(len(won), len(winners))
        expected = won == winners if mode == UNIVERSAL else bool(won)
        assert verdict.holds == expected
        check_witnesses(verdict, winners, table)


@given(
    st.lists(formulas(), max_size=4), formulas(), seeds, zero_fractions, orders(), st.data()
)
def test_premise_tuple_gives_the_premise_set_verdicts(premises, alpha, seed, zf, order, data):
    """parse_premises keeps every formula, in order, in a tuple; each engine gives
    the same answer on it as on the frozenset of the same formulas."""
    delta = parse_premises([render(g) for g in premises], _TABLE)
    assert delta == tuple(premises)
    as_set = frozenset(delta)
    model = random_world(_TABLE, seed, zf)
    omega = data.draw(st.sampled_from([0, Fraction(1, 2), Fraction(4, 5), 1]))
    assert model.prob(delta) == model.prob(as_set)
    assert model.conditional(alpha, delta) == model.conditional(alpha, as_set)
    assert model.posterior(delta) == model.posterior(as_set)
    assert classical_entails(_TABLE, delta, alpha) == classical_entails(_TABLE, as_set, alpha)
    assert bayes_entails(model, delta, alpha, omega) == bayes_entails(model, as_set, alpha, omega)
    for mode in (UNIVERSAL, EXISTENTIAL):
        assert map_entails(model, delta, alpha, mode) == map_entails(model, as_set, alpha, mode)
    structure = PreferentialStructure(_TABLE, *order)
    assert structure.pref_entails(delta, alpha) == structure.pref_entails(as_set, alpha)
    assert structure.maximal_models(delta) == structure.maximal_models(as_set)
    temporal = TemporalModel(_TABLE, model, sticky_transition(8, Fraction(1, 10)))
    belief = temporal.initial_belief()
    assert filter_step(temporal, belief, delta) == filter_step(temporal, belief, as_set)
