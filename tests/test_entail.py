from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayent import (
    EXISTENTIAL,
    UNIVERSAL,
    SymbolTable,
    Verdict,
    bayes_entails,
    bayes_oracle,
    classical_entails,
    evaluate,
    make_world,
    map_entails,
    map_set,
    monotony_counterexample_world,
    random_world,
    uniform_world,
)

from bayent.entail import check_threshold

from test_formula import formulas, _TABLE


class TestVerdict:
    def test_vacuous_must_hold(self):
        with pytest.raises(ValueError):
            Verdict(holds=False, probability=None, vacuous=True)

    def test_probability_defined_iff_not_vacuous(self):
        with pytest.raises(ValueError):
            Verdict(holds=True, probability=Fraction(1), vacuous=True)
        with pytest.raises(ValueError):
            Verdict(holds=True, probability=None, vacuous=False)


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
            assert w.p(witness) > 0
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

seeds = st.integers(min_value=0, max_value=5_000)
zero_fractions = st.sampled_from([Fraction(0), Fraction(1, 2)])
premise_sets = st.lists(formulas(), max_size=2).map(frozenset)


@given(premise_sets, formulas(), seeds, zero_fractions)
def test_threshold_one_matches_support_enumeration(delta, alpha, seed, zf):
    model = random_world(_TABLE, seed, zf)
    expected = all(
        evaluate(alpha, v) == 1
        for v in model.support()
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
    expected = all(evaluate(alpha, v) == 1 for v in model.support())
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
        assert model.p(witness) > 0
        assert all(evaluate(b, witness) == 1 for b in delta)
        assert evaluate(alpha, witness) == 0
