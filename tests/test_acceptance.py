"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact rational equality; run with `pytest -s` to see
the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from itertools import product

from bayent import (
    EXISTENTIAL,
    UNIVERSAL,
    PreferentialStructure,
    SymbolTable,
    TemporalModel,
    WorldModel,
    bayes_entails,
    bayes_oracle,
    check_property,
    classical_entails,
    cut_counterexample_world,
    enumerate_pool,
    evaluate,
    identity_transition,
    map_entails,
    monotony_counterexample_world,
    parse_formula,
    random_world,
    run_filter,
    sticky_transition,
    temporal_entails,
)
from bayent.audit import STRICT, SUPPORT_RELATIVE

from test_preferential import injective_order_preserving, random_partial_order
from test_temporal import brute_force_final_marginal

AB = SymbolTable(["a", "b"])
TABLE1 = [Fraction(1, 2), Fraction(1, 5), 0, Fraction(3, 10)]
OMEGAS = (
    Fraction(11, 20),
    Fraction(3, 5),
    Fraction(7, 10),
    Fraction(3, 4),
    Fraction(4, 5),
    Fraction(9, 10),
    Fraction(19, 20),
)


def fml(text):
    return parse_formula(text, AB)


def report(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_c01_joint_probability():
    model = WorldModel(AB, TABLE1)
    start = time.perf_counter()
    p = model.prob({fml("a|~b")})
    elapsed = time.perf_counter() - start
    report(1, "joint probability 4/5 in under 1 ms", p == Fraction(4, 5) and elapsed < 0.001)


def test_c02_conditional_and_posterior():
    model = WorldModel(AB, TABLE1)
    delta = {fml("a|~b"), fml("~a|b")}
    cond = model.conditional(fml("~a"), delta)
    post = model.posterior({fml("a|~b")}).probs
    ok = cond == Fraction(5, 8) and post == (Fraction(5, 8), 0, 0, Fraction(3, 8))
    report(2, "conditional 5/8 and posterior (5/8, 0, 0, 3/8)", ok)


def test_c03_threshold_one_strictly_extends_classical():
    model = WorldModel(AB, TABLE1)
    alpha = fml("~a | b")
    v = bayes_entails(model, set(), alpha, 1)
    ok = v.holds and v.probability == 1 and not classical_entails(AB, set(), alpha)
    report(3, "threshold-1 accepts a non-tautology the classical relation rejects", ok)


def test_c04_monotony_counterexample_grid():
    a, b = fml("a"), fml("b")
    ok = True
    for omega in OMEGAS:
        w = monotony_counterexample_world(omega)
        ok &= w.prob({a}) == omega
        ok &= w.conditional(a, {b}) == (2 * omega - 1) / omega
        ok &= bayes_entails(w, set(), a, omega).holds
        ok &= not bayes_entails(w, {b}, a, omega).holds
    w = monotony_counterexample_world(Fraction(4, 5))
    ok &= w.prob({a}) == Fraction(4, 5)
    ok &= w.conditional(a, {b}) == Fraction(3, 4)
    report(4, "monotony counterexample exact on the whole threshold grid", ok)


def test_c05_cut_counterexample_grid():
    a, conj = fml("a"), fml("a & b")
    pool = enumerate_pool(AB, 2)
    ok = True
    for omega in OMEGAS:
        w = cut_counterexample_world(omega)
        ok &= w.prob({a}) == omega
        ok &= w.conditional(conj, {a}) == omega
        ok &= w.prob({conj}) == omega * omega
        ok &= check_property(bayes_oracle(w, omega), "cut", pool).verdict == "counterexample"
    ok &= cut_counterexample_world(Fraction(4, 5)).prob({conj}) == Fraction(16, 25)
    report(5, "cut counterexample exact on the whole threshold grid", ok)


def _seeded_worlds(count):
    # half with zero entries, half strictly positive
    return [
        random_world(AB, seed, Fraction(1, 2) if seed % 2 else Fraction(0))
        for seed in range(count)
    ]


def test_c06_threshold_one_is_monotonic_consequence():
    pool = enumerate_pool(AB, 2)
    start = time.perf_counter()
    ok = True
    for model in _seeded_worlds(200):
        oracle = bayes_oracle(model, 1)
        for name in ("reflexivity", "monotony", "cut"):
            ok &= check_property(oracle, name, pool).verdict == "pass"
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 30
    report(6, f"threshold-1 monotonic across 200 worlds ({elapsed:.1f}s)", ok)


def test_c07_classically_cumulative_both_bases():
    pool = enumerate_pool(AB, 2)
    start = time.perf_counter()
    ok = True
    for model in _seeded_worlds(200):
        for omega in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
            for base in (STRICT, SUPPORT_RELATIVE):
                oracle = bayes_oracle(model, omega, base=base)
                for name in (
                    "supraclassicality",
                    "reflexivity",
                    "classical_cautious_monotony",
                    "classical_cut",
                ):
                    ok &= check_property(oracle, name, pool).verdict == "pass"
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 60
    report(7, f"classically cumulative on 200 worlds, both bases ({elapsed:.1f}s)", ok)


def _pool_queries():
    pool = enumerate_pool(AB, 2)
    deltas = [frozenset()] + [frozenset([g]) for g in pool.formulas]
    return deltas, pool.formulas


def test_c08_preferential_implies_map():
    rng = random.Random(2024)
    deltas, alphas = _pool_queries()
    ok = True
    for _ in range(100):
        structure, order = random_partial_order(AB, rng)
        model = injective_order_preserving(AB, rng, order)
        ok &= structure.is_order_preserving(model)
        for delta in deltas:
            for alpha in alphas:
                if structure.pref_entails(delta, alpha):
                    ok &= map_entails(model, delta, alpha, UNIVERSAL).holds
    report(8, "preferential implies MAP on 100 random partial orders", ok)


def test_c09_total_orders_make_them_coincide():
    rng = random.Random(4048)
    deltas, alphas = _pool_queries()
    ok = True
    for _ in range(100):
        structure, order = random_partial_order(AB, rng, total=True)
        model = injective_order_preserving(AB, rng, order)
        ok &= structure.is_total()
        for delta in deltas:
            for alpha in alphas:
                expected = structure.pref_entails(delta, alpha)
                ok &= map_entails(model, delta, alpha, UNIVERSAL).holds == expected
                ok &= map_entails(model, delta, alpha, EXISTENTIAL).holds == expected
    report(9, "preferential and MAP coincide on 100 random total orders", ok)


def test_c10_worked_example_structure():
    structure = PreferentialStructure(
        AB, range(4), [(0, 1), (0, 2), (0, 3), (2, 1), (3, 1)]
    )
    model = WorldModel(
        AB, [Fraction(2, 5), Fraction(1, 10), Fraction(3, 10), Fraction(1, 5)]
    )
    not_b = fml("~b")
    ok = structure.is_order_preserving(model)
    ok &= structure.pref_entails({fml("a|~b")}, not_b)
    ok &= map_entails(model, {fml("a|~b")}, not_b, UNIVERSAL).holds
    ok &= {v.index for v in structure.maximal_models({fml("a")})} == {2, 3}
    ok &= not structure.pref_entails({fml("a")}, not_b)
    map_verdict = map_entails(model, {fml("a")}, not_b, UNIVERSAL)
    ok &= map_verdict.holds and [v.index for v in map_verdict.witnesses] == [2]
    report(10, "worked partial-order example reproduced end to end", ok)


def _brute_conditional(model, alpha, delta):
    num = Fraction(0)
    den = Fraction(0)
    for v in AB.valuations():
        if all(evaluate(g, v) == 1 for g in delta):
            den += model.probs[v.index]
            if evaluate(alpha, v) == 1:
                num += model.probs[v.index]
    return None if den == 0 else num / den


def test_c11_oracle_equivalence_and_probability_laws():
    pool = enumerate_pool(AB, 2).formulas
    ok = True
    for seed in range(50):
        model = random_world(AB, seed, Fraction(1, 2) if seed % 2 else Fraction(0))
        for alpha in pool:
            p = model.prob({alpha})
            ok &= 0 <= p <= 1
            neg = parse_formula(f"~({alpha})", AB)
            ok &= model.prob({neg}) == 1 - p
            for beta in pool:
                either = parse_formula(f"({alpha}) | ({beta})", AB)
                both = parse_formula(f"({alpha}) & ({beta})", AB)
                ok &= model.prob({either}) == p + model.prob({beta}) - model.prob({both})
                ok &= model.conditional(alpha, {beta}) == _brute_conditional(
                    model, alpha, {beta}
                )
    report(11, "conditionals match joint-table brute force; probability laws exact", ok)


def test_c12_temporal_collapse_and_trajectory_oracle():
    static = WorldModel(AB, TABLE1)
    model = TemporalModel(AB, TABLE1, identity_transition(4))
    ok = model.prior_world().prob({fml("a|~b")}) == Fraction(4, 5)
    v = temporal_entails(model, [{fml("a|~b"), fml("~a|b")}], fml("~a"), Fraction(3, 5))
    ok &= v.probability == Fraction(5, 8)
    ok &= run_filter(model, [{fml("a|~b")}]).weights == static.posterior(
        {fml("a|~b")}
    ).probs
    sticky = TemporalModel(AB, TABLE1, sticky_transition(4, Fraction(1, 5)))
    chains = [
        [set()],
        [{fml("a")}, {fml("a | b")}],
        [{fml("~a | b")}, set(), {fml("b")}],
        [{fml("a")}, {fml("a")}, {fml("~a")}, {fml("a | ~a")}],
    ]
    for obs in chains:
        belief = run_filter(sticky, obs)
        expected = brute_force_final_marginal(sticky, obs)
        if expected is None:
            ok &= not belief.alive
        else:
            ok &= list(belief.weights) == expected
    report(12, "temporal engine collapses to static values and matches enumeration", ok)


def test_c13_classically_cumulative_on_three_symbols():
    # the paper's positive theorem again, over the 90-formula depth-2 pool
    table = SymbolTable(["a", "b", "c"])
    pool = enumerate_pool(table, 2)
    start = time.perf_counter()
    ok = len(pool) == 90
    for seed in range(20):
        model = random_world(table, seed, Fraction(1, 2) if seed % 2 else Fraction(0))
        for omega in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
            for base in (STRICT, SUPPORT_RELATIVE):
                oracle = bayes_oracle(model, omega, base=base)
                for name in (
                    "supraclassicality",
                    "reflexivity",
                    "classical_cautious_monotony",
                    "classical_cut",
                ):
                    ok &= check_property(oracle, name, pool).verdict == "pass"
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 30
    report(13, f"classically cumulative on 20 three-symbol worlds ({elapsed:.1f}s)", ok)
