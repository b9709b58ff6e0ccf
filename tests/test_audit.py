import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayent import (
    OMEGA_GRID,
    PROPERTIES,
    ConsequenceOracle,
    PreferentialStructure,
    SymbolTable,
    WorldModel,
    bayes_entails,
    bayes_oracle,
    check_property,
    classical_entails,
    classical_oracle,
    cut_counterexample_world,
    enumerate_pool,
    map_entails,
    map_oracle,
    monotony_counterexample_world,
    parse_formula,
    pref_oracle,
    random_world,
    theorem_suite,
)
from bayent import audit
from bayent.audit import (
    MAX_CASES,
    MEMO_SIZE,
    STRICT,
    SUPPORT_RELATIVE,
    AuditError,
    case_count,
    classical_base,
)
from bayent.entail import EXISTENTIAL, UNIVERSAL
from bayent.formula import truth_mask

from audit_oracle import old_check_property
from conftest import EXAMPLE_EDGES
from test_entail import support

AB = SymbolTable(["a", "b"])
ABC = SymbolTable(["a", "b", "c"])


class TestEnumeratePool:
    def test_one_symbol_depth_one(self):
        t = SymbolTable(["a"])
        pool = enumerate_pool(t, 1)
        assert {truth_mask(f, t) for f in pool.formulas} == {0b00, 0b01, 0b10, 0b11}

    def test_two_symbols_depth_two_covers_all_16(self, ab):
        pool = enumerate_pool(ab, 2)
        assert {truth_mask(f, ab) for f in pool.formulas} == set(range(16))

    def test_depth_zero_is_atoms_and_constants(self, ab):
        pool = enumerate_pool(ab, 0)
        assert {str(f) for f in pool.formulas} == {"a", "b", "true", "false"}

    def test_caps_enforced(self, ab):
        with pytest.raises(AuditError):
            enumerate_pool(ab, 4)
        with pytest.raises(AuditError):
            enumerate_pool(SymbolTable(["a", "b", "c", "d"]), 2)


class TestParametricWorlds:
    @pytest.mark.parametrize("omega", OMEGA_GRID)
    def test_monotony_world_values(self, ab, omega):
        w = monotony_counterexample_world(omega)
        a, b = parse_formula("a", ab), parse_formula("b", ab)
        assert w.prob({a}) == omega
        assert w.prob({b}) == omega
        assert w.conditional(a, {b}) == (2 * omega - 1) / omega

    def test_monotony_world_at_four_fifths(self, ab):
        w = monotony_counterexample_world(Fraction(4, 5))
        assert w.probs == (0, Fraction(1, 5), Fraction(1, 5), Fraction(3, 5))

    def test_monotony_world_at_three_fifths(self, ab):
        w = monotony_counterexample_world(Fraction(3, 5))
        assert w.probs == (0, Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
        a, b = parse_formula("a", ab), parse_formula("b", ab)
        assert w.conditional(a, {b}) == Fraction(1, 3)

    @pytest.mark.parametrize("omega", OMEGA_GRID)
    def test_cut_world_values(self, ab, omega):
        w = cut_counterexample_world(omega)
        a = parse_formula("a", ab)
        ab_f = parse_formula("a & b", ab)
        assert w.prob({a}) == omega
        assert w.conditional(ab_f, {a}) == omega
        assert w.prob({ab_f}) == omega * omega

    @pytest.mark.parametrize("omega", [Fraction(1, 2), Fraction(1), Fraction(0)])
    def test_boundaries_rejected(self, omega):
        with pytest.raises(ValueError):
            monotony_counterexample_world(omega)
        with pytest.raises(ValueError):
            cut_counterexample_world(omega)

    def test_threshold_too_long_to_print_is_named_by_its_size(self):
        # str(10^4300) has 4301 digits, one more than Python prints
        message = "threshold a ratio of 14285-bit and 1-bit ints must lie strictly between"
        with pytest.raises(ValueError, match=message):
            monotony_counterexample_world("1e4300")


class TestRandomWorld:
    def test_deterministic(self, ab):
        assert random_world(ab, 42, Fraction(1, 2)) == random_world(
            ab, 42, Fraction(1, 2)
        )

    def test_no_zeros_when_fraction_zero(self, ab):
        w = random_world(ab, 7, 0)
        assert all(p > 0 for p in w.probs)

    def test_all_zero_collapses_to_point_mass(self, ab):
        w = random_world(ab, 7, 1)
        assert sorted(w.probs, reverse=True)[0] == 1
        assert len(support(w)) == 1

    def test_zero_fraction_above_one_refused(self, ab):
        with pytest.raises(ValueError, match=r"^zero_fraction must lie in \[0, 1\]$"):
            random_world(ab, 7, 2)


class TestCheckProperty:
    @pytest.fixture
    def pool(self, ab):
        return enumerate_pool(ab, 2)

    def test_monotony_counterexample_found(self, pool):
        w = monotony_counterexample_world(Fraction(4, 5))
        report = check_property(bayes_oracle(w, Fraction(4, 5)), "monotony", pool)
        assert report.verdict == "counterexample"
        ce = report.counterexample
        assert ce["premises"] == [] and ce["alpha"] == "a" and ce["beta"] == "b"
        assert ce["trace"]["premises -> alpha"]["p(conclusion|premises)"] == "4/5"
        assert ce["trace"]["premises,beta -> alpha"]["p(conclusion|premises)"] == "3/4"

    def test_cut_counterexample_found(self, pool):
        w = cut_counterexample_world(Fraction(4, 5))
        report = check_property(bayes_oracle(w, Fraction(4, 5)), "cut", pool)
        assert report.verdict == "counterexample"
        ce = report.counterexample
        assert ce["premises"] == [] and ce["beta"] == "a" and ce["alpha"] == "a & b"

    def test_cautious_monotony_refuted_on_monotony_world(self, pool):
        w = monotony_counterexample_world(Fraction(4, 5))
        report = check_property(
            bayes_oracle(w, Fraction(4, 5)), "cautious_monotony", pool
        )
        assert report.verdict == "counterexample"

    def test_reflexivity_passes_at_any_threshold(self, pool):
        for omega in (Fraction(4, 5), Fraction(1)):
            w = monotony_counterexample_world(Fraction(4, 5))
            report = check_property(bayes_oracle(w, omega), "reflexivity", pool)
            assert report.verdict == "pass"
            assert report.cases_checked > 0

    def test_threshold_one_is_monotonic(self, ab, pool):
        for seed in range(10):
            model = random_world(ab, seed, Fraction(1, 2) if seed % 2 else 0)
            oracle = bayes_oracle(model, 1)
            for name in ("reflexivity", "monotony", "cut"):
                assert check_property(oracle, name, pool).verdict == "pass"

    @pytest.mark.parametrize("base", [STRICT, SUPPORT_RELATIVE])
    def test_classically_cumulative_under_both_bases(self, ab, pool, base):
        for seed in range(6):
            model = random_world(ab, seed, Fraction(1, 2) if seed % 2 else 0)
            for omega in (Fraction(3, 5), Fraction(9, 10)):
                oracle = bayes_oracle(model, omega, base=base)
                for name in (
                    "supraclassicality",
                    "reflexivity",
                    "classical_cautious_monotony",
                    "classical_cut",
                ):
                    assert check_property(oracle, name, pool).verdict == "pass"

    def test_classical_oracle_passes_everything(self, ab, pool):
        oracle = classical_oracle(ab)
        for name in PROPERTIES:
            assert check_property(oracle, name, pool).verdict == "pass"

    def test_monotony_implies_weaker_monotonies(self, ab, pool):
        # hierarchy: an oracle passing monotony also passes both cautious forms
        oracle = bayes_oracle(random_world(ab, 3, 0), 1)
        assert check_property(oracle, "monotony", pool).verdict == "pass"
        assert check_property(oracle, "cautious_monotony", pool).verdict == "pass"
        assert (
            check_property(oracle, "classical_cautious_monotony", pool).verdict
            == "pass"
        )

    def test_or_property_for_preferential_oracle(self, ab, pool):
        structure = PreferentialStructure(ab, range(4), EXAMPLE_EDGES)
        report = check_property(pref_oracle(structure), "or", pool)
        assert report.verdict == "pass"

    def test_unknown_property(self, pool, ab):
        with pytest.raises(AuditError):
            check_property(bayes_oracle(random_world(ab, 1, 0), 1), "flying-pigs", pool)

    def test_counterexample_replays(self, pool):
        # replay happens inside check_property; a raised AuditError would
        # mean the reported tuple does not actually violate the property
        w = monotony_counterexample_world(Fraction(11, 20))
        report = check_property(bayes_oracle(w, Fraction(11, 20)), "monotony", pool)
        assert report.verdict == "counterexample"
        assert report.counterexample["trace"]


class TestMargins:
    @pytest.mark.parametrize("omega", OMEGA_GRID)
    def test_counterexamples_sit_exactly_at_threshold(self, ab, omega):
        # the refuting queries miss the threshold by an exact positive margin
        a, b = parse_formula("a", ab), parse_formula("b", ab)
        ab_f = parse_formula("a & b", ab)
        w = monotony_counterexample_world(omega)
        margin = omega - w.conditional(a, {b})
        assert margin == (omega - 1) ** 2 / omega
        assert margin > 0
        w = cut_counterexample_world(omega)
        margin = omega - w.prob({ab_f})
        assert margin == omega * (1 - omega)
        assert margin > 0


def test_oracle_needs_mask_level_queries():
    with pytest.raises(TypeError):
        ConsequenceOracle("bare", AB, lambda d, a: True)


def test_unknown_base_refused(ab):
    with pytest.raises(AuditError, match="^unknown monotonic base 'bogus'$"):
        bayes_oracle(random_world(ab, 1), Fraction(3, 5), base="bogus")


def test_unknown_map_mode_refused_before_any_check(ab):
    # any mode but universal would otherwise read as existential
    model = random_world(ab, 3, 0)
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        map_oracle(model, "bogus")
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        map_entails(model, (), parse_formula("a", ab), "bogus")


# --- Oracle and pool over one table --------------------------------------


def test_builders_give_the_oracle_its_table():
    world = random_world(ABC, 1)
    structure = PreferentialStructure(ABC, range(8), [(0, 1)])
    built = [
        bayes_oracle(world, Fraction(3, 5)),
        map_oracle(world),
        pref_oracle(structure),
        classical_oracle(ABC),
    ]
    assert [oracle.table for oracle in built] == [ABC] * 4


def test_pool_over_a_smaller_table_refused():
    # the pool's masks would be read as valuation indices of the 3-symbol world
    oracle = bayes_oracle(random_world(ABC, 1), Fraction(3, 5))
    message = r"^pool is over SymbolTable\(\['a', 'b'\]\), the oracle over SymbolTable\(\['a', "
    with pytest.raises(AuditError, match=message):
        check_property(oracle, "monotony", enumerate_pool(AB, 1))


def test_pool_over_other_names_refused_before_any_query():
    def never(*args):
        raise AssertionError("queried")

    xy = SymbolTable(["x", "y"])
    pool = enumerate_pool(AB, 1)
    for oracle in (
        map_oracle(WorldModel(xy, [Fraction(1, 4)] * 4)),
        ConsequenceOracle("xy", xy, never, never),
    ):
        with pytest.raises(AuditError, match="^pool is over"):
            check_property(oracle, "cut", pool)
        with pytest.raises(AuditError, match="^pool is over"):
            theorem_suite(oracle, pool)


# --- Each mask-level relation against its engine --------------------------


@pytest.mark.parametrize("table,depth", [(AB, 2), (ABC, 1)])
def test_each_relation_is_its_engine(table, depth):
    pool = enumerate_pool(table, depth)
    premises = [((), table.full_mask)]
    premises += [((f,), m) for f, m in zip(pool.formulas, pool.truth_masks)]
    for seed in range(4):
        model = random_world(table, seed, Fraction(1, 4))
        rng = random.Random(seed)
        universe = [i for i in range(table.num_valuations) if model.weights[i]]
        edges = [e for e in combinations(universe, 2) if rng.random() < 1 / 3]
        structure = PreferentialStructure(table, universe, edges)
        thresholds = {w: bayes_oracle(model, w) for w in (Fraction(3, 5), Fraction(9, 10), 1)}
        maps = {mode: map_oracle(model, mode) for mode in (UNIVERSAL, EXISTENTIAL)}
        strict, pref = bayes_oracle(model, 1, STRICT), pref_oracle(structure)
        conclusions = list(zip(pool.formulas, pool.truth_masks))
        for (delta, dmask), (alpha, amask) in product(premises, conclusions):
            for w, oracle in thresholds.items():
                holds = bayes_entails(model, delta, alpha, w).holds
                assert oracle.mask_query(dmask, amask) == holds
            for mode, oracle in maps.items():
                holds = map_entails(model, delta, alpha, mode).holds
                assert oracle.mask_query(dmask, amask) == holds
            holds = bayes_entails(model, delta, alpha, 1).holds
            assert thresholds[1].mask_base(dmask, amask) == holds
            assert strict.mask_base(dmask, amask) == classical_entails(table, delta, alpha)
            assert pref.mask_query(dmask, amask) == structure.pref_entails(delta, alpha)


# --- Differential test against the earlier per-property loops ---------

POOLS = [(AB, 0), (AB, 1), (AB, 2), (ABC, 1)]


@st.composite
def oracles(draw, table):
    kind = draw(st.sampled_from(["threshold", "map", "pref", "classical", "arbitrary"]))
    size = table.num_valuations
    if kind == "classical":
        return classical_oracle(table)
    if kind == "arbitrary":  # a relation with no structure, so any property can fail
        seed = draw(st.integers(0, 2**16))

        def mask_query(dmask, amask):
            return hash((seed, dmask, amask)) % 8 != 0

        return ConsequenceOracle("arbitrary", table, mask_query, classical_base(table))
    if kind == "pref":
        universe = draw(st.sets(st.integers(0, size - 1), min_size=1))
        pairs = [(i, j) for i in sorted(universe) for j in sorted(universe) if i < j]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return pref_oracle(PreferentialStructure(table, universe, edges))
    weights = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    if not any(weights):
        weights[draw(st.integers(0, size - 1))] = 1
    model = WorldModel(table, [Fraction(w, sum(weights)) for w in weights])
    base = draw(st.sampled_from([STRICT, SUPPORT_RELATIVE]))
    if kind == "map":
        return map_oracle(model, draw(st.sampled_from(["universal", "existential"])), base)
    return bayes_oracle(model, draw(st.sampled_from(OMEGA_GRID + (1,))), base)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reports_match_the_earlier_loops(data):
    table, depth = data.draw(st.sampled_from(POOLS))
    pool = enumerate_pool(table, depth)
    cap = data.draw(st.integers(0, 2))
    oracle = data.draw(oracles(table))
    for name in PROPERTIES:
        new = check_property(oracle, name, pool, cap).to_dict()
        assert new == old_check_property(oracle, name, pool, cap).to_dict()


# --- Engine work and budget ---------------------------------------------


def test_suite_weighs_each_premise_mask_once(monkeypatch):
    # the search weighs at most one mask per distinct premise mask; the
    # replay of each counterexample goes through the oracle's memo too
    weigh = WorldModel.weight
    replay = audit._replay
    calls = {"search": 0, "replay": 0}
    phase = ["search"]

    def counted_weight(self, mask):
        calls[phase[0]] += 1
        return weigh(self, mask)

    def counted_replay(*args):
        phase[0] = "replay"
        try:
            return replay(*args)
        finally:
            phase[0] = "search"

    monkeypatch.setattr(WorldModel, "weight", counted_weight)
    monkeypatch.setattr(audit, "_replay", counted_replay)
    pool = enumerate_pool(ABC, 2)
    model = random_world(ABC, 3, 0)
    reports = theorem_suite(bayes_oracle(model, Fraction(3, 5)), pool)
    found = sum(r.verdict == "counterexample" for r in reports)
    assert found >= 3
    assert calls["search"] <= MEMO_SIZE == 256
    # a replay makes at most 3 queries (2 weights each) and 6 traces (3 each)
    assert calls["replay"] <= 24 * found
    calls.update(search=0, replay=0)
    reports = theorem_suite(bayes_oracle(model, 1), pool, properties=PROPERTIES[:-1])
    assert all(r.verdict == "pass" for r in reports)
    assert 0 < calls["search"] <= 256 and calls["replay"] == 0


class TestCaseBudget:
    @pytest.mark.parametrize("name", PROPERTIES)
    @pytest.mark.parametrize("table,depth,cap", [(AB, 2, 0), (AB, 1, 2), (ABC, 1, 1)])
    def test_count_is_the_passing_cases_checked(self, name, table, depth, cap):
        pool = enumerate_pool(table, depth)
        report = check_property(classical_oracle(table), name, pool, cap)
        assert report.verdict == "pass"
        assert report.cases_checked == case_count(name, len(pool), cap)

    def test_closed_form(self):
        assert case_count("or", 90, 1) == 91 * 90**3 == 66_339_000
        assert case_count("or", 90, 3) == (1 + 90 + 4005 + 117_480) * 90**3
        assert case_count("monotony", 16, 0) == 256
        assert case_count("cut", 16, -1) == 256
        assert case_count("reflexivity", 4, 9) == 2**4 * 4

    def test_cap_above_the_pool_counts_every_premise_set(self):
        # comb(16, s) is 0 for s > 16, so the sum stops at the pool; summing
        # to a cap of 10^7 took over a second
        start = time.perf_counter()
        assert case_count("cut", 16, 10**7) == case_count("cut", 16, 16) == 2**16 * 16**2
        assert case_count("or", 90, 10**7) == 2**90 * 90**3
        assert time.perf_counter() - start < 0.5

    def test_budget_sits_above_the_largest_count_in_use(self):
        assert case_count("or", 90, 1) < MAX_CASES < case_count("or", 90, 2)

    def test_over_budget_raises_before_any_work(self):
        pool = enumerate_pool(ABC, 2)
        queried = []
        oracle = classical_oracle(ABC)
        oracle.mask_query = lambda d, a: queried.append(d) or True
        with pytest.raises(AuditError, match="over the budget"):
            check_property(oracle, "or", pool, 3)
        with pytest.raises(AuditError, match="over the budget"):
            theorem_suite(oracle, pool, 2)
        assert queried == []
