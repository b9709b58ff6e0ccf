import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayent import (
    EXISTENTIAL,
    UNIVERSAL,
    PreferentialStructure,
    StructureError,
    SymbolTable,
    WorldModel,
    evaluate,
    map_entails,
    map_set,
    pref_oracle,
    structure_from_dict,
)
from bayent.worlds import _indices, premise_mask

from conftest import EXAMPLE_EDGES
from test_formula import _TABLE, formulas


@pytest.fixture
def example_structure(ab):
    return PreferentialStructure(ab, range(4), EXAMPLE_EDGES)


class TestValidation:
    def test_example_structure_ok(self, example_structure):
        assert example_structure.below == {0: 0b1110, 2: 0b10, 3: 0b10}
        assert example_structure.added_edges == frozenset()

    def test_cycle_reported(self, ab):
        with pytest.raises(StructureError) as info:
            PreferentialStructure(ab, range(4), [(0, 1), (1, 0)])
        assert str(info.value) == "irreflexivity: (0,0); irreflexivity: (1,1)"

    def test_self_loop_reported(self, ab):
        with pytest.raises(StructureError) as info:
            PreferentialStructure(ab, range(4), [(0, 0)])
        assert str(info.value) == "irreflexivity: (0,0)"

    def test_closure_reports_added_edges(self, ab):
        s = PreferentialStructure(ab, range(4), [(0, 1), (1, 2)])
        assert s.added_edges == frozenset({(0, 2)})

    def test_edges_must_stay_in_universe(self, ab):
        with pytest.raises(StructureError):
            PreferentialStructure(ab, [0, 1], [(0, 3)])

    @pytest.mark.parametrize(
        "universe, edges, message",
        [
            ([0, 1], [(True, 1)], "index pairs, not (True, 1)"),
            ([0, 0.5], [], "universe index 0.5 is not an integer"),
            ([0, 1], [(0, 1), (0, 1.0), (True, 1)], "index pairs, not (0, 1.0)"),
            ([0, 1, True, 0.5], [(0, 1.0)], "universe index True is not an integer"),
        ],
    )
    def test_indices_must_be_ints_in_input_order(self, ab, universe, edges, message):
        with pytest.raises(StructureError) as info:
            PreferentialStructure(ab, universe, edges)
        assert message in str(info.value)


class TestMaximalModels:
    def test_within_premise_models(self, example_structure, f):
        got = {v.index for v in example_structure.maximal_models({f("a")})}
        assert got == {2, 3}

    def test_unique_maximum(self, example_structure, f):
        got = {v.index for v in example_structure.maximal_models({f("a | ~b")})}
        assert got == {0}

    def test_no_models(self, example_structure, f):
        assert example_structure.maximal_models({f("a & ~a")}) == set()

    def test_soundness(self, example_structure, f):
        delta = {f("a | b")}
        models = {v.index for v in example_structure.maximal_models(delta)}
        all_models = {v.index for v in example_structure.maximal_models(set())}
        for i in models:
            v = example_structure.table.valuation(i)
            assert all(evaluate(g, v) == 1 for g in delta)


class TestPrefEntails:
    def test_example_queries(self, example_structure, f):
        assert example_structure.pref_entails({f("a | ~b")}, f("~b"))
        assert not example_structure.pref_entails({f("a")}, f("~b"))

    def test_vacuous_when_no_models(self, example_structure, f):
        assert example_structure.pref_entails({f("a & ~a")}, f("b"))

    def test_global_maximum_decides_empty_premises(self, ab, f):
        # index 0 (both false) above everything else
        s = PreferentialStructure(ab, range(4), [(0, 1), (0, 2), (0, 3)])
        assert s.pref_entails(set(), f("~a & ~b"))


class TestOrderAndTotality:
    def test_example_is_order_preserving(self, example_structure, peaked_world):
        assert example_structure.is_order_preserving(peaked_world)

    def test_violating_probabilities(self, ab, example_structure):
        flipped = WorldModel(
            ab, [Fraction(1, 10), Fraction(2, 5), Fraction(3, 10), Fraction(1, 5)]
        )
        assert not example_structure.is_order_preserving(flipped)

    def test_empty_edges_always_order_preserving(self, ab, peaked_world):
        s = PreferentialStructure(ab, range(4), [])
        assert s.is_order_preserving(peaked_world)

    def test_chain_is_total(self, ab):
        s = PreferentialStructure(ab, [0, 1, 2], [(0, 1), (1, 2)])
        assert s.is_total()

    def test_example_is_not_total(self, example_structure):
        # indices 2 and 3 are incomparable
        assert not example_structure.is_total()

    def test_singleton_total(self, ab):
        assert PreferentialStructure(ab, [0], []).is_total()

    def test_world_over_another_table_refused(self, example_structure):
        world = WorldModel(SymbolTable(["x", "y"]), [Fraction(1, 4)] * 4)
        with pytest.raises(StructureError, match="^structure and world use different"):
            example_structure.is_order_preserving(world)

    def test_repr_lists_universe_and_closed_edges(self, ab):
        s = PreferentialStructure(ab, [2, 0, 1], [(0, 1), (1, 2)])
        expected = "PreferentialStructure(universe=[0, 1, 2], edges=[(0, 1), (0, 2), (1, 2)])"
        assert repr(s) == expected


class TestJson:
    def test_round_trip(self, ab, example_structure):
        data = {
            "universe": sorted(example_structure.universe),
            "edges": [list(e) for e in sorted(example_structure.edges)],
        }
        assert data["universe"] == [0, 1, 2, 3]
        again = structure_from_dict(data, ab)
        assert again.edges == example_structure.edges

    def test_invalid_file_rejected(self, ab):
        with pytest.raises(StructureError):
            structure_from_dict({"universe": [0], "edges": [[0, 0]]}, ab)
        with pytest.raises(StructureError):
            structure_from_dict({"edges": []}, ab)


# --- bridge theorems at desk scale -------------------------------------


def random_partial_order(table, rng, total=False):
    """Random strict partial order via a random permutation: keep each
    pair-edge of the induced total order (all of them when total)."""
    n = table.num_valuations
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if total or rng.random() < 0.5:
                edges.add((order[i], order[j]))
    return PreferentialStructure(table, range(n), edges), order


def injective_order_preserving(table, rng, order):
    """Distinct positive probabilities decreasing along the permutation."""
    n = table.num_valuations
    weights = sorted(rng.sample(range(1, 1000), n), reverse=True)
    total = sum(weights)
    probs = [None] * n
    for rank, idx in enumerate(order):
        probs[idx] = Fraction(weights[rank], total)
    return WorldModel(table, probs)


def pool_pairs(table):
    from bayent import enumerate_pool

    pool = enumerate_pool(table, 2)
    deltas = [frozenset()] + [frozenset([g]) for g in pool.formulas]
    return deltas, pool.formulas


def test_pref_implies_map_universal_on_injective_models(ab):
    rng = random.Random(7)
    deltas, alphas = pool_pairs(ab)
    for _ in range(25):
        structure, order = random_partial_order(ab, rng)
        model = injective_order_preserving(ab, rng, order)
        assert structure.is_order_preserving(model)
        for delta in deltas:
            for alpha in alphas:
                if structure.pref_entails(delta, alpha):
                    assert map_entails(model, delta, alpha, UNIVERSAL).holds


def test_total_order_makes_pref_and_map_coincide(ab):
    rng = random.Random(11)
    deltas, alphas = pool_pairs(ab)
    for _ in range(25):
        structure, order = random_partial_order(ab, rng, total=True)
        model = injective_order_preserving(ab, rng, order)
        assert structure.is_total()
        for delta in deltas:
            for alpha in alphas:
                expected = structure.pref_entails(delta, alpha)
                assert map_entails(model, delta, alpha, UNIVERSAL).holds == expected
                assert map_entails(model, delta, alpha, EXISTENTIAL).holds == expected


def test_induced_ranked_order_matches_map_with_ties_and_zeros():
    # universal MAP is preferential entailment over the ranked order the
    # weights induce on the supported valuations; equal weights tie
    abc = SymbolTable(["a", "b", "c"])
    deltas, alphas = pool_pairs(abc)
    tied = 0
    for seed in range(8):
        rng = random.Random(seed)
        weights = [rng.randrange(4) for _ in range(abc.num_valuations)]
        model = WorldModel.from_weights(abc, weights, sum(weights))
        universe = [i for i, w in enumerate(weights) if w]
        edges = [(i, j) for i in universe for j in universe if weights[i] > weights[j]]
        structure = PreferentialStructure(abc, universe, edges)
        for delta in deltas:
            for alpha in alphas:
                verdict = map_entails(model, delta, alpha, UNIVERSAL)
                assert structure.pref_entails(delta, alpha) == verdict.holds
                tied += not verdict.vacuous and len(map_set(model, delta)) > 1
    assert tied > 0


# --- bitset order kernel against brute force ---------------------------


def _brute_closure(edges):
    closed = set(edges)
    while True:
        new = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not new:
            return closed
        closed |= new


def _brute_violations(edges):
    ordered = sorted(edges)
    found = [f"irreflexivity: ({a},{a})" for a, b in ordered if a == b]
    for a, b in ordered:
        for b2, c in ordered:
            if b2 == b and (a, c) not in edges:
                found.append(f"transitivity: missing ({a},{c})")
    return found


def _brute_maximal(universe, edges, dmask):
    models = [i for i in universe if (dmask >> i) & 1]
    return {
        i for i in models if not any(j != i and (j, i) in edges for j in models)
    }


@st.composite
def edge_lists(draw):
    """A universe over _TABLE and any edge list inside it: cycles and self-loops too."""
    universe = draw(st.sets(st.integers(0, 7), min_size=1))
    members = sorted(universe)
    pair = st.tuples(st.sampled_from(members), st.sampled_from(members))
    return universe, draw(st.lists(pair, max_size=14))


@st.composite
def orders(draw):
    """A universe over _TABLE and an acyclic edge list inside it: each drawn pair is
    oriented from the higher to the lower of its two ranks in a drawn ranking."""
    universe, edge_list = draw(edge_lists())
    rank = dict(zip(sorted(universe), draw(st.permutations(range(len(universe))))))
    return universe, [(a, b) if rank[a] < rank[b] else (b, a) for a, b in edge_list if a != b]


@given(edge_lists())
def test_a_cycle_is_refused_and_an_acyclic_list_builds(case):
    universe, edge_list = case
    closed = _brute_closure(set(edge_list))
    violations = _brute_violations(closed)
    if violations:
        with pytest.raises(StructureError) as info:
            PreferentialStructure(_TABLE, universe, edge_list)
        assert str(info.value) == "; ".join(violations)
    else:
        assert PreferentialStructure(_TABLE, universe, edge_list).edges == closed


@pytest.mark.parametrize("size, tail", [(8, ""), (9, "; and 1 more"), (1024, "; and 1,016 more")])
def test_a_long_cycle_is_named_by_its_first_8_nodes_and_a_count(size, tail):
    table = SymbolTable([f"p{i}" for i in range(10)])
    with pytest.raises(StructureError) as info:
        PreferentialStructure(table, range(size), [(i, (i + 1) % size) for i in range(size)])
    named = "; ".join(f"irreflexivity: ({i},{i})" for i in range(8))
    assert str(info.value) == named + tail


@given(orders())
def test_is_total_equals_brute_force(case):
    universe, edge_list = case
    structure = PreferentialStructure(_TABLE, universe, edge_list)
    edges = structure.edges
    comparable = all(
        (a, b) in edges or (b, a) in edges for a in universe for b in universe if a < b
    )
    assert structure.is_total() == comparable


@given(st.sets(st.integers(0, 7), min_size=1), st.data())
def test_a_total_ranking_is_total(universe, data):
    ranked = data.draw(st.permutations(sorted(universe)))
    edges = [(a, b) for x, a in enumerate(ranked) for b in ranked[x + 1:]]
    assert PreferentialStructure(_TABLE, universe, edges).is_total()


@given(orders(), st.integers(0, 255), st.lists(formulas(), max_size=2), formulas())
def test_bitset_order_matches_brute_force(case, dmask, delta_list, alpha):
    universe, edge_list = case
    given_edges = set(edge_list)
    structure = PreferentialStructure(_TABLE, universe, edge_list)

    closed = _brute_closure(given_edges)
    assert structure.edges == closed
    assert structure.added_edges == closed - given_edges
    assert _brute_violations(closed) == []

    amask = dmask ^ 0b10110110
    maximal = _brute_maximal(universe, closed, dmask)
    assert _indices(structure.maximal_mask(dmask)) == sorted(maximal)
    holds = all((amask >> i) & 1 for i in maximal)
    assert pref_oracle(structure).mask_query(dmask, amask) == holds

    delta = frozenset(delta_list)
    models = _brute_maximal(universe, closed, premise_mask(delta, _TABLE))
    assert {v.index for v in structure.maximal_models(delta)} == models
    expected = all(evaluate(alpha, _TABLE.valuation(i)) for i in models)
    assert structure.pref_entails(delta, alpha) == expected


def test_long_chain_in_a_full_n16_universe_closes_fast():
    table = SymbolTable([f"p{i}" for i in range(16)])
    chain = [(i * 300, (i + 1) * 300) for i in range(200)]
    start = time.perf_counter()
    structure = PreferentialStructure(table, range(1 << 16), chain)
    elapsed = time.perf_counter() - start
    assert len(structure.edges) == 201 * 200 // 2
    assert elapsed < 1.0
