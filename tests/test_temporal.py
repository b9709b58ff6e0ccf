from fractions import Fraction
from itertools import product

import pytest

from bayent import (
    BeliefState,
    SymbolTable,
    TemporalError,
    TemporalModel,
    bayes_entails,
    evaluate,
    filter_step,
    identity_transition,
    parse_formula,
    parse_premises,
    random_world,
    run_filter,
    scenario_from_dict,
    sticky_transition,
    temporal_entails,
    uniform_world,
    world_to_dict,
)


def brute_force_final_marginal(model, observations):
    """Independent oracle: sum prior * transitions * observation indicators
    over every valuation trajectory, then normalize the final step.

    The prior is the pre-transition belief, so a trajectory includes a
    latent initial state ahead of the first observed step.
    """
    size = model.table.num_valuations
    steps = len(observations)
    masks = []
    for delta in observations:
        mask = (1 << size) - 1
        for g in delta:
            m = 0
            for i in range(size):
                if evaluate(g, model.table.valuation(i)):
                    m |= 1 << i
            mask &= m
        masks.append(mask)
    weights = [Fraction(0)] * size
    for path in product(range(size), repeat=steps + 1):
        w = model.prior[path[0]]
        for t in range(1, steps + 1):
            w *= model.transition[path[t - 1]][path[t]]
            if not (masks[t - 1] >> path[t]) & 1:
                w = Fraction(0)
                break
        weights[path[-1]] += w
    total = sum(weights)
    if total == 0:
        return None
    return [w / total for w in weights]


@pytest.fixture
def a_table():
    return SymbolTable(["a"])


@pytest.fixture
def identity_model(a_table):
    return TemporalModel(
        a_table, [Fraction(1, 2), Fraction(1, 2)], identity_transition(2)
    )


class TestModelValidation:
    def test_row_sum_checked(self, a_table):
        with pytest.raises(TemporalError, match="row 0"):
            TemporalModel(
                a_table,
                [Fraction(1, 2), Fraction(1, 2)],
                [[Fraction(1, 2), Fraction(1, 4)], [0, 1]],
            )

    def test_prior_checked(self, a_table):
        with pytest.raises(TemporalError, match="prior"):
            TemporalModel(a_table, [Fraction(1, 2), Fraction(1, 4)], identity_transition(2))

    def test_sticky_rows_are_stochastic(self, ab):
        rows = sticky_transition(4, Fraction(1, 10))
        for row in rows:
            assert sum(row) == 1
        assert rows[0][0] == Fraction(9, 10)
        assert rows[0][1] == Fraction(1, 30)

    def test_sticky_epsilon_range(self):
        with pytest.raises(TemporalError):
            sticky_transition(4, Fraction(3, 2))

    def test_floats_rejected(self, a_table):
        with pytest.raises(TypeError, match="float"):
            sticky_transition(4, 0.1)
        with pytest.raises(TypeError, match="float"):
            TemporalModel(a_table, [0.5, 0.5], identity_transition(2))
        model = TemporalModel(a_table, [Fraction(1, 2)] * 2, identity_transition(2))
        with pytest.raises(TypeError, match="float"):
            temporal_entails(model, [], parse_formula("a", a_table), 0.5)


class TestFilterStep:
    def test_conditioning_kills_false_states(self, identity_model, a_table):
        delta = parse_premises(["a"], a_table)
        belief = filter_step(identity_model, identity_model.initial_belief(), delta)
        assert belief.alive
        assert belief.weights == (Fraction(0), Fraction(1))

    def test_contradiction_gives_dead_state(self, identity_model, a_table):
        delta = parse_premises(["a & ~a"], a_table)
        belief = filter_step(identity_model, identity_model.initial_belief(), delta)
        assert not belief.alive
        assert all(w == 0 for w in belief.weights)

    def test_empty_observation_is_noop(self, identity_model):
        belief = filter_step(identity_model, identity_model.initial_belief(), set())
        assert belief.weights == identity_model.prior

    def test_dead_is_absorbing(self, identity_model, a_table):
        dead = BeliefState.dead(2)
        assert filter_step(identity_model, dead, set()) is dead


class TestRunFilter:
    def test_single_step_matches_static_posterior(self, ab, f):
        prior = random_world(ab, 5, 0)
        model = TemporalModel(ab, prior.probs, identity_transition(4))
        delta = {f("a | ~b")}
        belief = run_filter(model, [delta])
        assert belief.weights == prior.posterior(delta).probs

    def test_empty_sequence_returns_prior(self, identity_model):
        assert run_filter(identity_model, []).weights == identity_model.prior

    def test_frozen_contradiction_across_time(self, identity_model, a_table):
        obs = [parse_premises(["a"], a_table), parse_premises(["~a"], a_table)]
        assert not run_filter(identity_model, obs).alive

    def test_normalization_every_step(self, ab, f):
        prior = random_world(ab, 9, 0)
        model = TemporalModel(ab, prior.probs, sticky_transition(4, Fraction(1, 10)))
        belief = model.initial_belief()
        for delta in [set(), {f("a | b")}, {f("~a | b")}]:
            belief = filter_step(model, belief, delta)
            assert belief.alive
            assert sum(belief.weights) == 1


class TestTemporalEntails:
    def test_reduces_to_static_engine(self, ab, table1_world, f):
        model = TemporalModel(ab, table1_world.probs, identity_transition(4))
        delta = {f("a | ~b"), f("~a | b")}
        v = temporal_entails(model, [delta], f("~a"), Fraction(3, 5))
        assert v.holds
        assert v.probability == Fraction(5, 8)
        static = bayes_entails(table1_world, delta, f("~a"), Fraction(3, 5))
        assert (v.holds, v.probability) == (static.holds, static.probability)

    def test_vacuous_on_dead_belief(self, identity_model, a_table):
        obs = [parse_premises(["a"], a_table), parse_premises(["~a"], a_table)]
        alpha = parse_formula("a", a_table)
        v = temporal_entails(identity_model, obs, alpha, Fraction(1, 2))
        assert v.holds and v.vacuous

    def test_sticky_chain_matches_trajectory_enumeration(self, a_table):
        model = TemporalModel(
            a_table,
            [Fraction(1, 2), Fraction(1, 2)],
            sticky_transition(2, Fraction(1, 10)),
        )
        obs = [
            parse_premises(["a"], a_table),
            parse_premises(["a"], a_table),
            parse_premises(["~a"], a_table),
        ]
        belief = run_filter(model, obs)
        expected = brute_force_final_marginal(model, obs)
        assert list(belief.weights) == expected

    def test_filter_equals_brute_force_on_random_chains(self, ab, f):
        prior = random_world(ab, 17, Fraction(1, 4))
        model = TemporalModel(ab, prior.probs, sticky_transition(4, Fraction(1, 5)))
        for obs in (
            [set()] * 4,
            [{f("a | b")}, set(), {f("~a | b")}, {f("b")}],
            [{f("a")}, {f("a & b")}],
        ):
            belief = run_filter(model, obs)
            expected = brute_force_final_marginal(model, obs)
            if expected is None:
                assert not belief.alive
            else:
                assert list(belief.weights) == expected


class TestScenario:
    def scenario(self, model_words, transition, observations):
        return {
            "prior": model_words,
            "transition": transition,
            "observations": observations,
        }

    def test_identity_scenario(self, table1_world):
        model, obs = scenario_from_dict(
            self.scenario(
                world_to_dict(table1_world),
                {"kind": "identity"},
                [["a|~b", "~a|b"]],
            )
        )
        v = temporal_entails(
            model, obs, parse_formula("~a", model.table), Fraction(3, 5)
        )
        assert v.probability == Fraction(5, 8)

    def test_matrix_and_sticky_kinds(self, table1_world):
        body = world_to_dict(table1_world)
        model, _ = scenario_from_dict(
            self.scenario(body, {"kind": "sticky", "epsilon": "1/10"}, [])
        )
        assert model.transition[0][0] == Fraction(9, 10)
        rows = [["1", "0", "0", "0"]] * 4
        model, _ = scenario_from_dict(
            self.scenario(body, {"kind": "matrix", "rows": rows}, [])
        )
        assert model.transition[3][0] == 1

    def test_bad_matrix_row_named(self, table1_world):
        rows = [["1", "0", "0", "0"]] * 3 + [["1/2", "0", "0", "0"]]
        with pytest.raises(TemporalError, match="row 3"):
            scenario_from_dict(
                self.scenario(world_to_dict(table1_world), {"kind": "matrix", "rows": rows}, [])
            )

    def test_unknown_kind(self, table1_world):
        with pytest.raises(TemporalError, match="kind"):
            scenario_from_dict(
                self.scenario(world_to_dict(table1_world), {"kind": "warp"}, [])
            )
