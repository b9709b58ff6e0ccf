from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from bayent import (
    BeliefState,
    SymbolTable,
    TemporalError,
    TemporalModel,
    WorldModel,
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
from bayent.temporal import belief_verdict


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

    @pytest.mark.parametrize(
        "rows",
        [[[1, 0]], [[1, 0], [0, 1], [0, 1]], [[1, 0], [0, 1, 0]], [[1], [1]]],
        ids=["too few rows", "too many rows", "long row", "short rows"],
    )
    def test_transition_must_be_square(self, a_table, rows):
        with pytest.raises(TemporalError, match="^transition must be 2x2$"):
            TemporalModel(a_table, [Fraction(1, 2)] * 2, rows)

    def test_prior_checked(self, a_table):
        with pytest.raises(TemporalError, match="prior"):
            TemporalModel(a_table, [Fraction(1, 2), Fraction(1, 4)], identity_transition(2))

    def test_prior_errors_are_the_world_model_errors(self, a_table):
        with pytest.raises(TemporalError, match="^bad prior: need 2 probabilities, got 1$"):
            TemporalModel(a_table, [1], identity_transition(2))
        with pytest.raises(TemporalError, match="^bad prior: negative probability -1/2"):
            TemporalModel(a_table, ["-1/2", "3/2"], identity_transition(2))

    def test_prior_world_is_the_stored_model(self, table1_world):
        model = TemporalModel(table1_world.table, table1_world.probs, identity_transition(4))
        assert model.prior_world() is model.prior_world()
        assert model.prior_world() == table1_world
        assert model.prior == table1_world.probs

    def test_prior_may_be_the_world_model_itself(self, table1_world):
        model = TemporalModel(table1_world.table, table1_world, identity_transition(4))
        assert model.prior_world() is table1_world
        assert model.prior == table1_world.probs

    def test_prior_model_over_another_table_refused(self, a_table, table1_world):
        with pytest.raises(TemporalError, match="^prior is over SymbolTable"):
            TemporalModel(a_table, table1_world, identity_transition(2))

    def test_row_sum_reported_exactly(self, a_table):
        rows = [[1, 0], [Fraction(1, 3), Fraction(1, 2**20)]]
        total = Fraction(1, 3) + Fraction(1, 2**20)
        with pytest.raises(TemporalError, match=f"^transition row 1 sums to {total}, not 1$"):
            TemporalModel(a_table, [Fraction(1, 2)] * 2, rows)

    def test_identity_is_sticky_at_zero(self):
        for size in (1, 2, 4):
            rows = identity_transition(size)
            assert rows == sticky_transition(size, 0)
            assert rows == tuple(
                tuple(Fraction(int(i == j)) for j in range(size)) for i in range(size)
            )

    def test_sticky_rows_are_stochastic(self, ab):
        rows = sticky_transition(4, Fraction(1, 10))
        for row in rows:
            assert sum(row) == 1
        assert rows[0][0] == Fraction(9, 10)
        assert rows[0][1] == Fraction(1, 30)

    def test_sticky_epsilon_range(self):
        with pytest.raises(TemporalError):
            sticky_transition(4, Fraction(3, 2))

    def test_too_many_symbols_refused_before_rows_are_read(self):
        table = SymbolTable([f"s{i}" for i in range(11)])
        with pytest.raises(TemporalError, match="temporal cap of 10"):
            TemporalModel(table, [], iter(()))

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


class TestBeliefState:
    def test_counts_kept_in_lowest_terms(self):
        assert BeliefState((2, 0, 4)).counts == (1, 0, 2)
        assert BeliefState((2, 0, 4)) == BeliefState((3, 0, 6)) == BeliefState((1, 0, 2))
        assert BeliefState((1, 0, 2)) != BeliefState((2, 0, 1))

    def test_weights_and_alive(self):
        belief = BeliefState((3, 0, 6))
        assert belief.alive
        assert belief.weights == (Fraction(1, 3), Fraction(0), Fraction(2, 3))
        assert all(type(w) is Fraction for w in belief.weights)

    def test_dead(self):
        dead = BeliefState.dead(3)
        assert not dead.alive
        assert dead.counts == (0, 0, 0)
        assert dead.weights == (Fraction(0),) * 3
        assert dead == BeliefState((0, 0, 0))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BeliefState((1, 1)).counts = (1, 2)

    def test_counts_must_be_integers(self):
        with pytest.raises(TypeError):
            BeliefState((Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(TypeError):
            BeliefState((0.5, 0.5))


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

    def test_threshold_is_inclusive_and_exact(self, a_table):
        model = TemporalModel(a_table, [Fraction(2, 3), Fraction(1, 3)], identity_transition(2))
        alpha = parse_formula("a", a_table)
        assert temporal_entails(model, [], alpha, Fraction(1, 3)).holds
        v = temporal_entails(model, [], alpha, Fraction(1, 3) + Fraction(1, 10**30))
        assert not v.holds and v.probability == Fraction(1, 3)

    def test_verdict_is_bayes_entails_on_the_belief_without_witnesses(self, ab, f):
        prior = random_world(ab, 5, Fraction(1, 4)).probs
        model = TemporalModel(ab, prior, sticky_transition(4, Fraction(1, 7)))
        belief = run_filter(model, [parse_premises(["a | b"], ab)])
        world = WorldModel(ab, belief.weights)
        for text in ("a", "~a", "a & b", "b"):
            for omega in (0, Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), 1):
                v = belief_verdict(model, belief, f(text), omega)
                static = bayes_entails(world, (), f(text), omega)
                assert (v.holds, v.probability, v.vacuous) == (
                    static.holds,
                    static.probability,
                    False,
                )
                assert v.witnesses == ()

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

    def test_matrix_with_mixed_denominators_matches_trajectory_enumeration(self, ab, f):
        r2 = [Fraction(1, 2**20), Fraction(3, 10), Fraction(1, 2)]
        rows = [
            [Fraction(1, 3), Fraction(2, 3), 0, 0],
            [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 7)],
            r2 + [1 - sum(r2)],
            [Fraction(1, 12), Fraction(5, 12), Fraction(1, 4), Fraction(1, 4)],
        ]
        prior = random_world(ab, 23, Fraction(1, 4))
        model = TemporalModel(ab, prior.probs, rows)
        for obs in (
            [set(), set(), set()],
            [{f("a | b")}, set(), {f("b")}, {f("~a | b")}],
            [{f("a")}, {f("~a & ~b")}],
            [{f("b")}, {f("a & ~b")}, {f("a")}],
        ):
            expected = brute_force_final_marginal(model, obs)
            assert list(run_filter(model, obs).weights) == expected

    def test_counts_stay_in_lowest_terms_along_a_long_chain(self, ab, f):
        prior = random_world(ab, 9, 0)
        model = TemporalModel(ab, prior.probs, sticky_transition(4, Fraction(1, 10)))
        belief = model.initial_belief()
        observations = [set(), {f("a | b")}, {f("~a | b")}]
        for t in range(30):
            belief = filter_step(model, belief, observations[t % 3])
            assert belief.alive
            assert gcd(*belief.counts) == 1

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

    def test_prior_model_is_built_once(self, monkeypatch, table1_world):
        built = []
        from_weights = WorldModel.from_weights.__func__

        def counting(cls, *args):
            built.append(args)
            return from_weights(cls, *args)

        monkeypatch.setattr(WorldModel, "from_weights", classmethod(counting))
        body = world_to_dict(table1_world)
        model, _ = scenario_from_dict(self.scenario(body, {"kind": "identity"}, []))
        assert len(built) == 1
        assert model.prior_world() == table1_world

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
