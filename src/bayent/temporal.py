"""Temporal extension: a chain of world states with per-step observations.

The state at each step is a distribution over valuations; each step
first pushes the belief through a row-stochastic transition matrix,
then conditions on that step's observed premise set. Conditioning on a
zero-mass observation kills the belief; a dead belief is absorbing and
every subsequent entailment verdict is vacuous, mirroring the
zero-probability clause of the static engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .formula import FormulaError, truth_mask
from .worlds import (
    WorldError,
    WorldModel,
    _selector,
    exact,
    parse_premises,
    parse_rational,
    premise_mask,
    world_from_dict,
)
from .entail import Verdict, check_threshold


class TemporalError(Exception):
    """Invalid temporal model or scenario file."""


def identity_transition(size):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(size))
        for i in range(size)
    )


def sticky_transition(size, epsilon):
    """Stay with probability 1-epsilon, else move uniformly to another state."""
    eps = exact(epsilon)
    if not 0 <= eps <= 1:
        raise TemporalError(f"epsilon {eps} outside [0, 1]")
    if size == 1:
        return identity_transition(1)
    off = eps / (size - 1)
    return tuple(
        tuple(1 - eps if i == j else off for j in range(size))
        for i in range(size)
    )


class TemporalModel:
    """Prior over valuations plus a transition matrix between them.

    Row r of the transition matrix is the distribution of the next
    state given the current state has valuation index r.
    """

    def __init__(self, table, prior, transition):
        size = table.num_valuations
        prior = tuple(exact(p) for p in prior)
        if len(prior) != size:
            raise TemporalError(f"prior needs {size} entries, got {len(prior)}")
        if any(p < 0 for p in prior):
            raise TemporalError("negative prior entry")
        if sum(prior) != 1:
            raise TemporalError(f"prior sums to {sum(prior)}, not 1")
        rows = tuple(tuple(exact(x) for x in row) for row in transition)
        if len(rows) != size or any(len(row) != size for row in rows):
            raise TemporalError(f"transition must be {size}x{size}")
        for r, row in enumerate(rows):
            if any(x < 0 for x in row):
                raise TemporalError(f"negative entry in transition row {r}")
            if sum(row) != 1:
                raise TemporalError(f"transition row {r} sums to {sum(row)}, not 1")
        self.table = table
        self.prior = prior
        self.transition = rows

    def prior_world(self):
        return WorldModel(self.table, self.prior)

    def initial_belief(self):
        return BeliefState(weights=self.prior, alive=True)


@dataclass(frozen=True)
class BeliefState:
    """Filtered distribution over valuations; dead once all mass is gone."""

    weights: tuple
    alive: bool

    def __post_init__(self):
        total = sum(self.weights)
        if self.alive and total != 1:
            raise ValueError(f"alive belief sums to {total}, not 1")
        if not self.alive and any(w != 0 for w in self.weights):
            raise ValueError("dead belief must carry no mass")

    @staticmethod
    def dead(size):
        return BeliefState(weights=(Fraction(0),) * size, alive=False)


def filter_step(model, belief, delta):
    """One predict-then-condition update of the belief."""
    size = model.table.num_valuations
    if not belief.alive:
        return belief
    predicted = [
        sum(
            (belief.weights[r] * model.transition[r][c] for r in range(size)),
            Fraction(0),
        )
        for c in range(size)
    ]
    dmask = premise_mask(delta, model.table)
    conditioned = [
        predicted[i] if (dmask >> i) & 1 else Fraction(0) for i in range(size)
    ]
    total = sum(conditioned)
    if total == 0:
        return BeliefState.dead(size)
    return BeliefState(weights=tuple(w / total for w in conditioned), alive=True)


def run_filter(model, observations):
    """Fold filter_step over the observation sequence, starting from the prior."""
    belief = model.initial_belief()
    for delta in observations:
        belief = filter_step(model, belief, delta)
    return belief


def temporal_entails(model, observations, alpha, omega):
    """Threshold entailment of the conclusion at the final step.

    Vacuously holds when the filtered belief is dead.
    """
    return belief_verdict(model, run_filter(model, observations), alpha, omega)


def belief_verdict(model, belief, alpha, omega):
    """Threshold verdict on alpha under a filtered belief; vacuous when it is dead."""
    w = check_threshold(omega)
    if not belief.alive:
        return Verdict(holds=True, probability=None, vacuous=True)
    amask = truth_mask(alpha, model.table)
    p = sum(compress(belief.weights, _selector(amask)), Fraction(0))
    return Verdict(holds=p >= w, probability=p, vacuous=False)


# --- Scenario JSON -----------------------------------------------------
#
# {"prior": <world file body>,
#  "transition": {"kind": "identity"}
#              | {"kind": "sticky", "epsilon": "1/10"}
#              | {"kind": "matrix", "rows": [["1", "0", ...], ...]},
#  "observations": [["a", "~a|b"], ["b"]]}


def scenario_from_dict(data):
    """Parse a scenario into (TemporalModel, observations)."""
    try:
        prior_body = data["prior"]
        transition_spec = data["transition"]
        observation_rows = data["observations"]
    except (KeyError, TypeError) as exc:
        raise TemporalError(
            f"scenario JSON needs 'prior', 'transition' and 'observations': {exc}"
        ) from exc
    try:
        prior = world_from_dict(prior_body)
    except WorldError as exc:
        raise TemporalError(f"bad prior: {exc}") from exc
    table = prior.table
    size = table.num_valuations

    kind = transition_spec.get("kind") if isinstance(transition_spec, dict) else None
    if kind == "identity":
        transition = identity_transition(size)
    elif kind == "sticky":
        try:
            epsilon = parse_rational(transition_spec["epsilon"])
        except (KeyError, WorldError) as exc:
            raise TemporalError(f"sticky transition needs an 'epsilon': {exc}") from exc
        transition = sticky_transition(size, epsilon)
    elif kind == "matrix":
        try:
            transition = [
                [parse_rational(x) for x in row] for row in transition_spec["rows"]
            ]
        except (KeyError, TypeError, WorldError) as exc:
            raise TemporalError(f"bad transition matrix: {exc}") from exc
    else:
        raise TemporalError(f"unknown transition kind {kind!r}")

    model = TemporalModel(table, prior.probs, transition)
    try:
        observations = [parse_premises(row, table) for row in observation_rows]
    except FormulaError as exc:
        raise TemporalError(f"bad observation: {exc}") from exc
    return model, observations
