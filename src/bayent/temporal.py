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
from math import gcd, lcm
from operator import mul

from .formula import FormulaError, _quoted
from .worlds import (
    WorldError,
    WorldModel,
    _selector,
    _shown,
    exact,
    parse_premises,
    parse_rational,
    premise_mask,
    world_from_dict,
)
from .entail import Verdict, bayes_entails, check_threshold


# A dense transition has 4^n cells; refuse more than 2^20 of them.
MAX_TEMPORAL_SYMBOLS = 10


class TemporalError(Exception):
    """Invalid temporal model or scenario file."""


def _check_temporal_size(table):
    """Raise TemporalError when table has more than MAX_TEMPORAL_SYMBOLS symbols."""
    if len(table) > MAX_TEMPORAL_SYMBOLS:
        raise TemporalError(
            f"{len(table)} symbols exceeds the temporal cap of {MAX_TEMPORAL_SYMBOLS}"
            f" (a transition over n symbols has 4^n cells)"
        )


def identity_transition(size):
    return sticky_transition(size, 0)


def sticky_transition(size, epsilon):
    """Stay with probability 1-epsilon, else move uniformly to another state."""
    eps = exact(epsilon)
    if not 0 <= eps <= 1:
        raise TemporalError(f"epsilon {_shown(eps)} outside [0, 1]")
    stay, off = (1 - eps, eps / (size - 1)) if size > 1 else (Fraction(1), 0)
    return tuple((off,) * i + (stay,) + (off,) * (size - 1 - i) for i in range(size))


class TemporalModel:
    """Prior over valuations plus a transition matrix between them.

    The prior is a WorldModel over table, or its probabilities. Row r of
    the transition matrix is the distribution of the next state given the
    current state has valuation index r; columns[c] holds column c as
    integers over one common denominator.
    """

    def __init__(self, table, prior, transition):
        _check_temporal_size(table)
        if isinstance(prior, WorldModel) and prior.table != table:
            raise TemporalError(f"prior is over {prior.table!r}, not {table!r}")
        try:
            self._prior = prior if isinstance(prior, WorldModel) else WorldModel(table, prior)
        except WorldError as exc:
            raise TemporalError(f"bad prior: {exc}") from exc
        size = table.num_valuations
        rows = tuple(tuple(exact(x) for x in row) for row in transition)
        if len(rows) != size or any(len(row) != size for row in rows):
            raise TemporalError(f"transition must be {size}x{size}")
        den = lcm(*(x.denominator for row in rows for x in row))
        int_rows = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        for r, row in enumerate(int_rows):
            if min(row) < 0:
                raise TemporalError(f"negative entry in transition row {r}")
            if sum(row) != den:
                total = _shown(Fraction(sum(row), den))
                raise TemporalError(f"transition row {r} sums to {total}, not 1")
        self.table = table
        self.prior = self._prior.probs
        self.transition = rows
        self.columns = tuple(zip(*int_rows))

    def prior_world(self):
        return self._prior

    def initial_belief(self):
        return BeliefState(self._prior.weights)


@dataclass(frozen=True)
class BeliefState:
    """Filtered distribution p(v_i) = counts[i] / sum(counts); dead when all are 0.

    The counts are divided by their gcd on construction, so equal beliefs are ==;
    weights gives the probabilities as Fractions, in valuation index order.
    """

    counts: tuple

    def __post_init__(self):
        g = gcd(*self.counts)
        if g > 1:
            object.__setattr__(self, "counts", tuple(c // g for c in self.counts))

    @property
    def alive(self):
        return any(self.counts)

    @property
    def weights(self):
        total = sum(self.counts) or 1
        return tuple(Fraction(c, total) for c in self.counts)

    @staticmethod
    def dead(size):
        return BeliefState((0,) * size)


def filter_step(model, belief, delta):
    """One predict-then-condition update: a dot product per column the premises keep."""
    if not belief.alive:
        return belief
    counts = belief.counts
    keep = _selector(premise_mask(delta, model.table)).ljust(len(counts), b"\0")
    dots = (sum(map(mul, counts, col)) if k else 0 for col, k in zip(model.columns, keep))
    return BeliefState(tuple(dots))


def run_filter(model, observations):
    """Fold filter_step over the observation sequence, starting from the prior."""
    belief = model.initial_belief()
    for delta in observations:
        belief = filter_step(model, belief, delta)
    return belief


def temporal_entails(model, observations, alpha, omega):
    """Threshold entailment of alpha at the final step; vacuous once the belief dies."""
    return belief_verdict(model, run_filter(model, observations), alpha, omega)


def belief_verdict(model, belief, alpha, omega):
    """bayes_entails on the belief as a world, without witnesses; vacuous when dead."""
    w = check_threshold(omega)
    if not belief.alive:
        return Verdict(holds=True, probability=None, vacuous=True)
    world = WorldModel.from_weights(model.table, belief.counts, sum(belief.counts))
    verdict = bayes_entails(world, (), alpha, w)
    return Verdict(holds=verdict.holds, probability=verdict.probability, vacuous=False)


# --- Scenario JSON -----------------------------------------------------
#
# {"prior": <world file body>,
#  "transition": {"kind": "identity"}
#              | {"kind": "sticky", "epsilon": "1/10"}
#              | {"kind": "matrix", "rows": [["1", "0", ...], ...]},
#  "observations": [["a", "~a|b"], ["b"]]}


def _list_of_lists(value, name):
    """value, unless it or an item is a string, which would iterate as characters."""
    if isinstance(value, str) or any(isinstance(item, str) for item in value):
        raise TypeError(f"'{name}' must be a list of lists, not strings")
    return value


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
    _check_temporal_size(table)

    kind = transition_spec.get("kind") if isinstance(transition_spec, dict) else None
    if kind == "identity":
        transition = identity_transition(table.num_valuations)
    elif kind == "sticky":
        try:
            epsilon = parse_rational(transition_spec["epsilon"])
        except KeyError:
            raise TemporalError("sticky transition needs an 'epsilon'") from None
        except WorldError as exc:
            raise TemporalError(f"bad sticky 'epsilon': {exc}") from exc
        transition = sticky_transition(table.num_valuations, epsilon)
    elif kind == "matrix":
        try:
            rows = _list_of_lists(transition_spec["rows"], "rows")
            transition = [[parse_rational(x) for x in row] for row in rows]
        except (KeyError, TypeError, WorldError) as exc:
            raise TemporalError(f"bad transition matrix: {exc}") from exc
    else:
        raise TemporalError(f"unknown transition kind {_quoted(kind)}")

    model = TemporalModel(table, prior, transition)
    try:
        rows = _list_of_lists(observation_rows, "observations")
        observations = [parse_premises(row, table) for row in rows]
    except FormulaError as exc:
        raise TemporalError(f"bad observation: {exc}") from exc
    except TypeError as exc:
        raise TemporalError(f"observations must be lists of formulas: {exc}") from exc
    return model, observations
