"""Entailment engines: classical, threshold-based, and maximum-a-posteriori.

The threshold engine accepts a conclusion when its conditional
probability given the premises reaches the threshold, or vacuously when
the premises have zero probability. The MAP engine judges the
conclusion only at the posterior-mode valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .formula import truth_mask
from .worlds import _indices, _mask_of, exact, premise_mask

UNIVERSAL = "universal"
EXISTENTIAL = "existential"


def check_threshold(omega):
    """Validate and normalize a threshold to an exact Fraction in [0, 1]."""
    w = exact(omega)
    if not 0 <= w <= 1:
        raise ValueError(f"threshold {w} outside [0, 1]")
    return w


@dataclass(frozen=True)
class Verdict:
    """Outcome of an entailment query.

    probability is None exactly when the verdict is vacuous (zero-mass
    premises). witnesses are MAP estimates on success paths that have
    them, or supported countermodels on failure; always sorted by
    valuation index.
    """

    holds: bool
    probability: Fraction | None
    vacuous: bool
    witnesses: tuple = ()

    def __post_init__(self):
        if self.vacuous and not self.holds:
            raise ValueError("vacuous verdicts hold by definition")
        if (self.probability is None) != self.vacuous:
            raise ValueError("probability is undefined iff vacuous")

    def to_dict(self):
        return {
            "holds": self.holds,
            "probability": None if self.probability is None else str(self.probability),
            "vacuous": self.vacuous,
            "witnesses": [
                {"index": v.index, "assignment": v.assignment()}
                for v in self.witnesses
            ],
        }


def classical_entails(table, delta, alpha):
    """True iff every valuation satisfying the premises satisfies alpha.

    Probabilities play no role; all 2^n valuations count.
    """
    dmask = premise_mask(delta, table)
    return dmask & ~truth_mask(alpha, table) == 0


def bayes_entails(model, delta, alpha, omega):
    """Threshold entailment verdict for the premises and conclusion.

    Holds when p(alpha | delta) >= omega, or vacuously when
    p(delta) = 0. On failure the witnesses are the supported
    countermodels: valuations with positive probability satisfying the
    premises but not alpha.
    """
    w = check_threshold(omega)
    table = model.table
    dmask = premise_mask(delta, table)
    denom = model.mass(dmask)
    if denom == 0:
        return Verdict(holds=True, probability=None, vacuous=True)
    amask = truth_mask(alpha, table)
    p = model.mass(dmask & amask) / denom
    if p >= w:
        return Verdict(holds=True, probability=p, vacuous=False)
    counter_mask = dmask & ~amask & model.support_mask
    witnesses = tuple(table.valuation(i) for i in _indices(counter_mask))
    return Verdict(holds=False, probability=p, vacuous=False, witnesses=witnesses)


def map_mask(model, dmask):
    """Bitmask of the maximizers of p(v | dmask); 0 when dmask has zero mass.

    A max over the integer weights of the supported valuations in dmask.
    """
    weights = model.weights
    candidates = _indices(dmask & model.support_mask)
    best = max(map(weights.__getitem__, candidates), default=0)
    return _mask_of((i for i in candidates if weights[i] == best), len(weights))


def map_set(model, delta):
    """All maximizers of p(v | delta), or None when p(delta) = 0."""
    winners = map_mask(model, premise_mask(delta, model.table))
    if winners == 0:
        return None
    return {model.table.valuation(i) for i in _indices(winners)}


def map_entails(model, delta, alpha, mode=UNIVERSAL):
    """MAP entailment verdict.

    Vacuously holds when the premises have zero mass. Otherwise the
    conclusion must be true at every posterior-mode valuation
    (universal mode) or at least one (existential mode). The witnesses
    are the MAP set. The reported probability is the share of the MAP
    set where the conclusion is true.
    """
    if mode not in (UNIVERSAL, EXISTENTIAL):
        raise ValueError(f"unknown mode {mode!r}")
    maximizers = map_set(model, delta)
    if maximizers is None:
        return Verdict(holds=True, probability=None, vacuous=True)
    amask = truth_mask(alpha, model.table)
    winners = _mask_of((v.index for v in maximizers), len(model.weights))
    hits = (winners & amask).bit_count()
    holds = hits == len(maximizers) if mode == UNIVERSAL else hits > 0
    witnesses = tuple(sorted(maximizers, key=lambda v: v.index))
    return Verdict(
        holds=holds,
        probability=Fraction(hits, len(maximizers)),
        vacuous=False,
        witnesses=witnesses,
    )
