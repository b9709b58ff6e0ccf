"""Entailment engines: classical, threshold-based, and maximum-a-posteriori.

The threshold engine accepts a conclusion when its conditional
probability given the premises reaches the threshold, or vacuously when
the premises have zero probability. The MAP engine judges the
conclusion only at the posterior-mode valuations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .formula import _quoted, truth_mask
from .worlds import _indices, _shown, exact, premise_mask

UNIVERSAL = "universal"
EXISTENTIAL = "existential"


def check_threshold(omega):
    """Validate and normalize a threshold to an exact Fraction in [0, 1]."""
    w = exact(omega)
    if not 0 <= w <= 1:
        raise ValueError(f"threshold {_shown(w)} outside [0, 1]")
    return w


def check_mode(mode):
    """Validate a MAP mode: UNIVERSAL or EXISTENTIAL."""
    if mode not in (UNIVERSAL, EXISTENTIAL):
        raise ValueError(f"unknown mode {_quoted(mode)}")


def valuation_rows(table, mask):
    """JSON rows {"index", "assignment"} of the set bits of mask, in index order."""
    return [{"index": i, "assignment": table.assignment(i)} for i in _indices(mask)]


@dataclass(frozen=True)
class Verdict:
    """Outcome of an entailment query.

    probability is None exactly when the verdict is vacuous (zero-mass
    premises). witnesses are MAP estimates on success paths that have
    them, or supported countermodels on failure; always sorted by
    valuation index. An engine's verdict keeps them as its mask until
    .witnesses is first read; to_dict renders rows from the mask.
    """

    holds: bool
    probability: Fraction | None
    vacuous: bool
    witnesses: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.vacuous and not self.holds:
            raise ValueError("vacuous verdicts hold by definition")
        if (self.probability is None) != self.vacuous:
            raise ValueError("probability is undefined iff vacuous")

    @classmethod
    def _of_mask(cls, holds, probability, table, mask):
        """Non-vacuous verdict whose witnesses are the valuations at mask's bits."""
        verdict = cls.__new__(cls)
        vars(verdict).update(
            holds=holds, probability=probability, vacuous=False, _rows=(table, mask)
        )
        return verdict

    def __getattr__(self, name):
        # reached only for names not in the instance dict: witnesses of a
        # mask-backed verdict, built once; any other name is missing
        if name != "witnesses":
            raise AttributeError(name)
        table, mask = self._rows
        found = vars(self)["witnesses"] = tuple(map(table.valuation, _indices(mask)))
        return found

    def to_dict(self):
        if "_rows" in vars(self):
            rows = valuation_rows(*self._rows)
        else:
            rows = [{"index": v.index, "assignment": v.assignment()} for v in self.witnesses]
        return {
            "holds": self.holds,
            "probability": None if self.probability is None else str(self.probability),
            "vacuous": self.vacuous,
            "witnesses": rows,
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
    kept = model.weight(dmask)
    if kept == 0:
        return Verdict(holds=True, probability=None, vacuous=True)
    amask = truth_mask(alpha, table)
    hit = model.weight(dmask & amask)
    p = Fraction(hit, kept)
    # p >= w = num/den, cross-multiplied over the integer weights
    if hit * w.denominator >= w.numerator * kept:
        return Verdict(holds=True, probability=p, vacuous=False)
    return Verdict._of_mask(False, p, table, dmask & ~amask & model.support_mask)


def map_mask(model, dmask):
    """Bitmask of the maximizers of p(v | dmask); 0 when dmask has zero mass.

    Walks the weight planes from the most significant bit down, keeping
    the supported candidates that have the bit set whenever any does;
    the survivors share the maximal weight.
    """
    winners = dmask & model.support_mask
    for plane in reversed(model.planes):
        top = winners & plane
        if top:
            winners = top
    return winners


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
    check_mode(mode)
    table = model.table
    winners = map_mask(model, premise_mask(delta, table))
    if winners == 0:
        return Verdict(holds=True, probability=None, vacuous=True)
    count = winners.bit_count()
    hits = (winners & truth_mask(alpha, table)).bit_count()
    holds = hits == count if mode == UNIVERSAL else hits > 0
    return Verdict._of_mask(holds, Fraction(hits, count), table, winners)
