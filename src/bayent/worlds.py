"""Exact probability distributions over valuations and their queries.

Nothing is ever rounded. A WorldModel stores the probability of each of
the 2^n valuations of its symbol table as an integer weight over one
common denominator; queries (joint, conditional, posterior) sum the
weights of the satisfying valuations and return `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm

from .formula import MAX_SYMBOLS, FormulaError, SymbolTable, parse_formula, truth_mask

UNDEFINED = None  # conditional probability with zero-probability condition

_SELECT = bytes.maketrans(b"01", b"\0\1")


class WorldError(Exception):
    """Invalid distribution or world file."""


def exact(value):
    """value as a Fraction; a float raises TypeError, since 0.3 is not 3/10."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; give an int, Fraction or 'p/q'")
    return Fraction(value)


def premises(*formulas):
    """Normalize formulas into a premise set (duplicates removed)."""
    return frozenset(formulas)


def premise_mask(formulas, table):
    """Bitmask of valuations satisfying every formula in the set."""
    mask = (1 << table.num_valuations) - 1
    for f in formulas:
        mask &= truth_mask(f, table)
    return mask


def _selector(mask):
    """One byte per index, lowest first: 1 where the bit of mask is set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_SELECT)


def _indices(mask):
    """Indices of the set bits of mask, in increasing order."""
    digits = bin(mask)[:1:-1]
    found = []
    i = digits.find("1")
    while i >= 0:
        found.append(i)
        i = digits.find("1", i + 1)
    return found


def _mask_of(indices, size):
    """Bitmask of `size` bits with the given indices set; the inverse of _indices."""
    digits = bytearray(b"0" * size)
    for i in indices:
        digits[size - 1 - i] = ord("1")
    return int(digits, 2)


class WorldModel:
    """Distribution p over the valuations of a symbol table.

    p(v_i) = weights[i] / den, den being the least common denominator.
    Immutable after validation. Queries are pure, so a shared model may
    be used concurrently without coordination.
    """

    def __init__(self, table, probs):
        if len(table) > MAX_SYMBOLS:
            raise WorldError(
                f"{len(table)} symbols exceeds the enumeration cap of {MAX_SYMBOLS}"
            )
        size = table.num_valuations
        entries = [exact(p) for p in probs]
        if len(entries) != size:
            raise WorldError(f"need {size} probabilities, got {len(entries)}")
        den = lcm(*(p.denominator for p in entries))
        weights = tuple(p.numerator * (den // p.denominator) for p in entries)
        for i, (w, p) in enumerate(zip(weights, entries)):
            if w < 0:
                raise WorldError(f"negative probability {p} at valuation index {i}")
        if sum(weights) != den:
            total = Fraction(sum(weights), den)
            raise WorldError(f"probabilities sum to {total}, off by {1 - total}")
        self.table = table
        self.weights = weights
        self.den = den
        self.support_mask = _mask_of(compress(range(size), weights), size)

    @cached_property
    def probs(self):
        """The probabilities as Fractions, in valuation index order."""
        return tuple(Fraction(w, self.den) for w in self.weights)

    def __repr__(self):
        return f"WorldModel({self.table!r}, {[str(p) for p in self.probs]})"

    def __eq__(self, other):
        return (
            isinstance(other, WorldModel)
            and self.table == other.table
            and (self.den, self.weights) == (other.den, other.weights)
        )

    def p(self, v):
        """Probability of a single valuation."""
        return Fraction(self.weights[v.index], self.den)

    def weight(self, mask):
        """Integer weight, over den, of the valuations whose index bits are set."""
        return sum(compress(self.weights, _selector(mask)))

    def mass(self, mask):
        """Total probability of the valuations whose index bits are set in mask."""
        return Fraction(self.weight(mask), self.den)

    def models_of(self, delta):
        """Valuations satisfying every premise (all valuations when empty)."""
        mask = premise_mask(delta, self.table)
        return {self.table.valuation(i) for i in _indices(mask)}

    def prob(self, delta):
        """Joint probability of a premise set; 1 for the empty set."""
        return self.mass(premise_mask(delta, self.table))

    def conditional(self, alpha, delta):
        """p(alpha | delta), or UNDEFINED when the premises have zero mass."""
        dmask = premise_mask(delta, self.table)
        denom = self.mass(dmask)
        if denom == 0:
            return UNDEFINED
        return self.mass(dmask & truth_mask(alpha, self.table)) / denom

    def posterior(self, delta):
        """Updated distribution given the premises, as a WorldModel.

        UNDEFINED when the premises have zero mass.
        """
        dmask = premise_mask(delta, self.table)
        kept = self.weight(dmask)
        if kept == 0:
            return UNDEFINED
        selector = _selector(dmask).ljust(len(self.weights), b"\0")
        probs = [Fraction(w * bit, kept) for w, bit in zip(self.weights, selector)]
        return WorldModel(self.table, probs)

    def support(self):
        """Valuations with strictly positive probability."""
        return {self.table.valuation(i) for i in _indices(self.support_mask)}


def make_world(table, probs):
    """Validated WorldModel.

    Probabilities may be ints, Fractions, Decimals or exact rational
    strings such as '1/3' or '0.25'; floats raise TypeError.
    """
    return WorldModel(table, probs)


def uniform_world(table):
    n = table.num_valuations
    return WorldModel(table, [Fraction(1, n)] * n)


def parse_rational(text):
    """Exact rational from a 'p/q' or decimal string."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise WorldError(f"cannot parse {text!r} as an exact rational: {exc}") from exc


# --- JSON world files --------------------------------------------------
#
# {"symbols": ["a", "b"],
#  "worlds": [{"assignment": {"a": 0, "b": 0}, "prob": "1/2"}, ...]}
#
# Every one of the 2^n assignments must appear exactly once; "prob"
# accepts rational strings "p/q" or decimal strings parsed exactly.


def world_from_dict(data):
    try:
        symbols = data["symbols"]
        rows = data["worlds"]
    except (KeyError, TypeError) as exc:
        raise WorldError(f"world JSON must have 'symbols' and 'worlds': {exc}") from exc
    try:
        table = SymbolTable(symbols)
    except ValueError as exc:
        raise WorldError(str(exc)) from exc
    probs = [None] * table.num_valuations
    for row in rows:
        try:
            v = table.valuation_from_assignment(row["assignment"])
            prob = row["prob"]
        except KeyError as exc:
            raise WorldError(f"world row {row!r} has no {exc} key") from exc
        except (TypeError, ValueError, FormulaError) as exc:
            raise WorldError(f"bad world row {row!r}: {exc}") from exc
        if probs[v.index] is not None:
            raise WorldError(f"assignment {row['assignment']} appears twice")
        probs[v.index] = parse_rational(prob)
    missing = [i for i, p in enumerate(probs) if p is None]
    if missing:
        first = table.valuation(missing[0]).assignment()
        raise WorldError(f"missing {len(missing)} assignments, e.g. {first}")
    return WorldModel(table, probs)


def world_to_dict(model):
    return {
        "symbols": list(model.table.symbols),
        "worlds": [
            {
                "assignment": model.table.valuation(i).assignment(),
                "prob": str(model.probs[i]),
            }
            for i in range(model.table.num_valuations)
        ],
    }


def parse_premises(texts, table):
    """Parse a list of formula strings into a premise set."""
    return frozenset(parse_formula(t, table) for t in texts)
