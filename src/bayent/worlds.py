"""Exact probability distributions over valuations and their queries.

Nothing is ever rounded. A WorldModel stores the probability of each of
the 2^n valuations of its symbol table as an integer weight over one
common denominator, and the same weights again as bit planes: planes[b]
is the mask of the valuations whose weight has bit b set. Queries
(joint, conditional, posterior) sum the weight of a mask plane by plane
and return `Fraction`s.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, product, repeat
from math import gcd, lcm
from operator import mul, or_

from .formula import (
    _DIGIT_BITS,
    FormulaError,
    SymbolTable,
    _quoted,
    parse_formula,
    truth_mask,
)

UNDEFINED = None  # conditional probability with zero-probability condition

# _NONZERO maps a byte to 1 unless it is 0; _BYTE_BITS[v] lists the set bits of v.
_NONZERO = bytes(1) + b"\1" * 255
_BYTE_BITS = [()]
for _t in range(8):  # the bytes v + 2^t have the bits of v and bit t
    _BYTE_BITS += [bits + (_t,) for bits in _BYTE_BITS]

# _DIGIT[t] maps a byte to the ASCII digit of its bit t.
_DIGIT = tuple(bytes(48 + (v >> t & 1) for v in range(256)) for t in range(8))

_PROB = re.compile(r'"prob": "([0-9]+(?:/[0-9]+)?)"\}')

# 10^e has e + 1 digits; int() refuses to read more than 4300 of them from a string
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+)")
_SHOWN_BITS = 332  # 2^332 < 10^100: _shown prints a term of up to 100 digits in full


class WorldError(Exception):
    """Invalid distribution or world file."""


def exact(value):
    """value as a Fraction; a float raises TypeError, since 0.3 is not 3/10, and a '_'
    or a decimal exponent above MAX_EXPONENT raises ValueError (before 10^e is built)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; give an int, Fraction or 'p/q'")
    if isinstance(value, str) and "_" in value:  # Fraction reads '1_0' from Python 3.11 on
        raise ValueError(f"'_' is not a digit in {_quoted(value)}")
    exponent = None if isinstance(value, int) else _EXPONENT.search(str(value))
    if exponent and int(exponent[1]) > MAX_EXPONENT:
        raise ValueError(f"exponent {exponent[1]} is above {MAX_EXPONENT}")
    return Fraction(value)


def _shown(x):
    """str(x), or its sign and size when a term is too long to read in a one-line message."""
    num, den = x.numerator.bit_length(), x.denominator.bit_length()
    if max(num, den) <= _SHOWN_BITS:
        return str(x)
    return f"a {'negative ' if x < 0 else ''}ratio of {num}-bit and {den}-bit ints"


def premise_mask(formulas, table):
    """Bitmask of valuations satisfying every formula in the set."""
    mask = table.full_mask
    for f in formulas:
        mask &= truth_mask(f, table)
    return mask


def _selector(mask):
    """One byte per index, lowest first: 1 where the bit of mask is set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)


def _indices(mask):
    """Indices of the set bits of mask, in increasing order.

    The scan is picked by density. Under one set bit in 16, the mask is
    read as bytes and find skips the zero bytes in C, so a sparse mask
    costs about its set bits, not its width; otherwise the indices are
    compressed against its selector.
    """
    count, width = mask.bit_count(), mask.bit_length()
    if count * 16 >= width:
        return list(compress(range(width), _selector(mask)))
    data = mask.to_bytes((width + 7) // 8, "little")
    flags = data.translate(_NONZERO)
    found = []
    at = flags.find(1)
    while at >= 0:
        found += map((at * 8).__add__, _BYTE_BITS[data[at]])
        at = flags.find(1, at + 1)
    return found


def _mask_of(indices, size):
    """Bitmask of `size` bits with the given indices set; the inverse of _indices."""
    digits = bytearray(b"0" * size)
    for i in indices:
        digits[size - 1 - i] = ord("1")
    return int(digits, 2)


def _planes(weights):
    """Bit planes of non-negative weights: bit i of planes[b] is bit b of weights[i].

    Each weight is written as k little-endian bytes, highest index first;
    a strided slice picks out one byte of every weight, and one translate
    per bit turns it into the binary digits of a plane. The cost grows
    with the weights' total bytes. There are max(weights).bit_length()
    planes of one bit per weight, never more than the weights' own digits.
    """
    width = max(weights).bit_length()
    k = (width + 7) // 8
    top_first = reversed(weights)
    if k == 1:  # one C call, where int.to_bytes per weight costs more than the planes
        blob = bytes(top_first)
    else:
        blob = b"".join(map(int.to_bytes, top_first, repeat(k), repeat("little")))
    planes = []
    for b in range(width):
        byte, bit = divmod(b, 8)
        if bit == 0:
            column = blob[byte::k]
        planes.append(int(column.translate(_DIGIT[bit]), 2))
    return tuple(planes)


class WorldModel:
    """Distribution p over the valuations of a symbol table.

    p(v_i) = weights[i] / den in lowest terms; planes[b] is the mask of the
    indices whose weight has bit b set, and support_mask, their OR, the mask
    of the non-zero weights. from_weights validates every model, which is
    immutable after. Queries are pure, so a shared model may be used
    concurrently without coordination.
    """

    def __init__(self, table, probs):
        """probs: an int, Fraction, Decimal or exact string such as '1/3' per valuation."""
        entries = [exact(p) for p in probs]
        den = lcm(*(p.denominator for p in entries))
        weights = tuple(p.numerator * (den // p.denominator) for p in entries)
        vars(self).update(vars(WorldModel.from_weights(table, weights, den)))

    @classmethod
    def from_weights(cls, table, weights, den):
        """The validated model with p(v_i) = weights[i] / den.

        weights are one non-negative int per valuation, summing to den > 0;
        gcd(den, *weights) is divided out, so equal models have equal
        (den, weights).
        """
        size = table.num_valuations
        if len(weights) != size:
            raise WorldError(f"need {size} probabilities, got {len(weights)}")
        if min(weights) < 0:
            i = next(i for i, w in enumerate(weights) if w < 0)
            p = _shown(Fraction(weights[i], den))
            raise WorldError(f"negative probability {p} at valuation index {i}")
        total = sum(weights)
        if total != den:
            total = Fraction(total, den)
            off = _shown(1 - total)
            raise WorldError(f"probabilities sum to {_shown(total)}, off by {off}")
        g = reduce(gcd, weights, den)  # gcd(den, *weights) would copy them
        model = cls.__new__(cls)
        model.table = table
        model.weights = tuple(w // g for w in weights) if g > 1 else tuple(weights)
        model.den = den // g
        model.planes = _planes(model.weights)
        model.support_mask = reduce(or_, model.planes)
        return model

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

    def weight(self, mask):
        """Integer weight, over den, of the valuations whose index bits are set."""
        return sum(
            (mask & plane).bit_count() << b for b, plane in enumerate(self.planes)
        )

    def mass(self, mask):
        """Total probability of the valuations whose index bits are set in mask."""
        return Fraction(self.weight(mask), self.den)

    def prob(self, delta):
        """Joint probability of a premise set; 1 for the empty set."""
        return self.mass(premise_mask(delta, self.table))

    def conditional(self, alpha, delta):
        """p(alpha | delta), or UNDEFINED when the premises have zero mass."""
        dmask = premise_mask(delta, self.table)
        kept = self.weight(dmask)
        if kept == 0:
            return UNDEFINED
        return Fraction(self.weight(dmask & truth_mask(alpha, self.table)), kept)

    def posterior(self, delta):
        """Updated distribution given the premises, as a WorldModel.

        UNDEFINED when the premises have zero mass.
        """
        dmask = premise_mask(delta, self.table)
        kept = self.weight(dmask)
        if kept == 0:
            return UNDEFINED
        selector = _selector(dmask).ljust(len(self.weights), b"\0")
        weights = tuple(map(mul, self.weights, selector))
        return WorldModel.from_weights(self.table, weights, kept)


def uniform_world(table):
    n = table.num_valuations
    return WorldModel.from_weights(table, [1] * n, n)


def parse_rational(text):
    """Exact rational from a 'p/q' or decimal string; a float raises WorldError.
    An error names a value whose repr() is over 100 characters by its size."""
    if isinstance(text, float):
        raise WorldError(f"cannot parse {text!r} as an exact rational: a float is not exact")
    try:
        return exact(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        shown = _quoted(text)
        # exc would quote a long value again, or count its digits; an int's never does
        why = f": {exc}" if type(text) is int or shown == repr(text) else ""
        raise WorldError(f"cannot parse {shown} as an exact rational{why}") from exc


# --- JSON world files --------------------------------------------------
#
# {"symbols": ["a", "b"],
#  "worlds": [{"assignment": {"a": 0, "b": 0}, "prob": "1/2"}, ...]}
#
# "symbols" is a list of names. Every one of the 2^n assignments must
# appear exactly once, in any order; truth values are 0/1 or true/false;
# "prob" is an int, a rational string "p/q" or a decimal string parsed
# exactly. A JSON float, as a prob or a truth value, is refused.


def world_from_dict(data):
    try:
        symbols = data["symbols"]
        rows = data["worlds"]
    except (KeyError, TypeError) as exc:
        raise WorldError(f"world JSON must have 'symbols' and 'worlds': {exc}") from exc
    if isinstance(symbols, (str, Mapping)) or not isinstance(symbols, Iterable):
        # a string would be read as one symbol per character, a mapping as its keys
        raise WorldError(f"'symbols' must be a list of names, not {type(symbols).__name__}")
    try:
        table = SymbolTable(symbols)
    except ValueError as exc:
        raise WorldError(str(exc)) from exc
    if not isinstance(rows, list):
        raise WorldError(f"'worlds' must be a list of rows, not {type(rows).__name__}")
    probs = [None] * table.num_valuations
    for row in rows:
        try:
            assignment = row["assignment"]
            index = table.index_of(assignment)
            prob = row["prob"]
        except KeyError as exc:
            raise WorldError(f"world row {_quoted(row)} has no {exc} key") from exc
        except (TypeError, ValueError, FormulaError) as exc:
            raise WorldError(f"bad world row {_quoted(row)}: {exc}") from exc
        if probs[index] is not None:
            raise WorldError(f"assignment {_quoted(assignment)} appears twice")
        probs[index] = parse_rational(prob)
    if None in probs:
        missing = [i for i, p in enumerate(probs) if p is None]
        first = table.assignment(missing[0])
        raise WorldError(f"missing {len(missing)} assignments, e.g. {_quoted(first)}")
    return WorldModel(table, probs)


def world_to_dict(model):
    assign, probs = model.table.assignment, model.probs
    rows = [{"assignment": assign(i), "prob": str(p)} for i, p in enumerate(probs)]
    return {"symbols": list(model.table.symbols), "worlds": rows}


def world_from_text(text):
    """world_from_dict(json.loads(text)): the same model, WorldError or JSONDecodeError.

    A text that json.dump(world_to_dict(model), fh) wrote, JSON whitespace
    after it allowed, is read by the text pass without json.loads.
    """
    model = _text_model(text)
    return world_from_dict(json.loads(text)) if model is None else model


_HEAD, _BODY = '{"symbols": ["', '"], "worlds": ['


def _text_model(text):
    """The text pass: the model if json.dump(world_to_dict(model)) wrote text, else None.

    One regex pulls out the 'p' or 'p/q' digit-string probs, one per row. Each
    row is rebuilt from the symbols and its prob, in index order with 0/1
    values, and checked against the text in place; if all match, json.loads
    would give exactly that dict, so the model is the row loop's.
    """
    end = text.find(_BODY)
    if not text.startswith(_HEAD) or end < 0:
        return None
    try:  # atom names hold no quote, so the header is exactly '", "'.join(table)
        table = SymbolTable(text[len(_HEAD):end].split('", "'))
    except ValueError:
        return None
    probs = _PROB.findall(text, end)
    if len(probs) != table.num_valuations:
        return None
    pairs = [(f'"{name}": 0', f'"{name}": 1') for name in table]
    pos, sep = end + len(_BODY), ""
    for bits, prob in zip(product(*pairs), probs):
        row = sep + '{"assignment": {' + ", ".join(bits) + '}, "prob": "' + prob + '"}'
        if not text.startswith(row, pos):
            return None
        pos, sep = pos + len(row), ", "
    if text[pos:].rstrip(" \t\n\r") != "]}":
        return None
    try:
        terms = list(map(int, "/".join(p if "/" in p else p + "/1" for p in probs).split("/")))
    except ValueError:  # more digits than int() converts
        return None
    nums, dens = terms[::2], terms[1::2]
    if 0 in dens:  # the row loop refuses 'p/0'
        return None
    den = lcm(*dens)
    weights = tuple(p * (den // q) for p, q in zip(nums, dens))
    return WorldModel.from_weights(table, weights, den)


def parse_premises(texts, table):
    """Parse formula strings into a premise tuple, in order: a frozenset would
    hash each formula, and a node's hash recurses once per level."""
    return tuple(parse_formula(t, table) for t in texts)
