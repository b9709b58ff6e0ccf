"""Preferential structures: strict partial orders over valuations.

An edge (v_i, v_j) means v_i is preferred to v_j (the v_i world is the
more normal one). The order is kept as one bitset per node: bit j of
below[i] is set iff v_i is preferred to v_j. Structures are transitively
closed at construction, so users may write minimal Hasse-style input.
"""

from __future__ import annotations

from .formula import _quoted, truth_mask
from .worlds import _indices, _mask_of, premise_mask


class StructureError(Exception):
    """Invalid preferential structure or structure file."""


def _close(below):
    """Transitively close the rows of below in place.

    Each pass ORs into every row the rows of the indices it holds, so the
    paths a row covers at least double per pass. The loop ends after a
    pass in which nothing grew.
    """
    grew = True
    while grew:
        grew = False
        for i, row in below.items():
            reach = row
            for j in _indices(row):
                reach |= below.get(j, 0)
            if reach != row:
                below[i], grew = reach, True


class PreferentialStructure:
    """Finite strict partial order over a set of valuations.

    below[i] is the bitset of the indices v_i is preferred to; an index
    with no edge out has no row. Closed, a cycle is self-preference at each
    of its nodes: refused here as "irreflexivity: (i,i)", one per node for
    the first 8 nodes, then "and k more".
    Immutable after construction; all queries are pure.
    """

    def __init__(self, table, universe, edges):
        self.table = table
        try:
            universe, edges = list(universe), list(edges)
        except TypeError as exc:
            raise StructureError(f"'universe' and 'edges' must be lists: {exc}") from exc
        # type(), not isinstance(): a JSON true is a bool, and bool subclasses int
        bad = [i for i in universe if type(i) is not int]
        if bad:
            raise StructureError(f"universe index {_quoted(bad[0])} is not an integer")
        bad = [
            e for e in edges
            if type(e) not in (list, tuple) or list(map(type, e)) != [int, int]
        ]
        if bad:
            raise StructureError(f"edges must be [i, j] index pairs, not {_quoted(bad[0])}")
        for i in universe:
            if not 0 <= i < table.num_valuations:
                raise StructureError(f"universe index {_quoted(i)} out of range")
        self.universe = frozenset(universe)
        self.universe_mask = _mask_of(self.universe, table.num_valuations)
        below = {}
        for a, b in edges:
            if a not in self.universe or b not in self.universe:
                raise StructureError(f"edge ({_quoted(a)},{_quoted(b)}) leaves the universe")
            below[a] = below.get(a, 0) | 1 << b
        _close(below)
        loops = [f"irreflexivity: ({i},{i})" for i, row in sorted(below.items()) if row >> i & 1]
        if loops:
            more = [f"and {len(loops) - 8:,} more"] if len(loops) > 8 else []
            raise StructureError("; ".join(loops[:8] + more))
        self.below = below

    @property
    def edges(self):
        """The closed order's (i, j) pairs, listed from the rows on each read."""
        return frozenset((i, j) for i, row in self.below.items() for j in _indices(row))

    def __repr__(self):
        return (
            f"PreferentialStructure(universe={sorted(self.universe)}, "
            f"edges={sorted(self.edges)})"
        )

    def maximal_mask(self, dmask):
        """Members of dmask in the universe that no other such member is preferred to."""
        d = dmask & self.universe_mask
        dominated = 0
        for j in _indices(d):
            dominated |= self.below.get(j, 0)
        return d & ~dominated

    def maximal_models(self, delta):
        """Models of the premises not dominated by any other model of them."""
        maximal = self.maximal_mask(premise_mask(delta, self.table))
        return {self.table.valuation(i) for i in _indices(maximal)}

    def pref_entails(self, delta, alpha):
        """True iff alpha holds at every maximal model of the premises.

        Vacuously true when there are no models.
        """
        maximal = self.maximal_mask(premise_mask(delta, self.table))
        return not maximal & ~truth_mask(alpha, self.table)

    def is_order_preserving(self, model):
        """True iff preference never contradicts probability: v_i above v_j
        implies p(v_i) >= p(v_j)."""
        if model.table != self.table:
            raise StructureError("structure and world use different symbol tables")
        return all(model.weights[a] >= model.weights[b] for a, b in self.edges)

    def is_total(self):
        """True iff every distinct pair of universe elements is comparable (one edge each)."""
        n = len(self.universe)
        return sum(map(int.bit_count, self.below.values())) == n * (n - 1) // 2


# --- JSON structure files ----------------------------------------------
#
# {"universe": [0, 1, 2, 3], "edges": [[0, 1], [0, 2], [0, 3], [2, 1], [3, 1]]}
#
# Indices follow the valuation encoding of the symbol table supplied
# alongside the file (structure files carry no symbols themselves).


def structure_from_dict(data, table):
    try:
        universe = data["universe"]
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise StructureError(
            f"structure JSON must have 'universe' and 'edges': {exc}"
        ) from exc
    return PreferentialStructure(table, universe, edges)

