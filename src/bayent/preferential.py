"""Preferential structures: strict partial orders over valuations.

An edge (v_i, v_j) means v_i is preferred to v_j (the v_i world is the
more normal one). Structures are stored as explicit edge sets over
valuation indices and transitively closed at construction; the closure
report lists any edges that had to be added, so users may write minimal
Hasse-style input.
"""

from __future__ import annotations

from .formula import truth_mask
from .worlds import premise_mask


class StructureError(Exception):
    """Invalid preferential structure or structure file."""


def _transitive_closure(edges):
    closed = set(edges)
    changed = True
    while changed:
        changed = False
        for x, y in list(closed):
            for y2, z in list(closed):
                if y2 == y and (x, z) not in closed:
                    closed.add((x, z))
                    changed = True
    return closed


class PreferentialStructure:
    """Finite strict partial order over a set of valuations.

    Immutable after validation; all queries are pure.
    """

    def __init__(self, table, universe, edges, close=True):
        self.table = table
        self.universe = frozenset(universe)
        for i in self.universe:
            if not 0 <= i < table.num_valuations:
                raise StructureError(f"universe index {i} out of range")
        edges = {(int(a), int(b)) for a, b in edges}
        for a, b in edges:
            if a not in self.universe or b not in self.universe:
                raise StructureError(f"edge ({a},{b}) leaves the universe")
        if close:
            closed = _transitive_closure(edges)
            self.added_edges = frozenset(closed - edges)
            edges = closed
        else:
            self.added_edges = frozenset()
        self.edges = frozenset(edges)

    def __repr__(self):
        return (
            f"PreferentialStructure(universe={sorted(self.universe)}, "
            f"edges={sorted(self.edges)})"
        )

    def validate(self):
        """List of irreflexivity/transitivity violations; empty means ok."""
        violations = []
        for a, b in sorted(self.edges):
            if a == b:
                violations.append(f"irreflexivity: ({a},{a})")
        for a, b in sorted(self.edges):
            for b2, c in sorted(self.edges):
                if b2 == b and (a, c) not in self.edges:
                    violations.append(f"transitivity: missing ({a},{c})")
        return violations

    def is_valid(self):
        return not self.validate()

    def prefers(self, i, j):
        return (i, j) in self.edges

    def _model_indices(self, delta):
        dmask = premise_mask(delta, self.table)
        return [i for i in sorted(self.universe) if (dmask >> i) & 1]

    def maximal_models(self, delta):
        """Models of the premises not dominated by any other model of them."""
        models = self._model_indices(delta)
        model_set = set(models)
        return {
            self.table.valuation(i)
            for i in models
            if not any((j, i) in self.edges for j in model_set if j != i)
        }

    def pref_entails(self, delta, alpha):
        """True iff alpha holds at every maximal model of the premises.

        Vacuously true when there are no models.
        """
        amask = truth_mask(alpha, self.table)
        return all((amask >> v.index) & 1 for v in self.maximal_models(delta))

    def dominating_maximal(self, delta):
        """Map each non-maximal model of the premises to a dominating maximal one.

        Constructive smoothness witness; total because the order is a
        finite strict partial order.
        """
        maximal = {v.index for v in self.maximal_models(delta)}
        out = {}
        for i in self._model_indices(delta):
            if i in maximal:
                continue
            dominators = [j for j in maximal if (j, i) in self.edges]
            if not dominators:
                raise StructureError(f"smoothness failed at index {i}")
            out[i] = min(dominators)
        return out

    def is_order_preserving(self, model):
        """True iff preference never contradicts probability: v_i above v_j
        implies p(v_i) >= p(v_j)."""
        if model.table != self.table:
            raise StructureError("structure and world use different symbol tables")
        return all(model.weights[a] >= model.weights[b] for a, b in self.edges)

    def is_total(self):
        """True iff every distinct pair of universe elements is comparable."""
        members = sorted(self.universe)
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                a, b = members[x], members[y]
                if (a, b) not in self.edges and (b, a) not in self.edges:
                    return False
        return True


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
    try:
        structure = PreferentialStructure(table, universe, edges)
    except (StructureError, ValueError) as exc:
        raise StructureError(str(exc)) from exc
    violations = structure.validate()
    if violations:
        raise StructureError("; ".join(violations))
    return structure


def structure_to_dict(structure):
    return {
        "universe": sorted(structure.universe),
        "edges": [list(e) for e in sorted(structure.edges)],
    }
