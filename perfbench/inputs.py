"""Seeded input generation for the benchmark workloads.

Formulas are generated as the benchmark's own tuple trees and reach the
program only as text, so the reference evaluator in `reference.py`
shares no code with the parser or mask compiler under test. Every
generator takes a `random.Random`; the same seed gives the same inputs.

Formula trees:
    ("atom", k) | ("top",) | ("bot",) | ("not", f)
    | (op, f, g) with op in "and", "or", "imp", "iff"
"""

from __future__ import annotations

import math
from fractions import Fraction

BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}

# The threshold grid of the paper's counterexample worlds, as text.
OMEGA_TEXTS = ("11/20", "3/5", "7/10", "3/4", "4/5", "9/10", "19/20")
EPSILONS = tuple(Fraction(k, 20) for k in range(1, 10))


def names(n, prefix="p"):
    return [f"{prefix}{i}" for i in range(n)]


def random_formula(rng, n, depth):
    """Random formula over atoms 0..n-1 with at most `depth` nested binary connectives."""
    if depth == 0 or rng.random() < 0.2:
        node = ("atom", rng.randrange(n))
        return ("not", node) if rng.random() < 0.3 else node
    op = rng.choice(("and", "and", "or", "or", "imp", "iff"))
    node = (op, random_formula(rng, n, depth - 1), random_formula(rng, n, depth - 1))
    return ("not", node) if rng.random() < 0.15 else node


def render(f, syms):
    """Fully parenthesised text, so parsing it needs no precedence rules."""
    kind = f[0]
    if kind == "atom":
        return syms[f[1]]
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind == "not":
        return "~" + _operand(f[1], syms)
    return f"{_operand(f[1], syms)} {BINARY[kind]} {_operand(f[2], syms)}"


def _operand(f, syms):
    text = render(f, syms)
    return text if f[0] in ("atom", "top", "bot") else f"({text})"


def contradiction(rng, n, depth):
    """A two-formula premise set with no models: f and ~f."""
    f = random_formula(rng, n, depth)
    return [f, ("not", f)]


def random_weights(rng, size, zero_share, high):
    """Integer weights in [1, high], about `zero_share` of them exactly 0; never all 0."""
    weights = [0 if rng.random() < zero_share else rng.randint(1, high) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    return weights


def probs_of(weights):
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def world_dict(syms, weights):
    """World JSON body in the program's file format."""
    n = len(syms)
    total = sum(weights)
    return {
        "symbols": list(syms),
        "worlds": [
            {
                "assignment": {s: (i >> (n - 1 - k)) & 1 for k, s in enumerate(syms)},
                "prob": f"{w}/{total}",
            }
            for i, w in enumerate(weights)
        ],
    }


def random_dag(rng, universe, out_degree):
    """Sparse strict order: edges only from earlier to later nodes of a random permutation.

    Returns (order, edges); `order` is the permutation, so the reference
    can close the order by one sweep from the back.
    """
    order = list(universe)
    rng.shuffle(order)
    edges = set()
    for i in range(len(order) - 1):
        for _ in range(rng.randint(1, out_degree)):
            j = rng.randrange(i + 1, len(order))
            edges.add((order[i], order[j]))
    return order, sorted(edges)


def dag_near(rng, universe, closed_edges, count_closed):
    """The random_dag, of 60 drawn, whose closure has nearest to `closed_edges` edges.

    The program closes orders in time that grows with the square of the
    edge count, so fixing the closure size keeps that cost alike across seeds.
    """
    best = None
    for _ in range(60):
        order, edges = random_dag(rng, universe, rng.choice((1, 2, 3)))
        miss = abs(count_closed(order, edges) - closed_edges)
        if best is None or miss < best[0]:
            best = (miss, order, edges)
    return best[1], best[2]


def premise_set(rng, n, keep, share, most=3, depth=3):
    """1..most formulas whose conjunction keeps close to `share` of the valuations.

    share 0 gives a contradiction. keep(formulas) is the share they keep;
    the first of up to 400 draws within a factor 1.15 is taken, or else the best.
    """
    if share == 0:
        return contradiction(rng, n, depth - 1)
    best = None
    for _ in range(400):
        fs = [random_formula(rng, n, depth) for _ in range(rng.randint(1, most))]
        kept = keep(fs)
        miss = abs(math.log(kept / share)) if kept else math.inf
        if best is None or miss < best[0]:
            best = (miss, fs)
        if miss < math.log(1.15):
            break
    return best[1]


def stochastic_row(rng, size, row_sum, zero_share):
    """Non-negative integers summing exactly to row_sum, about zero_share of them 0."""
    raw = [0 if rng.random() < zero_share else rng.randint(1, 1000) for _ in range(size)]
    if not any(raw):
        raw[rng.randrange(size)] = 1
    total = sum(raw)
    row = [w * row_sum // total for w in raw]
    row[max(range(size), key=raw.__getitem__)] += row_sum - sum(row)
    return row


class Transition:
    """A transition as integers over one common row sum, plus its program-side form.

    kind is "identity", "sticky" (epsilon = eps) or "matrix" (rows).
    """

    def __init__(self, kind, eps=None, rows=None, row_sum=1):
        self.kind = kind
        self.eps = eps
        self.rows = rows
        self.row_sum = row_sum

    def spec(self):
        """Scenario JSON body of the transition."""
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "sticky":
            return {"kind": "sticky", "epsilon": str(self.eps)}
        return {
            "kind": "matrix",
            "rows": [[f"{w}/{self.row_sum}" for w in row] for row in self.rows],
        }

    def fraction_rows(self):
        return [[Fraction(w, self.row_sum) for w in row] for row in self.rows]


def random_transition(rng, kind, size):
    if kind == "identity":
        return Transition("identity")
    if kind == "sticky":
        return Transition("sticky", eps=rng.choice(EPSILONS))
    row_sum = 1 << 20
    rows = [stochastic_row(rng, size, row_sum, 0.25) for _ in range(size)]
    return Transition("matrix", rows=rows, row_sum=row_sum)


def observations(rng, n, steps, keep, cumulative, kill_at=None):
    """Per-step premise lists: some empty, a contradiction at step kill_at.

    keep(formulas) is the share of valuations the formulas allow. A step
    is redrawn until it keeps at least a quarter, or, when `cumulative`
    (an identity transition, where observations pile up), until all the
    steps so far keep at least 1/16; after 200 draws the step observes
    nothing. So beliefs die where a contradiction is planted, and
    rarely elsewhere.
    """
    out, kept = [], []
    for t in range(steps):
        if t == kill_at:
            out.append(contradiction(rng, n, 1))
            continue
        row = []
        if rng.random() >= 0.2:
            for _ in range(200):
                draw = [random_formula(rng, n, 2) for _ in range(rng.randint(1, 2))]
                if cumulative and keep(kept + draw) >= 1 / 16:
                    break
                if not cumulative and keep(draw) >= 0.25:
                    break
            else:
                draw = []
            row = draw
        kept += row
        out.append(row)
    return out
