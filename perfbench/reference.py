"""Reference answers, computed independently of the code under test.

Nothing here imports the program. Truth tables are built bit-parallel
from atom patterns, masses are sums of the generator's integer weights,
preferential orders are closed by one sweep over the generator's
permutation, audit properties are decided by tabulating the whole
relation, and filtering runs unnormalised on integers. Small chains
are also checked by trajectory enumeration, which needs no filter at
all. All results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product
from operator import mul

_BITS = bytes.maketrans(b"01", b"\x00\x01")


class Truth:
    """Truth tables over n symbols; bit i is valuation index i, symbol 0 most significant."""

    def __init__(self, n):
        self.n = n
        self.size = 1 << n
        self.full = (1 << self.size) - 1
        self.atoms = []
        for k in range(n):
            half = 1 << (n - 1 - k)
            pattern, width = ((1 << half) - 1) << half, 2 * half
            while width < self.size:
                pattern |= pattern << width
                width *= 2
            self.atoms.append(pattern)

    def mask(self, f):
        """Mask of one of the benchmark's own formula trees."""
        kind = f[0]
        if kind == "atom":
            return self.atoms[f[1]]
        if kind == "top":
            return self.full
        if kind == "bot":
            return 0
        if kind == "not":
            return self.full & ~self.mask(f[1])
        x, y = self.mask(f[1]), self.mask(f[2])
        if kind == "and":
            return x & y
        if kind == "or":
            return x | y
        if kind == "imp":
            return (self.full & ~x) | y
        return self.full & ~(x ^ y)

    def all_of(self, formulas):
        m = self.full
        for f in formulas:
            m &= self.mask(f)
        return m

    def program_mask(self, f, position):
        """Mask of a formula object built by the program, read only through its fields."""
        kind = type(f).__name__
        if kind == "Atom":
            return self.atoms[position[f.name]]
        if kind == "Top":
            return self.full
        if kind == "Bottom":
            return 0
        if kind == "Not":
            return self.full & ~self.program_mask(f.arg, position)
        x = self.program_mask(f.left, position)
        y = self.program_mask(f.right, position)
        if kind == "And":
            return x & y
        if kind == "Or":
            return x | y
        if kind == "Implies":
            return (self.full & ~x) | y
        if kind == "Iff":
            return self.full & ~(x ^ y)
        raise TypeError(f"unknown formula node {kind}")

    def share(self, formulas):
        """Share of the valuations that satisfy every formula."""
        return self.all_of(formulas).bit_count() / self.size

    def flags(self, mask):
        """Bytes of 0/1, one per valuation index."""
        return format(mask, f"0{self.size}b")[::-1].encode().translate(_BITS)

    def indices(self, mask):
        return list(compress(range(self.size), self.flags(mask)))


def weight(weights, truth, mask):
    return sum(compress(weights, truth.flags(mask)))


# --- static queries -------------------------------------------------------


def threshold(weights, truth, dmask, amask, omega):
    """(holds, probability or None, countermodel indices) of threshold entailment."""
    den = weight(weights, truth, dmask)
    if den == 0:
        return True, None, []
    p = Fraction(weight(weights, truth, dmask & amask), den)
    if p >= omega:
        return True, p, []
    return False, p, [i for i in truth.indices(dmask & ~amask) if weights[i]]


def map_winners(weights, truth, dmask):
    """Indices of the largest weight among the premise models, or None if they weigh 0."""
    idx = truth.indices(dmask)
    best = max((weights[i] for i in idx), default=0)
    if best == 0:
        return None
    return [i for i in idx if weights[i] == best]


def map_verdict(weights, truth, dmask, amask, universal):
    winners = map_winners(weights, truth, dmask)
    if winners is None:
        return True, None, []
    hits = sum((amask >> i) & 1 for i in winners)
    holds = hits == len(winners) if universal else hits > 0
    return holds, Fraction(hits, len(winners)), winners


def conditional(weights, truth, dmask, amask):
    den = weight(weights, truth, dmask)
    if den == 0:
        return None
    return Fraction(weight(weights, truth, dmask & amask), den)


class Order:
    """Strict order given by a permutation and forward edges, closed by a back sweep."""

    def __init__(self, order, edges):
        pos = {v: k for k, v in enumerate(order)}
        direct = [0] * len(order)
        for a, b in edges:
            direct[pos[a]] |= 1 << pos[b]
        below = [0] * len(order)
        for k in range(len(order) - 1, -1, -1):
            acc = direct[k]
            m = direct[k]
            while m:
                low = m & -m
                acc |= below[low.bit_length() - 1]
                m ^= low
            below[k] = acc
        self.order = order
        self.below = below
        self.edge_count = sum(b.bit_count() for b in below)

    def maximal(self, dmask):
        """Valuation indices of the undominated members of the universe inside dmask."""
        members = [k for k, v in enumerate(self.order) if (dmask >> v) & 1]
        dominated = 0
        for k in members:
            dominated |= self.below[k]
        return sorted(self.order[k] for k in members if not (dominated >> k) & 1)


# --- audit ------------------------------------------------------------------


class Relation:
    """A consequence relation tabulated over every premise mask of a tiny table.

    sets[d] is a bitset over pool positions j: bit j is set iff the
    relation accepts pool[j] from premise mask d; base[d] likewise for
    the monotonic base.
    """

    def __init__(self, query, base, pool_masks, size):
        self.pool = pool_masks
        self.full = (1 << size) - 1
        count = 1 << size
        self.sets = [self._row(query, d) for d in range(count)]
        self.base = [self._row(base, d) for d in range(count)]

    def _row(self, fn, d):
        row = 0
        for j, a in enumerate(self.pool):
            if fn(d, a):
                row |= 1 << j
        return row

    def q(self, d, a):
        return (self.sets[d] >> self.pool.index(a)) & 1 == 1

    def qbase(self, d, a):
        return (self.base[d] >> self.pool.index(a)) & 1 == 1

    def violated(self, prop):
        """True iff some case over the pool (premise sets of size <= 1) breaks prop."""
        S, B, pool = self.sets, self.base, self.pool
        deltas = [self.full] + list(pool)
        if prop == "reflexivity":
            return any(
                not (S[d & a] >> j) & 1 for d in deltas for j, a in enumerate(pool)
            )
        if prop == "supraclassicality":
            return any(B[d] & ~S[d] for d in deltas)
        if prop == "or":
            return any(
                S[d & a] & S[d & b] & ~S[d & (a | b)]
                for d in deltas
                for a in pool
                for b in pool
            )
        for d in deltas:
            for j, b in enumerate(pool):
                if prop == "monotony":
                    bad = S[d] & ~S[d & b]
                elif prop == "cautious_monotony":
                    bad = (S[d] >> j) & 1 and S[d] & ~S[d & b]
                elif prop == "classical_cautious_monotony":
                    bad = (B[d] >> j) & 1 and S[d] & ~S[d & b]
                elif prop == "cut":
                    bad = (S[d] >> j) & 1 and S[d & b] & ~S[d]
                elif prop == "classical_cut":
                    bad = (B[d] >> j) & 1 and S[d & b] & ~S[d]
                else:
                    raise ValueError(prop)
                if bad:
                    return True
        return False

    def confirms(self, prop, d, a, b, g):
        """True iff the reported case (premise mask d, formulas a, b, g) breaks prop."""
        q, qb = self.q, self.qbase
        if prop == "reflexivity":
            return not q(d, a)
        if prop == "monotony":
            return q(d, a) and not q(d & b, a)
        if prop == "cautious_monotony":
            return q(d, b) and q(d, a) and not q(d & b, a)
        if prop == "classical_cautious_monotony":
            return qb(d, b) and q(d, a) and not q(d & b, a)
        if prop == "cut":
            return q(d, b) and q(d & b, a) and not q(d, a)
        if prop == "classical_cut":
            return qb(d, b) and q(d & b, a) and not q(d, a)
        if prop == "supraclassicality":
            return qb(d, a) and not q(d, a)
        if prop == "or":
            return q(d & a, g) and q(d & b, g) and not q(d & (a | b), g)
        raise ValueError(prop)


def subset_weights(weights):
    """Weight of every mask over a tiny table, by adding one lowest bit at a time."""
    table = [0] * (1 << len(weights))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] + weights[low.bit_length() - 1]
    return table


def threshold_query(weights, omega):
    w = subset_weights(weights)

    def query(d, a):
        return w[d] == 0 or w[d & a] >= omega * w[d]

    return query


def map_query(weights, universal):
    size = len(weights)
    winners = []
    for d in range(1 << size):
        members = [i for i in range(size) if (d >> i) & 1]
        best = max((weights[i] for i in members), default=0)
        winners.append(
            None if best == 0 else sum(1 << i for i in members if weights[i] == best)
        )

    def query(d, a):
        win = winners[d]
        if win is None:
            return True
        return win & ~a == 0 if universal else win & a != 0

    return query


def pref_query(order, size):
    maximal = [sum(1 << i for i in order.maximal(d)) for d in range(1 << size)]

    def query(d, a):
        return maximal[d] & ~a == 0

    return query


def strict_base(size):
    full = (1 << size) - 1

    def base(d, a):
        return d & full & ~a == 0

    return base


def support_base(weights):
    support = sum(1 << i for i, w in enumerate(weights) if w)

    def base(d, a):
        return d & support & ~a == 0

    return base


# --- temporal -----------------------------------------------------------------


def forward(prior, transition, obs_masks):
    """Unnormalised forward pass on integers; one weight list per step.

    prior is a list of integers; transition is an inputs.Transition.
    Each step multiplies every weight by the common row sum, so the
    ratios stay exact without any division.
    """
    size = len(prior)
    belief = list(prior)
    if transition.kind == "matrix":
        columns = list(zip(*transition.rows))
    elif transition.kind == "sticky":
        e = transition.eps
        stay = (e.denominator - e.numerator) * (size - 1)
        move = e.numerator
    steps = []
    for d in obs_masks:
        if transition.kind == "matrix":
            pred = [sum(map(mul, belief, col)) for col in columns]
        elif transition.kind == "sticky":
            total = sum(belief)
            pred = [stay * x + move * (total - x) for x in belief]
        else:
            pred = belief
        belief = [x if (d >> i) & 1 else 0 for i, x in enumerate(pred)]
        steps.append(belief)
    return steps


def normalised(weights):
    total = sum(weights)
    if total == 0:
        return None
    return [Fraction(w, total) for w in weights]


def trajectory_marginal(prior, transition, obs_masks):
    """Final-step distribution by summing over every state trajectory (tiny chains only)."""
    size = len(prior)
    if transition.kind == "matrix":
        t = transition.fraction_rows()
    elif transition.kind == "sticky":
        e = transition.eps
        t = [[1 - e if i == j else e / (size - 1) for j in range(size)] for i in range(size)]
    else:
        t = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    final = [Fraction(0)] * size
    for path in product(range(size), repeat=len(obs_masks) + 1):
        w = Fraction(prior[path[0]])
        for step, d in enumerate(obs_masks, start=1):
            if not (d >> path[step]) & 1:
                w = 0
                break
            w *= t[path[step - 1]][path[step]]
        final[path[-1]] += w
    return normalised(final)
