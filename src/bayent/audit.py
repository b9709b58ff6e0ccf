"""Mechanical auditing of consequence-relation properties.

An oracle wraps an entailment relation as a boolean query; the checker
exhaustively instantiates a property's quantifiers over a finite
formula pool and either passes or returns the first counterexample in
enumeration order, with a full numeric trace.

Each property is one entry of PROPERTY_TABLE, read twice. The search
works on relation rows: row(d) is the bitset over pool positions j of
the oracle's mask-level query from premise mask d to pool[j], so one
big-int AND tests a whole column of cases. A counterexample is then
re-checked from the same entry, literal by literal from its formulas,
before being reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations, product
from math import comb
from operator import and_, or_
from typing import Callable, Optional

from .formula import And, Atom, Bottom, Not, Or, SymbolTable, Top, _quoted, render, truth_mask
from .worlds import WorldModel, _shown, exact, premise_mask
from .entail import UNIVERSAL, check_mode, check_threshold, map_mask

STRICT = "strict"
SUPPORT_RELATIVE = "support-relative"

MAX_POOL_DEPTH = 3
MAX_POOL_SYMBOLS = 3
# One memo entry per premise mask over the largest pool table.
MEMO_SIZE = 1 << (1 << MAX_POOL_SYMBOLS)
# Cases one check may enumerate: above the 66,339,000 of `or` over the
# 90-formula pool of three symbols at premise cap 1.
MAX_CASES = 10**8


class AuditError(Exception):
    pass


# --- Oracles -----------------------------------------------------------


@dataclass
class ConsequenceOracle:
    """A consequence relation as a total, deterministic query over table.

    mask_query judges the relation under audit and mask_base the
    monotonic relation used inside the Classical properties and
    Supraclassicality, both over satisfying-set bitmasks of table; a
    pool must be over table. query and monotonic_base compile formulas
    to those masks. trace returns the probabilities behind one query
    for counterexample reports.
    """

    label: str
    table: SymbolTable
    mask_query: Callable
    mask_base: Callable
    trace: Optional[Callable] = None

    def query(self, delta, alpha):
        return self.mask_query(premise_mask(delta, self.table), truth_mask(alpha, self.table))

    def monotonic_base(self, delta, alpha):
        return self.mask_base(premise_mask(delta, self.table), truth_mask(alpha, self.table))


def classical_base(table):
    """Strict monotonic base: plain propositional entailment."""
    full = table.full_mask
    return lambda dmask, amask: dmask & full & ~amask == 0


def support_base(model):
    """Support-relative monotonic base: threshold-1 entailment over the model."""
    return lambda dmask, amask: dmask & model.support_mask & ~amask == 0


def bayes_oracle(model, omega, base=SUPPORT_RELATIVE):
    """Oracle for the threshold entailment of a world model."""
    w = check_threshold(omega)
    p, q = w.numerator, w.denominator
    weight = lru_cache(MEMO_SIZE)(model.weight)

    def mask_query(dmask, amask):
        # p(alpha | delta) >= w = p/q, cross-multiplied over the integer weights
        kept = weight(dmask)
        return kept == 0 or weight(dmask & amask) * q >= p * kept

    def trace(delta, alpha):
        denom = model.prob(delta)
        cond = model.conditional(alpha, delta)
        return {
            "p(premises)": str(denom),
            "p(conclusion|premises)": None if cond is None else str(cond),
            "threshold": str(w),
        }

    base_mask = _pick_base(base, model)
    return ConsequenceOracle(f"threshold-{w}", model.table, mask_query, base_mask, trace)


def map_oracle(model, mode=UNIVERSAL, base=SUPPORT_RELATIVE):
    """Oracle for the MAP entailment of a world model."""
    check_mode(mode)
    map_of = lru_cache(MEMO_SIZE)(partial(map_mask, model))

    def mask_query(dmask, amask):
        winners = map_of(dmask)
        if winners == 0:
            return True
        hit = winners & amask
        return hit == winners if mode == UNIVERSAL else hit != 0

    return ConsequenceOracle(f"map-{mode}", model.table, mask_query, _pick_base(base, model))


def pref_oracle(structure):
    """Oracle for the preferential entailment of a structure."""
    maximal = lru_cache(MEMO_SIZE)(structure.maximal_mask)

    def mask_query(dmask, amask):
        return not maximal(dmask) & ~amask

    table = structure.table
    return ConsequenceOracle("preferential", table, mask_query, classical_base(table))


def classical_oracle(table):
    """The propositional entailment itself, as an oracle."""
    base = classical_base(table)
    return ConsequenceOracle("classical", table, base, base)


def _pick_base(base, model):
    if base == STRICT:
        return classical_base(model.table)
    if base == SUPPORT_RELATIVE:
        return support_base(model)
    raise AuditError(f"unknown monotonic base {_quoted(base)}")


# --- Formula pools -----------------------------------------------------


@dataclass(frozen=True)
class FormulaPool:
    """Finite pool of formulas, deduplicated by truth table.

    Depth counts nested binary connectives; negation is free above the
    base level (the base level is atoms and constants only). Depth 2
    over two symbols therefore covers all 16 binary truth functions.
    """

    table: SymbolTable
    max_depth: int
    formulas: tuple
    truth_masks: tuple  # truth_mask(f, table) of each formula, in order

    def __len__(self):
        return len(self.formulas)


def enumerate_pool(table, max_depth):
    """All formulas over not/and/or up to the depth bound, one per truth table."""
    if max_depth < 0:
        raise AuditError(f"max_depth {_quoted(max_depth)} is negative")
    if max_depth > MAX_POOL_DEPTH:
        raise AuditError(f"max_depth {_quoted(max_depth)} exceeds cap {MAX_POOL_DEPTH}")
    if len(table) > MAX_POOL_SYMBOLS:
        raise AuditError(f"{len(table)} symbols exceeds cap {MAX_POOL_SYMBOLS}")

    by_mask = {}

    def add(f):
        mask = truth_mask(f, table)
        if mask not in by_mask:
            by_mask[mask] = f
            return True
        return False

    for name in table.symbols:
        add(Atom(name))
    add(Top())
    add(Bottom())

    for _ in range(max_depth):
        previous = list(by_mask.values())
        for f in previous:
            for g in previous:
                add(And(f, g))
                add(Or(f, g))
        # negation closure at no extra depth, including over this level's output
        frontier = list(by_mask.values())
        while frontier:
            frontier = [node for node in map(Not, frontier) if add(node)]

    return FormulaPool(table, max_depth, tuple(by_mask.values()), tuple(by_mask))


# --- Property table ----------------------------------------------------

# Each property, in the style of Kraus, Lehmann & Magidor (1990): the
# pool variables in enumeration order (after the premise set D), then
# antecedents => consequent. "X |~ c" is the relation under audit and
# "X |- c" its monotonic base; X is D, or D plus one more premise: a
# variable, or the `or` of two.
_RULES = {
    "reflexivity": "alpha: D,alpha |~ alpha",
    "monotony": "alpha beta: D |~ alpha => D,beta |~ alpha",
    "cut": "beta alpha: D |~ beta, D,beta |~ alpha => D |~ alpha",
    "supraclassicality": "alpha: D |- alpha => D |~ alpha",
    "cautious_monotony": "alpha beta: D |~ beta, D |~ alpha => D,beta |~ alpha",
    "classical_cautious_monotony": "alpha beta: D |- beta, D |~ alpha => D,beta |~ alpha",
    "classical_cut": "beta alpha: D |- beta, D,beta |~ alpha => D |~ alpha",
    "or": "alpha beta gamma: D,alpha |~ gamma, D,beta |~ gamma => D,alpha|beta |~ gamma",
}


def _literal(text):
    """(turnstile, extra-premise variables, conclusion) from "D,beta |~ alpha"."""
    premises, turnstile, conclusion = text.split()
    extra = premises.split(",")[1:]
    return turnstile, tuple(extra[0].split("|")) if extra else (), conclusion


def _rule(text):
    """(variables, antecedents, consequent) from one _RULES entry."""
    variables, body = text.split(": ")
    *antecedents, consequent = body.split(" => ")
    antecedents = antecedents[0].split(", ") if antecedents else []
    return tuple(variables.split()), [_literal(a) for a in antecedents], _literal(consequent)


PROPERTY_TABLE = {name: _rule(text) for name, text in _RULES.items()}
PROPERTIES = tuple(PROPERTY_TABLE)


# --- Property checking -------------------------------------------------


@dataclass
class AuditReport:
    property: str
    oracle: str
    verdict: str  # "pass" | "counterexample"
    cases_checked: int
    counterexample: Optional[dict] = None

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if v is not None}


def case_count(property_name, pool_size, premise_size_cap=1):
    """Cases in one exhaustive check: premise sets times pool-variable tuples."""
    top = min(premise_size_cap, pool_size)  # comb(pool_size, s) is 0 above the pool
    premise_sets = 1 + sum(comb(pool_size, s) for s in range(1, top + 1))
    return premise_sets * pool_size ** len(PROPERTY_TABLE[property_name][0])


def _budgeted_cases(oracle, property_name, pool, premise_size_cap):
    if oracle.table != pool.table:
        raise AuditError(f"pool is over {pool.table!r}, the oracle over {oracle.table!r}")
    if property_name not in PROPERTY_TABLE:
        raise AuditError(f"unknown property {_quoted(property_name)}")
    if premise_size_cap < 0:
        raise AuditError(f"premise cap {_quoted(premise_size_cap)} is negative")
    cases = case_count(property_name, len(pool), premise_size_cap)
    if cases > MAX_CASES:
        raise AuditError(
            f"{property_name} over {len(pool)} formulas at premise cap "
            f"{_quoted(premise_size_cap)} is {cases:,} cases, over the budget of {MAX_CASES:,}"
        )
    return cases


def check_property(oracle, property_name, pool, premise_size_cap=1):
    """Exhaustively test one property over the pool.

    Premise sets range over subsets of the pool up to the size cap;
    the other quantifiers range over the whole pool. Passing only means
    no counterexample within the pool. A counterexample is the violating
    tuple of lowest rank in the property's enumeration order, and
    cases_checked counts every tuple up to it.
    """
    cases = _budgeted_cases(oracle, property_name, pool, premise_size_cap)
    rule = PROPERTY_TABLE[property_name]
    masks = pool.truth_masks
    deltas = [((), pool.table.full_mask)]
    for size in range(1, min(premise_size_cap, len(pool)) + 1):
        for combo in combinations(range(len(pool)), size):
            deltas.append((combo, reduce(and_, [masks[j] for j in combo])))

    found = _first_violation(rule, oracle, [d for _, d in deltas], masks)
    if found is None:
        return AuditReport(property_name, oracle.label, "pass", cases)
    index, positions = found
    rank = reduce(lambda r, j: r * len(pool) + j, positions, index)
    delta = [pool.formulas[j] for j in deltas[index][0]]
    binding = {name: pool.formulas[j] for name, j in zip(rule[0], positions)}
    _, extra, conclusion = rule[2]
    if conclusion in extra:  # reflexivity reports alpha among the premises
        delta.append(binding[conclusion])
    detail = _replay(oracle, rule, delta, binding)
    return AuditReport(property_name, oracle.label, "counterexample", rank + 1, detail)


def _first_violation(rule, oracle, dmasks, masks):
    """(premise-set index, pool positions) of the lowest-rank violation, or None.

    The column variable is the consequent's conclusion. A literal
    concluding it reads a whole relation row (bit j: the query from its
    premise mask to pool[j]), any other literal one bit of a row, so for
    fixed values of the other variables the violations over the column
    are one bitset: the AND of the antecedents with the negated
    consequent. Literals that read no other variable are read once per
    premise set.
    """
    variables, antecedents, consequent = rule
    n = len(masks)
    ones = (1 << n) - 1
    bits = [1 << j for j in range(n)]
    slot = {name: i for i, name in enumerate(variables)}
    column = slot[consequent[2]]
    queries = {"|~": oracle.mask_query, "|-": oracle.mask_base}
    rows = {}

    def row(turnstile, d):
        if (turnstile, d) not in rows:
            query = queries[turnstile]
            rows[turnstile, d] = sum(b for b, m in zip(bits, masks) if query(d, m))
        return rows[turnstile, d]

    def value(literal, d, values):
        turnstile, extra, conclusion = literal
        if column in extra:  # the conclusion is its own extra premise: the diagonal
            query = queries[turnstile]
            return sum(b for b, m in zip(bits, masks) if query(d & m, m))
        if extra:
            d &= reduce(or_, [masks[values[i]] for i in extra])
        if conclusion == column:
            return row(turnstile, d)
        return ones if row(turnstile, d) >> values[conclusion] & 1 else 0

    def resolve(literal, flip):  # the consequent is flipped to its negation
        turnstile, extra, conclusion = literal
        return (turnstile, [slot[v] for v in extra], slot[conclusion]), flip

    literals = [resolve(a, 0) for a in antecedents] + [resolve(consequent, ones)]
    fixed = [(lit, flip) for lit, flip in literals if {*lit[1], lit[2]} == {column}]
    varying = [pair for pair in literals if pair not in fixed]

    after = len(variables) - column - 1
    for index, d in enumerate(dmasks):
        start = ones
        for literal, flip in fixed:
            start &= value(literal, d, ()) ^ flip
        if not start:
            continue
        for prefix in product(range(n), repeat=column):
            union, hits = 0, []
            for suffix in product(range(n), repeat=after):
                values = (*prefix, None, *suffix)
                bad = start
                for literal, flip in varying:
                    bad &= value(literal, d, values) ^ flip
                    if not bad:
                        break
                else:
                    union |= bad
                    hits.append((suffix, bad))
            if union:
                j = (union & -union).bit_length() - 1
                suffix = next(s for s, bad in hits if bad >> j & 1)
                return index, (*prefix, j, *suffix)
    return None


def _holds(oracle, literal, dset, binding):
    turnstile, extra, conclusion = literal
    query = oracle.query if turnstile == "|~" else oracle.monotonic_base
    if extra:
        dset = dset | {reduce(Or, [binding[v] for v in extra])}
    return query(dset, binding[conclusion])


def _replay(oracle, rule, delta, binding):
    """Re-check a counterexample at the formula level and build its trace."""
    _, antecedents, consequent = rule
    dset = frozenset(delta)
    held = [_holds(oracle, lit, dset, binding) for lit in (*antecedents, consequent)]
    if held != [True] * len(antecedents) + [False]:
        raise AuditError("counterexample failed to replay; enumeration bug")
    detail = {"premises": sorted(render(f) for f in delta)}
    detail.update((name, render(binding[name])) for name in sorted(binding))

    if oracle.trace is not None:
        alpha, beta, gamma = map(binding.get, ("alpha", "beta", "gamma"))
        traces = {"premises -> alpha": oracle.trace(dset, alpha)}
        if beta is not None:
            traces["premises,beta -> alpha"] = oracle.trace(dset | {beta}, alpha)
            traces["premises -> beta"] = oracle.trace(dset, beta)
        if gamma is not None:
            traces["premises,alpha -> gamma"] = oracle.trace(dset | {alpha}, gamma)
            traces["premises,beta -> gamma"] = oracle.trace(dset | {beta}, gamma)
            traces["premises,alpha|beta -> gamma"] = oracle.trace(
                dset | {Or(alpha, beta)}, gamma
            )
        detail["trace"] = traces
    return detail


# --- Parametric counterexample worlds ----------------------------------

_AB = SymbolTable(["a", "b"])


def _check_open_interval(omega):
    w = exact(omega)
    if not Fraction(1, 2) < w < 1:
        raise ValueError(f"threshold {_shown(w)} must lie strictly between 1/2 and 1")
    return w


def monotony_counterexample_world(omega):
    """Two-symbol world refuting monotony (and cautious monotony) at the
    threshold: p(a) equals the threshold exactly while p(a|b) falls short.

    Rows over (a,b): (0,0) -> 0, (0,1) -> 1-w, (1,0) -> 1-w, (1,1) -> 2w-1.
    """
    w = _check_open_interval(omega)
    return WorldModel(_AB, [Fraction(0), 1 - w, 1 - w, 2 * w - 1])


def cut_counterexample_world(omega):
    """Two-symbol world refuting cut at the threshold: p(a) = w and
    p(a&b|a) = w exactly, yet p(a&b) = w^2 < w.

    Rows over (a,b): (0,0) -> 0, (0,1) -> 1-w, (1,0) -> w(1-w), (1,1) -> w^2.
    """
    w = _check_open_interval(omega)
    return WorldModel(_AB, [Fraction(0), 1 - w, w * (1 - w), w * w])


def random_world(table, seed, zero_fraction=0):
    """Deterministic pseudo-random exact distribution.

    Roughly zero_fraction of the entries are forced to exactly zero; if
    every entry is zeroed the distribution collapses to a point mass
    (renormalization floor). Same seed, same model.
    """
    zf = Fraction(zero_fraction)
    if not 0 <= zf <= 1:
        raise ValueError("zero_fraction must lie in [0, 1]")
    rng = random.Random(seed)
    size = table.num_valuations
    weights = [0 if rng.random() < zf else rng.randint(1, 10_000) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    return WorldModel.from_weights(table, weights, sum(weights))


OMEGA_GRID = (
    Fraction(11, 20),
    Fraction(3, 5),
    Fraction(7, 10),
    Fraction(3, 4),
    Fraction(4, 5),
    Fraction(9, 10),
    Fraction(19, 20),
)


def theorem_suite(oracle, pool, premise_size_cap=1, properties=PROPERTIES):
    """Run a batch of property checks against one oracle, each within budget."""
    for name in properties:
        _budgeted_cases(oracle, name, pool, premise_size_cap)
    return [
        check_property(oracle, name, pool, premise_size_cap) for name in properties
    ]
