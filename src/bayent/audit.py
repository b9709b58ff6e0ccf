"""Mechanical auditing of consequence-relation properties.

An oracle wraps an entailment relation as a boolean query; the checker
exhaustively instantiates a property's quantifiers over a finite
formula pool and either passes or returns the first counterexample in
enumeration order, with a full numeric trace.

Enumeration works on truth-table bitmasks, so the per-case cost is a
couple of dictionary lookups; a counterexample is always re-checked
through the oracle's formula-level query before being reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from .formula import And, Atom, Bottom, Not, Or, SymbolTable, Top, render, truth_mask
from .worlds import WorldModel, exact
from .entail import (
    UNIVERSAL,
    bayes_entails,
    check_threshold,
    classical_entails,
    map_entails,
    map_mask,
)

PROPERTIES = (
    "reflexivity",
    "monotony",
    "cut",
    "supraclassicality",
    "cautious_monotony",
    "classical_cautious_monotony",
    "classical_cut",
    "or",
)

STRICT = "strict"
SUPPORT_RELATIVE = "support-relative"

MAX_POOL_DEPTH = 3
MAX_POOL_SYMBOLS = 3


class AuditError(Exception):
    pass


# --- Oracles -----------------------------------------------------------


@dataclass
class ConsequenceOracle:
    """A consequence relation as a total, deterministic query.

    query judges the relation under audit; monotonic_base is the
    monotonic relation used inside the Classical properties and
    Supraclassicality. mask_query/mask_base are equivalent fast paths
    over satisfying-set bitmasks; trace returns the probabilities
    behind one query for counterexample reports.
    """

    label: str
    query: Callable
    monotonic_base: Callable
    mask_query: Optional[Callable] = None
    mask_base: Optional[Callable] = None
    trace: Optional[Callable] = None


def classical_base(table):
    """Strict monotonic base: plain propositional entailment."""
    full = table.full_mask

    def base(delta, alpha):
        return classical_entails(table, delta, alpha)

    def mask_base(dmask, amask):
        return dmask & full & ~amask == 0

    return base, mask_base


def support_base(model):
    """Support-relative monotonic base: threshold-1 entailment over the model."""

    def base(delta, alpha):
        return bayes_entails(model, delta, alpha, 1).holds

    def mask_base(dmask, amask):
        return dmask & model.support_mask & ~amask == 0

    return base, mask_base


def bayes_oracle(model, omega, base=SUPPORT_RELATIVE):
    """Oracle for the threshold entailment of a world model."""
    w = check_threshold(omega)
    p, q = w.numerator, w.denominator

    def query(delta, alpha):
        return bayes_entails(model, delta, alpha, w).holds

    def mask_query(dmask, amask):
        # p(alpha | delta) >= w = p/q, cross-multiplied over the integer weights
        kept = model.weight(dmask)
        return kept == 0 or model.weight(dmask & amask) * q >= p * kept

    def trace(delta, alpha):
        denom = model.prob(delta)
        cond = model.conditional(alpha, delta)
        return {
            "p(premises)": str(denom),
            "p(conclusion|premises)": None if cond is None else str(cond),
            "threshold": str(w),
        }

    base_fn, base_mask = _pick_base(base, model)
    return ConsequenceOracle(
        label=f"threshold-{w}",
        query=query,
        monotonic_base=base_fn,
        mask_query=mask_query,
        mask_base=base_mask,
        trace=trace,
    )


def map_oracle(model, mode=UNIVERSAL, base=SUPPORT_RELATIVE):
    """Oracle for the MAP entailment of a world model."""

    def query(delta, alpha):
        return map_entails(model, delta, alpha, mode).holds

    def mask_query(dmask, amask):
        winners = map_mask(model, dmask)
        if winners == 0:
            return True
        hit = winners & amask
        return hit == winners if mode == UNIVERSAL else hit != 0

    base_fn, base_mask = _pick_base(base, model)
    return ConsequenceOracle(
        label=f"map-{mode}",
        query=query,
        monotonic_base=base_fn,
        mask_query=mask_query,
        mask_base=base_mask,
    )


def pref_oracle(structure, base=STRICT):
    """Oracle for the preferential entailment of a structure."""
    table = structure.table

    def query(delta, alpha):
        return structure.pref_entails(delta, alpha)

    def mask_query(dmask, amask):
        return not structure.maximal_mask(dmask) & ~amask

    base_fn, base_mask = classical_base(table)
    return ConsequenceOracle(
        label="preferential",
        query=query,
        monotonic_base=base_fn,
        mask_query=mask_query,
        mask_base=base_mask,
    )


def classical_oracle(table):
    """The propositional entailment itself, as an oracle."""
    base_fn, base_mask = classical_base(table)
    return ConsequenceOracle(
        label="classical",
        query=base_fn,
        monotonic_base=base_fn,
        mask_query=base_mask,
        mask_base=base_mask,
    )


def _pick_base(base, model):
    if base == STRICT:
        return classical_base(model.table)
    if base == SUPPORT_RELATIVE:
        return support_base(model)
    raise AuditError(f"unknown monotonic base {base!r}")


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

    def masks(self):
        return tuple(truth_mask(f, self.table) for f in self.formulas)

    def __len__(self):
        return len(self.formulas)


def enumerate_pool(table, max_depth):
    """All formulas over not/and/or up to the depth bound, one per truth table."""
    if max_depth > MAX_POOL_DEPTH:
        raise AuditError(f"max_depth {max_depth} exceeds cap {MAX_POOL_DEPTH}")
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

    level = list(by_mask.values())
    for _ in range(max_depth):
        previous = list(by_mask.values())
        fresh = []
        for i, f in enumerate(previous):
            for g in previous:
                for node in (And(f, g), Or(f, g)):
                    if add(node):
                        fresh.append(node)
        # negation closure at no extra depth, including over this level's output
        frontier = previous + fresh
        while frontier:
            nxt = []
            for f in frontier:
                node = Not(f)
                if add(node):
                    nxt.append(node)
            frontier = nxt
        level = list(by_mask.values())

    return FormulaPool(table=table, max_depth=max_depth, formulas=tuple(level))


# --- Property checking -------------------------------------------------


@dataclass
class AuditReport:
    property: str
    oracle: str
    verdict: str  # "pass" | "counterexample"
    cases_checked: int
    counterexample: Optional[dict] = None

    def to_dict(self):
        out = {
            "property": self.property,
            "oracle": self.oracle,
            "verdict": self.verdict,
            "cases_checked": self.cases_checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def check_property(oracle, property_name, pool, premise_size_cap=1):
    """Exhaustively test one property over the pool.

    Premise sets range over subsets of the pool up to the size cap;
    the other quantifiers range over the whole pool. Passing only means
    no counterexample within the pool.
    """
    if property_name not in PROPERTIES:
        raise AuditError(f"unknown property {property_name!r}")

    table = pool.table
    items = list(zip(pool.formulas, pool.masks()))
    full = table.full_mask

    deltas = [((), full)]
    for size in range(1, premise_size_cap + 1):
        for combo in combinations(items, size):
            dmask = full
            for _, m in combo:
                dmask &= m
            deltas.append((tuple(f for f, _ in combo), dmask))

    if oracle.mask_query is None or oracle.mask_base is None:
        raise AuditError(f"oracle {oracle.label!r} lacks a mask-level query")

    query_cache = {}

    def q(dmask, amask):
        key = (dmask, amask)
        if key not in query_cache:
            query_cache[key] = oracle.mask_query(dmask, amask)
        return query_cache[key]

    base_cache = {}

    def qbase(dmask, amask):
        key = (dmask, amask)
        if key not in base_cache:
            base_cache[key] = oracle.mask_base(dmask, amask)
        return base_cache[key]

    cases = 0
    failure = None

    if property_name == "reflexivity":
        for delta, dmask in deltas:
            for alpha, amask in items:
                cases += 1
                if not q(dmask & amask, amask):
                    failure = (delta + (alpha,), alpha, None, None)
                    break
            if failure:
                break

    elif property_name in ("monotony", "cautious_monotony", "classical_cautious_monotony"):
        for delta, dmask in deltas:
            for alpha, amask in items:
                if not q(dmask, amask):
                    cases += len(items)
                    continue
                for beta, bmask in items:
                    cases += 1
                    if property_name == "cautious_monotony" and not q(dmask, bmask):
                        continue
                    if property_name == "classical_cautious_monotony" and not qbase(
                        dmask, bmask
                    ):
                        continue
                    if not q(dmask & bmask, amask):
                        failure = (delta, alpha, beta, None)
                        break
                if failure:
                    break
            if failure:
                break

    elif property_name in ("cut", "classical_cut"):
        for delta, dmask in deltas:
            for beta, bmask in items:
                if property_name == "cut":
                    if not q(dmask, bmask):
                        cases += len(items)
                        continue
                elif not qbase(dmask, bmask):
                    cases += len(items)
                    continue
                for alpha, amask in items:
                    cases += 1
                    if q(dmask & bmask, amask) and not q(dmask, amask):
                        failure = (delta, alpha, beta, None)
                        break
                if failure:
                    break
            if failure:
                break

    elif property_name == "supraclassicality":
        for delta, dmask in deltas:
            for alpha, amask in items:
                cases += 1
                if qbase(dmask, amask) and not q(dmask, amask):
                    failure = (delta, alpha, None, None)
                    break
            if failure:
                break

    elif property_name == "or":
        for delta, dmask in deltas:
            for alpha, amask in items:
                for beta, bmask in items:
                    for gamma, gmask in items:
                        cases += 1
                        if not q(dmask & amask, gmask):
                            continue
                        if not q(dmask & bmask, gmask):
                            continue
                        if not q(dmask & (amask | bmask), gmask):
                            failure = (delta, alpha, beta, gamma)
                            break
                    if failure:
                        break
                if failure:
                    break
            if failure:
                break

    if failure is None:
        return AuditReport(
            property=property_name,
            oracle=oracle.label,
            verdict="pass",
            cases_checked=cases,
        )

    delta, alpha, beta, gamma = failure
    detail = _replay(oracle, property_name, delta, alpha, beta, gamma)
    return AuditReport(
        property=property_name,
        oracle=oracle.label,
        verdict="counterexample",
        cases_checked=cases,
        counterexample=detail,
    )


def _replay(oracle, property_name, delta, alpha, beta, gamma):
    """Re-check a counterexample at the formula level and build its trace."""
    dset = frozenset(delta)
    detail = {
        "premises": sorted(render(f) for f in delta),
        "alpha": render(alpha),
    }
    if beta is not None:
        detail["beta"] = render(beta)
    if gamma is not None:
        detail["gamma"] = render(gamma)

    if property_name == "reflexivity":
        violated = not oracle.query(dset | {alpha}, alpha)
    elif property_name == "monotony":
        violated = oracle.query(dset, alpha) and not oracle.query(dset | {beta}, alpha)
    elif property_name == "cautious_monotony":
        violated = (
            oracle.query(dset, beta)
            and oracle.query(dset, alpha)
            and not oracle.query(dset | {beta}, alpha)
        )
    elif property_name == "classical_cautious_monotony":
        violated = (
            oracle.monotonic_base(dset, beta)
            and oracle.query(dset, alpha)
            and not oracle.query(dset | {beta}, alpha)
        )
    elif property_name == "cut":
        violated = (
            oracle.query(dset, beta)
            and oracle.query(dset | {beta}, alpha)
            and not oracle.query(dset, alpha)
        )
    elif property_name == "classical_cut":
        violated = (
            oracle.monotonic_base(dset, beta)
            and oracle.query(dset | {beta}, alpha)
            and not oracle.query(dset, alpha)
        )
    elif property_name == "supraclassicality":
        violated = oracle.monotonic_base(dset, alpha) and not oracle.query(dset, alpha)
    elif property_name == "or":
        violated = (
            oracle.query(dset | {alpha}, gamma)
            and oracle.query(dset | {beta}, gamma)
            and not oracle.query(dset | {Or(alpha, beta)}, gamma)
        )
    else:  # pragma: no cover
        raise AuditError(property_name)
    if not violated:
        raise AuditError("counterexample failed to replay; enumeration bug")

    if oracle.trace is not None:
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
        raise ValueError(f"threshold {w} must lie strictly between 1/2 and 1")
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
    weights = []
    for _ in range(size):
        if rng.random() < zf:
            weights.append(0)
        else:
            weights.append(rng.randint(1, 10_000))
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return WorldModel(table, [Fraction(w, total) for w in weights])


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
    """Run a batch of property checks against one oracle."""
    return [
        check_property(oracle, name, pool, premise_size_cap) for name in properties
    ]
