"""Test-only oracle: the auditor's earlier per-property loops.

check_property and _replay as they were before the property table, kept
verbatim (renamed old_check_property) so that property tests can check
the table-driven auditor in bayent.audit against them: same verdict,
cases_checked and counterexample, trace included.
"""

from itertools import combinations

from bayent.audit import PROPERTIES, AuditError, AuditReport
from bayent.formula import Or, render


def old_check_property(oracle, property_name, pool, premise_size_cap=1):
    """Exhaustively test one property over the pool.

    Premise sets range over subsets of the pool up to the size cap;
    the other quantifiers range over the whole pool. Passing only means
    no counterexample within the pool.
    """
    if property_name not in PROPERTIES:
        raise AuditError(f"unknown property {property_name!r}")

    table = pool.table
    items = list(zip(pool.formulas, pool.truth_masks))
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
