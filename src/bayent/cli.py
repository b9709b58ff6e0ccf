"""Command-line front end with machine-readable JSON output.

Exit codes are a stable contract: 0 affirmative (holds / pass),
1 negative (fails / counterexample), 2 usage or input error. All
probabilities are printed as exact rational strings; identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import audit as audit_mod
from . import temporal as temporal_mod
from .entail import (
    EXISTENTIAL,
    UNIVERSAL,
    bayes_entails,
    map_entails,
)
from .formula import FormulaError, SymbolTable, parse_formula
from .preferential import StructureError, structure_from_dict
from .worlds import WorldError, parse_premises, parse_rational, world_from_dict

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


class InputError(Exception):
    """User-facing input problem; reported on stderr with exit code 2."""


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_world(path):
    try:
        return world_from_dict(_load_json(path))
    except WorldError as exc:
        raise InputError(f"bad world file {path}: {exc}") from exc


def _parse_symbols(text):
    try:
        return SymbolTable([s.strip() for s in text.split(",") if s.strip()])
    except ValueError as exc:
        raise InputError(f"bad symbol list {text!r}: {exc}") from exc


def _parse_omega(text):
    try:
        w = parse_rational(text)
    except WorldError as exc:
        raise InputError(str(exc)) from exc
    if not 0 <= w <= 1:
        raise InputError(f"threshold {w} outside [0, 1]")
    return w


def _parse_formulas(args, table):
    try:
        delta = parse_premises(args.premise or [], table)
        conclusion = (
            parse_formula(args.conclusion, table)
            if getattr(args, "conclusion", None)
            else None
        )
    except FormulaError as exc:
        raise InputError(str(exc)) from exc
    return delta, conclusion


def _emit(payload, pretty):
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=False))


def _cmd_prob(args):
    model = _load_world(args.world)
    delta, conclusion = _parse_formulas(args, model.table)
    if conclusion is None:
        payload = {"probability": str(model.prob(delta))}
    else:
        p = model.conditional(conclusion, delta)
        payload = {"probability": None if p is None else str(p)}
    _emit(payload, args.pretty)
    return EXIT_YES


def _cmd_entail(args):
    model = _load_world(args.world)
    delta, conclusion = _parse_formulas(args, model.table)
    verdict = bayes_entails(model, delta, conclusion, _parse_omega(args.omega))
    _emit(verdict.to_dict(), args.pretty)
    return EXIT_YES if verdict.holds else EXIT_NO


def _cmd_map_entail(args):
    model = _load_world(args.world)
    delta, conclusion = _parse_formulas(args, model.table)
    verdict = map_entails(model, delta, conclusion, args.mode)
    _emit(verdict.to_dict(), args.pretty)
    return EXIT_YES if verdict.holds else EXIT_NO


def _cmd_pref_entail(args):
    table = _parse_symbols(args.symbols)
    try:
        structure = structure_from_dict(_load_json(args.structure), table)
    except StructureError as exc:
        raise InputError(f"bad structure file {args.structure}: {exc}") from exc
    delta, conclusion = _parse_formulas(args, table)
    holds = structure.pref_entails(delta, conclusion)
    maximal = sorted(structure.maximal_models(delta), key=lambda v: v.index)
    payload = {
        "holds": holds,
        "maximal_models": [
            {"index": v.index, "assignment": v.assignment()} for v in maximal
        ],
    }
    _emit(payload, args.pretty)
    return EXIT_YES if holds else EXIT_NO


def _build_audit_oracle(args):
    base = args.base
    if args.structure:
        table = _parse_symbols(args.symbols or "a,b")
        try:
            structure = structure_from_dict(_load_json(args.structure), table)
        except StructureError as exc:
            raise InputError(f"bad structure file {args.structure}: {exc}") from exc
        return audit_mod.pref_oracle(structure), table
    if not args.world:
        raise InputError("audit needs either --world or --structure")
    model = _load_world(args.world)
    if args.map:
        return audit_mod.map_oracle(model, args.mode, base=base), model.table
    if args.omega is None:
        raise InputError("audit over a world needs --omega (or --map)")
    return (
        audit_mod.bayes_oracle(model, _parse_omega(args.omega), base=base),
        model.table,
    )


def _cmd_audit(args):
    oracle, table = _build_audit_oracle(args)
    try:
        pool = audit_mod.enumerate_pool(table, args.max_depth)
    except audit_mod.AuditError as exc:
        raise InputError(str(exc)) from exc
    if args.property == "theorem-suite":
        reports = audit_mod.theorem_suite(oracle, pool, args.premise_cap)
    else:
        if args.property not in audit_mod.PROPERTIES:
            raise InputError(f"unknown property {args.property!r}")
        reports = [
            audit_mod.check_property(oracle, args.property, pool, args.premise_cap)
        ]
    payload = {"reports": [r.to_dict() for r in reports]}
    _emit(payload, args.pretty)
    failed = any(r.verdict != "pass" for r in reports)
    return EXIT_NO if failed else EXIT_YES


def _cmd_simulate(args):
    try:
        model, observations = temporal_mod.scenario_from_dict(
            _load_json(args.scenario)
        )
    except temporal_mod.TemporalError as exc:
        raise InputError(f"bad scenario file {args.scenario}: {exc}") from exc
    try:
        conclusion = parse_formula(args.conclusion, model.table)
    except FormulaError as exc:
        raise InputError(str(exc)) from exc
    omega = _parse_omega(args.omega)

    steps = []
    belief = model.initial_belief()
    for delta in observations:
        belief = temporal_mod.filter_step(model, belief, delta)
        steps.append(
            {
                "alive": belief.alive,
                "weights": [str(w) for w in belief.weights],
            }
        )
    verdict = temporal_mod.belief_verdict(model, belief, conclusion, omega)
    payload = {"steps": steps, "verdict": verdict.to_dict()}
    _emit(payload, args.pretty)
    return EXIT_YES if verdict.holds else EXIT_NO


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bayent",
        description="Exact probabilistic and non-monotonic propositional entailment.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    p = sub.add_parser("prob", help="joint or conditional probability of formulas")
    p.add_argument("--world", required=True, help="world JSON file")
    p.add_argument("--premise", action="append", default=[], help="repeatable premise")
    p.add_argument("--conclusion", help="if given, report p(conclusion|premises)")
    common(p)
    p.set_defaults(fn=_cmd_prob)

    p = sub.add_parser("entail", help="threshold entailment verdict")
    p.add_argument("--world", required=True)
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--conclusion", required=True)
    p.add_argument("--omega", required=True, help="threshold, e.g. 0.8 or 4/5")
    common(p)
    p.set_defaults(fn=_cmd_entail)

    p = sub.add_parser("map-entail", help="maximum-a-posteriori entailment verdict")
    p.add_argument("--world", required=True)
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--conclusion", required=True)
    p.add_argument("--mode", choices=[UNIVERSAL, EXISTENTIAL], default=UNIVERSAL)
    common(p)
    p.set_defaults(fn=_cmd_map_entail)

    p = sub.add_parser("pref-entail", help="preferential entailment verdict")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--symbols", required=True, help="comma-separated atoms, e.g. a,b")
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--conclusion", required=True)
    common(p)
    p.set_defaults(fn=_cmd_pref_entail)

    p = sub.add_parser("audit", help="check consequence-relation properties")
    p.add_argument("--world", help="world JSON file (with --omega or --map)")
    p.add_argument("--omega", help="threshold for the entailment under audit")
    p.add_argument("--map", action="store_true", help="audit the MAP entailment")
    p.add_argument("--mode", choices=[UNIVERSAL, EXISTENTIAL], default=UNIVERSAL)
    p.add_argument("--structure", help="structure JSON file (preferential oracle)")
    p.add_argument("--symbols", help="atoms for --structure, e.g. a,b")
    p.add_argument(
        "--property",
        required=True,
        help="one of %s, or theorem-suite" % ", ".join(audit_mod.PROPERTIES),
    )
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--premise-cap", type=int, default=1)
    p.add_argument(
        "--base",
        choices=[audit_mod.STRICT, audit_mod.SUPPORT_RELATIVE],
        default=audit_mod.SUPPORT_RELATIVE,
        help="monotonic base used inside the classical properties",
    )
    common(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("simulate", help="run a temporal scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--conclusion", required=True)
    p.add_argument("--omega", required=True)
    common(p)
    p.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep that contract
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
