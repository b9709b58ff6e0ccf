"""Command-line front end with machine-readable JSON output.

Exit codes are a stable contract: 0 affirmative (holds / pass),
1 negative (fails / counterexample), 2 usage or input error. All
probabilities are printed as exact rational strings; identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import audit as audit_mod
from . import temporal as temporal_mod
from .entail import (
    EXISTENTIAL,
    UNIVERSAL,
    bayes_entails,
    check_threshold,
    map_entails,
    valuation_rows,
)
from .formula import FormulaError, SymbolTable, _quoted, parse_formula
from .preferential import StructureError, structure_from_dict
from .worlds import (
    WorldError,
    parse_premises,
    parse_rational,
    premise_mask,
    world_from_text,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


class InputError(Exception):
    """User-facing input problem; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, on one line: argparse quotes an unrecognized or
    ambiguous option raw, line breaks and all. Past 200 characters, the tail after the
    last ': ' of the first 100, which quotes the argv refused, is named by its size."""

    def error(self, message):
        line = " ".join(message.split())
        if len(line) > 200:
            head, sep, _ = line[:100].rpartition(": ")
            line = head + sep + _quoted(line[len(head + sep):])
        raise InputError(f"{self.prog}: {line}")


def _count(text):
    """int(text) for --max-depth and --premise-cap; a bad value is quoted by _quoted."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


def _read(path, parse, kind, error):
    """parse(fh) on the file at path; read, JSON and `error` errors become InputError."""
    # a path too long to quote is named by its size, and str(exc) would quote it again
    name = path if _quoted(path) == repr(path) else _quoted(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc if name is path else exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{name} is not valid UTF-8: {exc}") from exc
    except error as exc:
        raise InputError(f"bad {kind} file {name}: {exc}") from exc
    except ValueError as exc:  # bad JSON syntax, or an int past the digit limit
        raise InputError(f"{name} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{name} is nested too deeply") from None


def _load_world(path):
    return _read(path, lambda fh: world_from_text(fh.read()), "world", WorldError)


def _load_structure(path, table):
    return _read(
        path, lambda fh: structure_from_dict(json.load(fh), table), "structure", StructureError
    )


def _parse_symbols(text):
    try:
        return SymbolTable([s.strip() for s in text.split(",") if s.strip()])
    except ValueError as exc:
        raise InputError(f"bad symbol list {_quoted(text)}: {exc}") from exc


def _parse_omega(text):
    try:
        return check_threshold(parse_rational(text))
    except (WorldError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _parse_formulas(args, table):
    try:
        delta = parse_premises(getattr(args, "premise", []), table)
        text = getattr(args, "conclusion", None)
        conclusion = None if text is None else parse_formula(text, table)
    except FormulaError as exc:
        raise InputError(str(exc)) from exc
    return delta, conclusion


def _emit(build, pretty):
    """Print the payload that build() makes of exact results as JSON."""
    try:
        payload = build()
    except ValueError:  # str() refused an int past the digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"an exact result has more than {limit} digits to print") from None
    indent, separators = (2, None) if pretty else (None, (",", ":"))
    try:
        print(json.dumps(payload, indent=indent, separators=separators), flush=True)
    except OSError as exc:  # fd 1 to devnull, so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InputError(f"cannot write the output: {exc.strerror}") from None


def _cmd_prob(args):
    model = _load_world(args.world)
    delta, conclusion = _parse_formulas(args, model.table)
    p = model.prob(delta) if conclusion is None else model.conditional(conclusion, delta)
    return lambda: {"probability": None if p is None else str(p)}, True


def _cmd_entail(args):
    model = _load_world(args.world)
    delta, conclusion = _parse_formulas(args, model.table)
    verdict = bayes_entails(model, delta, conclusion, _parse_omega(args.omega))
    return verdict.to_dict, verdict.holds


def _cmd_map_entail(args):
    model = _load_world(args.world)
    delta, conclusion = _parse_formulas(args, model.table)
    verdict = map_entails(model, delta, conclusion, args.mode)
    return verdict.to_dict, verdict.holds


def _cmd_pref_entail(args):
    table = _parse_symbols(args.symbols)
    structure = _load_structure(args.structure, table)
    delta, conclusion = _parse_formulas(args, table)
    holds = structure.pref_entails(delta, conclusion)
    maximal = structure.maximal_mask(premise_mask(delta, table))
    return lambda: {"holds": holds, "maximal_models": valuation_rows(table, maximal)}, holds


def _build_audit_oracle(args):
    if args.structure:
        table = _parse_symbols(args.symbols or "a,b")
        return audit_mod.pref_oracle(_load_structure(args.structure, table))
    if not args.world:
        raise InputError("audit needs either --world or --structure")
    model = _load_world(args.world)
    if args.map:
        return audit_mod.map_oracle(model, args.mode, base=args.base)
    if args.omega is None:
        raise InputError("audit over a world needs --omega (or --map)")
    return audit_mod.bayes_oracle(model, _parse_omega(args.omega), base=args.base)


def _cmd_audit(args):
    oracle = _build_audit_oracle(args)
    names = audit_mod.PROPERTIES if args.property == "theorem-suite" else (args.property,)
    try:
        pool = audit_mod.enumerate_pool(oracle.table, args.max_depth)
        reports = audit_mod.theorem_suite(oracle, pool, args.premise_cap, names)
    except audit_mod.AuditError as exc:
        raise InputError(str(exc)) from exc
    passed = all(r.verdict == "pass" for r in reports)
    return lambda: {"reports": [r.to_dict() for r in reports]}, passed


def _cmd_simulate(args):
    model, observations = _read(
        args.scenario,
        lambda fh: temporal_mod.scenario_from_dict(json.load(fh)),
        "scenario",
        temporal_mod.TemporalError,
    )
    _, conclusion = _parse_formulas(args, model.table)
    omega = _parse_omega(args.omega)

    beliefs = [model.initial_belief()]
    for delta in observations:
        beliefs.append(temporal_mod.filter_step(model, beliefs[-1], delta))
    verdict = temporal_mod.belief_verdict(model, beliefs[-1], conclusion, omega)

    def payload():
        steps = [{"alive": b.alive, "weights": list(map(str, b.weights))} for b in beliefs[1:]]
        return {"steps": steps, "verdict": verdict.to_dict()}

    return payload, verdict.holds


def build_parser():
    parser = _Parser(
        prog="bayent",
        description="Exact probabilistic and non-monotonic propositional entailment.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    def formulas(p):
        p.add_argument("--premise", action="append", default=[])
        p.add_argument("--conclusion", required=True)

    p = sub.add_parser("prob", help="joint or conditional probability of formulas")
    p.add_argument("--world", required=True, help="world JSON file")
    p.add_argument("--premise", action="append", default=[], help="repeatable premise")
    p.add_argument("--conclusion", help="if given, report p(conclusion|premises)")
    common(p)
    p.set_defaults(fn=_cmd_prob)

    p = sub.add_parser("entail", help="threshold entailment verdict")
    p.add_argument("--world", required=True)
    formulas(p)
    p.add_argument("--omega", required=True, help="threshold, e.g. 0.8 or 4/5")
    common(p)
    p.set_defaults(fn=_cmd_entail)

    p = sub.add_parser("map-entail", help="maximum-a-posteriori entailment verdict")
    p.add_argument("--world", required=True)
    formulas(p)
    p.add_argument("--mode", choices=[UNIVERSAL, EXISTENTIAL], default=UNIVERSAL)
    common(p)
    p.set_defaults(fn=_cmd_map_entail)

    p = sub.add_parser("pref-entail", help="preferential entailment verdict")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--symbols", required=True, help="comma-separated atoms, e.g. a,b")
    formulas(p)
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
    p.add_argument("--max-depth", type=_count, default=2)
    p.add_argument("--premise-cap", type=_count, default=1)
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
    try:
        args = build_parser().parse_args(argv)
        build, holds = args.fn(args)
        _emit(build, args.pretty)
    except InputError as exc:
        with contextlib.suppress(OSError):  # an unwritable stderr still exits 2
            print(f"error: {exc}", file=sys.stderr, flush=True)
        return EXIT_ERROR
    except SystemExit:  # --help, the one exit argparse still takes, after printing
        return EXIT_YES
    return EXIT_YES if holds else EXIT_NO


if __name__ == "__main__":
    sys.exit(main())
