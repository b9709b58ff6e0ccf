"""Spans around calls into the program's public functions, recorded from outside.

`install` replaces each listed function or method of the loaded `bayent`
modules with a wrapper that opens a span on entry and closes it on exit.
Every module that imported the function by name gets the wrapper too, so
calls the program makes internally (a verdict calling `truth_mask`, a
check calling `WorldModel.mass`) are seen. Nothing in `src/` changes.

A span is (name, start_ns, end_ns, parent span id, op id); op id -1 is
set-up. Self time is a span's duration minus the time its child spans
cover, and is accumulated per name as spans close, so the aggregates are
exact however many spans there are. The first `keep` spans are also kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

SETUP, OP = "setup", "op"


class Tracer:
    def __init__(self, keep=200_000):
        self.keep = keep
        self.spans = []
        self.next_id = 0
        self.stack = []  # [span id, name, start_ns, child_ns]
        self.active = Counter()
        self.op = -1
        self.paused = False
        self.context = {}
        # (phase, name) -> [calls, self_ns, outer_calls, outer_ns]; "outer"
        # counts only spans with no enclosing span of the same name.
        self.agg = defaultdict(lambda: [0, 0, 0, 0])
        self.counts = Counter()
        self.cold_atoms = set()  # (atom name, symbols) whose first mask was built
        self.child_cold_tables = 0

    def wrap(self, fn, name, namer=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            label = namer(args) if namer else name
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            nested = tracer.active[label] > 0
            tracer.active[label] += 1
            frame = [sid, label, perf_counter_ns(), 0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.active[label] -= 1
                duration = end - frame[2]
                if tracer.stack:
                    tracer.stack[-1][3] += duration
                row = tracer.agg[(SETUP if tracer.op < 0 else OP, label)]
                row[0] += 1
                row[1] += duration - frame[3]
                if not nested:
                    row[2] += 1
                    row[3] += duration
                if len(tracer.spans) < tracer.keep:
                    tracer.spans.append((label, frame[2], end, parent, tracer.op))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key, amount=1):
        self.counts[(SETUP if self.op < 0 else OP, key)] += amount

    # --- reading the aggregates -------------------------------------------

    def calls(self, name, phase=None):
        return sum(r[0] for (p, n), r in self.agg.items() if n == name and phase in (None, p))

    def self_ms(self, name, phase=None):
        return sum(r[1] for (p, n), r in self.agg.items() if n == name and phase in (None, p)) / 1e6

    def mean_outer_ms(self, name, phase=None):
        rows = [r for (p, n), r in self.agg.items() if n == name and phase in (None, p)]
        calls = sum(r[2] for r in rows)
        return sum(r[3] for r in rows) / 1e6 / calls if calls else 0.0

    def counted(self, key, phase=None):
        return sum(v for (p, k), v in self.counts.items() if k == key and phase in (None, p))

    def cold_tables(self):
        """Symbol tables whose atom masks were built cold, across merged processes too."""
        return len({symbols for _, symbols in self.cold_atoms}) + self.child_cold_tables

    def merge(self, data, op):
        """Add the aggregates and spans a traced child process wrote."""
        for phase, name, row in data["agg"]:
            mine = self.agg[(phase, name)]
            for k in range(4):
                mine[k] += row[k]
        for phase, key, value in data["counts"]:
            self.counts[(phase, key)] += value
        self.child_cold_tables += data["cold_tables"]
        base = self.next_id
        self.next_id += data["next_id"]
        for name, start, end, parent, _ in data["spans"]:
            if len(self.spans) < self.keep:
                self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op))

    def dump(self):
        return {
            "agg": [[p, n, r] for (p, n), r in self.agg.items()],
            "counts": [[p, k, v] for (p, k), v in self.counts.items()],
            "cold_tables": self.cold_tables(),
            "next_id": self.next_id,
            "spans": self.spans,
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def install(tracer):
    """Wrap the program's public layer entry points in every loaded bayent module."""
    modules = [m for k, m in sys.modules.items() if k == "bayent" or k.startswith("bayent.")]

    def rebind(orig, wrapped):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def function(modname, attr, name, namer=None, after=None):
        orig = getattr(sys.modules.get(f"bayent.{modname}"), attr, None)
        if orig is not None:
            rebind(orig, tracer.wrap(orig, name, namer, after))

    def method(modname, cls, attr, name, namer=None, after=None):
        klass = getattr(sys.modules.get(f"bayent.{modname}"), cls, None)
        orig = getattr(klass, "__dict__", {}).get(attr)
        if orig is not None:
            setattr(klass, attr, tracer.wrap(orig, name, namer, after))

    def truth_mask_label(args):
        f, table = args[0], args[1]
        if type(f).__name__ == "Atom":
            key = (f.name, tuple(table))
            if key not in tracer.cold_atoms:
                tracer.cold_atoms.add(key)
                return "formula.atom_masks.cold"
        return "formula.truth_mask"

    def audit_counts(args, report):
        tracer.count("audit.cases", report.cases_checked)
        tracer.count("audit.counterexamples", report.verdict != "pass")

    function("formula", "parse_formula", "formula.parse")
    function("formula", "truth_mask", None, namer=truth_mask_label)
    method("worlds", "WorldModel", "__init__", "worlds.build")
    function("worlds", "world_from_dict", "worlds.build")
    method("worlds", "WorldModel", "mass", "worlds.mass",
           after=lambda args, _: tracer.count("mass.valuations", args[1].bit_count()))
    function("entail", "bayes_entails", "entail.bayes_entails")
    function("entail", "map_entails", "entail.map_entails")
    function("entail", "map_set", "entail.map_set")
    function("preferential", "structure_from_dict", "preferential.build",
             after=lambda args, s: tracer.count("preferential.edges", len(s.edges)))
    method("preferential", "PreferentialStructure", "maximal_models",
           "preferential.maximal_models")
    method("preferential", "PreferentialStructure", "pref_entails",
           "preferential.pref_entails")
    function("audit", "enumerate_pool", "audit.enumerate_pool")
    function("audit", "check_property", None,
             namer=lambda args: f"audit.check_property.{args[1]}", after=audit_counts)
    method("temporal", "TemporalModel", "__init__", "temporal.model_build")
    function("temporal", "filter_step", None,
             namer=lambda args: "temporal.filter_step."
             + (tracer.context.get("transition", "unknown") if args[1].alive else "dead"))
    function("temporal", "temporal_entails", "temporal.temporal_entails")
