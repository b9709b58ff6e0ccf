"""The four benchmark workloads.

Each workload is single process, closed loop, one caller: an op starts
when the previous verdict has returned. A workload object

- generates its inputs from the seed (`setup_inputs`, `ops`), untimed;
- makes the program calls that precede the first op (`setup`), timed
  as set-up;
- runs one op (`run`), timed as op latency;
- checks the op's output against `reference.py` (`check`), untimed,
  and counts the input properties the output depends on (`shares`).

Op schedules cycle through fixed patterns (op kind, premise density,
chain length, property, verb), so every run of `--seconds` covers the
same mix whatever the seed; the seed only varies the formulas, weights
and orders inside each slot. Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import inputs
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))


def op_rng(name, seed, i):
    return random.Random(f"{name}:{seed}:{i}")


def closed_edge_count(order, edges):
    return ref.Order(order, edges).edge_count


def pool_relation(B, syms, pool, query, base):
    """Reference relation over a pool the program enumerated, looked up by its rendering too."""
    truth = ref.Truth(len(syms))
    position = {s: k for k, s in enumerate(syms)}
    masks = [truth.program_mask(f, position) for f in pool]
    rel = ref.Relation(query, base, masks, 1 << len(syms))
    rel.by_text = {B.render(f): m for f, m in zip(pool, masks)}
    return rel


def confirms(rel, prop, cx):
    """True iff a reported counterexample breaks prop in the reference relation."""
    d = rel.full
    for text in cx["premises"]:
        d &= rel.by_text[text]
    picks = [rel.by_text[cx[k]] if k in cx else None for k in ("alpha", "beta", "gamma")]
    return rel.confirms(prop, d, *picks)


class Workload:
    name = ""
    # True when each set-up is its own process, so repeating it in one
    # run measures a cold set-up every time.
    fresh_setup = False

    def __init__(self, bayent, seed, smoke, workdir, python_env):
        self.B = bayent
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.env = python_env
        self.stats = Counter()
        self.context = {}
        self.warm_s = {}

    def shares(self):
        return {}

    def warm(self, state, op, result):
        """Re-time the verdict layer with masks and masses warm (traced runs only)."""

    def absorb(self, tracer, op, result):
        """Merge what a traced child process recorded (traced runs only)."""

    def _time_warm(self, key, fn, *args):
        start = perf_counter()
        fn(*args)
        self.warm_s.setdefault(key, []).append(perf_counter() - start)


# --- query-n16 ----------------------------------------------------------------

QUERY_KINDS = ("bayes", "map-universal", "cond", "bayes", "map-existential", "pref", "bayes", "cond")
# Share of valuations the premise set keeps; bucket 0 is a contradiction.
# Three buckets of 1/8 put the median op among ops of one size, so that
# op_p50_ms does not fall where op costs spread over a factor of 16.
DENSITIES = (0, 1 / 16, 1 / 8, 1 / 8, 1 / 8, 1 / 4, 1 / 2)
# Share of valuations the conclusion keeps, in a cycle of its own.
CONCLUSION_SHARES = (1 / 4, 1 / 2, 3 / 4)


class QueryN16(Workload):
    """In-process threshold, MAP, conditional and preferential queries at n=16."""

    name = "query-n16"

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 2 if self.smoke else 16
        self.syms = inputs.names(self.n)
        self.truth = ref.Truth(self.n)
        self.seen_premises = set()

    def setup_inputs(self):
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        size = 1 << self.n
        weights = inputs.random_weights(rng, size, 0.25, 8)
        universe = rng.sample(range(size), size if self.smoke else rng.randint(64, 128))
        order, edges = inputs.dag_near(rng, universe, 600, closed_edge_count)
        self.weights = weights
        self.order = ref.Order(order, edges)
        return {
            "probs": inputs.probs_of(weights),
            "structure": {"universe": universe, "edges": [list(e) for e in edges]},
        }

    def setup(self, data):
        B = self.B
        table = B.SymbolTable(self.syms)
        model = B.WorldModel(table, data["probs"])
        truth_mask = getattr(B.formula, "truth_mask", None)
        if truth_mask is not None:
            for s in self.syms:
                truth_mask(B.Atom(s), table)
        structure = B.structure_from_dict(data["structure"], table)
        return {"table": table, "model": model, "structure": structure}

    def _premise_set(self, rng, bucket):
        if self.smoke:
            return [inputs.random_formula(rng, self.n, 3) for _ in range(rng.randint(1, 3))]
        return inputs.premise_set(rng, self.n, self.truth.share, DENSITIES[bucket])

    def ops(self):
        rng = random.Random(f"{self.name}:{self.seed}:bank")
        bank = [(k % len(DENSITIES), self._premise_set(rng, k % len(DENSITIES)))
                for k in range(3 if self.smoke else 12)]
        i = 0
        while True:
            rng = op_rng(self.name, self.seed, i)
            bucket = i % len(DENSITIES)
            if (i // len(QUERY_KINDS)) % 2 == 0:
                choices = [fs for b, fs in bank if b == bucket] or [fs for _, fs in bank]
                premises = rng.choice(choices)
            else:
                premises = self._premise_set(rng, bucket)
            if self.smoke:
                conclusion = inputs.random_formula(rng, self.n, 3)
            else:
                share = CONCLUSION_SHARES[i % len(CONCLUSION_SHARES)]
                (conclusion,) = inputs.premise_set(rng, self.n, self.truth.share, share, most=1)
            yield {
                "kind": QUERY_KINDS[i % len(QUERY_KINDS)],
                "premises": [inputs.render(f, self.syms) for f in premises],
                "premise_trees": premises,
                "conclusion": inputs.render(conclusion, self.syms),
                "conclusion_tree": conclusion,
                "omega": rng.choice(self.B.OMEGA_GRID),
            }
            i += 1

    def run(self, state, op):
        B = self.B
        table, model = state["table"], state["model"]
        delta = B.parse_premises(op["premises"], table)
        alpha = B.parse_formula(op["conclusion"], table)
        kind = op["kind"]
        if kind == "bayes":
            out = B.bayes_entails(model, delta, alpha, op["omega"])
        elif kind.startswith("map-"):
            out = B.map_entails(model, delta, alpha, kind[4:])
        elif kind == "cond":
            out = model.conditional(alpha, delta)
        else:
            out = state["structure"].pref_entails(delta, alpha)
        return out, delta, alpha

    def check(self, state, op, result):
        out = result[0]
        w, t = self.weights, self.truth
        dmask = t.all_of(op["premise_trees"])
        amask = t.mask(op["conclusion_tree"])
        key = frozenset(op["premises"])
        self.stats["repeated"] += key in self.seen_premises
        self.seen_premises.add(key)
        kind = op["kind"]
        if kind == "cond":
            p = ref.conditional(w, t, dmask, amask)
            self.stats["vacuous"] += p is None
            return out == p
        if kind == "pref":
            maximal = self.order.maximal(dmask)
            self.stats["vacuous"] += not maximal
            found = sorted(v.index for v in state["structure"].maximal_models(result[1]))
            return out == all((amask >> i) & 1 for i in maximal) and found == maximal
        if kind == "bayes":
            holds, p, witnesses = ref.threshold(w, t, dmask, amask, op["omega"])
        else:
            holds, p, witnesses = ref.map_verdict(w, t, dmask, amask, kind == "map-universal")
            self.stats["map"] += 1
            self.stats["map_tie"] += len(witnesses) > 1
        self.stats["vacuous"] += p is None
        return (
            out.holds == holds
            and out.probability == p
            and out.vacuous == (p is None)
            and [v.index for v in out.witnesses] == witnesses
        )

    def shares(self):
        ops = max(self.stats["ops"], 1)
        return {
            "input.repeated_premise_share": self.stats["repeated"] / ops,
            "input.vacuous_share": self.stats["vacuous"] / ops,
            "input.map_tie_share": self.stats["map_tie"] / max(self.stats["map"], 1),
        }

    def warm(self, state, op, result):
        _, delta, alpha = result
        kind, model = op["kind"], state["model"]
        if kind == "bayes":
            self._time_warm("entail.verdict", self.B.bayes_entails, model, delta, alpha, op["omega"])
        elif kind.startswith("map-"):
            self._time_warm("entail.verdict", self.B.map_entails, model, delta, alpha, kind[4:])
            self._time_warm("entail.map_set", self.B.map_set, model, delta)


# --- audit-pools --------------------------------------------------------------

PROPS7 = (
    "reflexivity",
    "monotony",
    "cut",
    "supraclassicality",
    "cautious_monotony",
    "classical_cautious_monotony",
    "classical_cut",
)
# Threshold ops weight the paper's classical cumulativity checks double.
THRESHOLD_PROPS = PROPS7 + ("classical_cautious_monotony", "classical_cut")
AUDIT_OMEGAS = (Fraction(1), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10))
# Outcomes the paper proves, whatever the world.
ALWAYS_PASS = {"supraclassicality", "reflexivity", "classical_cautious_monotony", "classical_cut"}
PASS_AT_ONE = {"reflexivity", "monotony", "cut"}
PARAMETRIC = (("monotony", "monotony"), ("monotony", "cautious_monotony"), ("cut", "cut"))


class AuditPools(Workload):
    """check_property over the 3-symbol depth-2 pool, plus `or` and the parametric worlds on AB."""

    name = "audit-pools"

    def __init__(self, *args):
        super().__init__(*args)
        self.relations = {}
        self.verdicts = {}

    def setup_inputs(self):
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        self.big = ["a", "b"] if self.smoke else ["a", "b", "c"]
        self.weights = {
            "big": [inputs.random_weights(rng, 1 << len(self.big), 0.25, 20) for _ in range(6)],
            "ab": [inputs.random_weights(rng, 4, 0.25, 20) for _ in range(3)],
        }
        self.orders = {}
        data = {"probs": {}, "structures": {}}
        for key, size, count in (("big", 1 << len(self.big), 4), ("ab", 4, 2)):
            data["probs"][key] = [inputs.probs_of(w) for w in self.weights[key]]
            self.orders[key], data["structures"][key] = [], []
            for _ in range(count):
                universe = rng.sample(range(size), rng.randint(max(3, size - 3), size))
                order, edges = inputs.random_dag(rng, universe, 2)
                self.orders[key].append(ref.Order(order, edges))
                data["structures"][key].append(
                    {"universe": universe, "edges": [list(e) for e in edges]})
        return data

    def setup(self, data):
        B = self.B
        state = {}
        for key, syms in (("big", self.big), ("ab", ["a", "b"])):
            table = B.SymbolTable(syms)
            state[key] = {
                "pool": B.enumerate_pool(table, 2),
                "worlds": [B.WorldModel(table, p) for p in data["probs"][key]],
                "structures": [B.structure_from_dict(s, table) for s in data["structures"][key]],
            }
        state["parametric"] = {
            (kind, w): make(w)
            for kind, make in (("monotony", B.monotony_counterexample_world),
                               ("cut", B.cut_counterexample_world))
            for w in B.OMEGA_GRID
        }
        return state

    def ops(self):
        i = 0
        while True:
            rng = op_rng(self.name, self.seed, i)
            slot, m = i % 13, i // 13
            op = {"pool": "big", "base": "support-relative"}
            if slot < 7:
                t = m * 7 + slot
                n = len(THRESHOLD_PROPS)
                op.update(kind="threshold", prop=THRESHOLD_PROPS[t % n],
                          omega=AUDIT_OMEGAS[(t // n) % 4],
                          base=("strict", "support-relative")[(t // (4 * n)) % 2],
                          world=rng.randrange(6))
            elif slot == 7:
                op.update(kind="map", prop=PROPS7[m % 7],
                          mode=("universal", "existential")[(m // 7) % 2],
                          base=("strict", "support-relative")[(m // 14) % 2],
                          world=rng.randrange(6))
            elif slot == 8:
                op.update(kind="pref", prop=PROPS7[m % 7], structure=rng.randrange(4))
            elif slot < 12:
                k = 3 * m + slot - 9
                op.update(pool="ab", prop="or", kind=("threshold", "map", "pref")[k % 3],
                          omega=AUDIT_OMEGAS[(k // 3) % 4], mode="universal",
                          world=rng.randrange(3), structure=rng.randrange(2))
            else:
                world, prop = PARAMETRIC[m % 3]
                op.update(pool="ab", kind="parametric", prop=prop, world=world,
                          omega=self.B.OMEGA_GRID[m % 7])
            yield op
            i += 1

    def _oracle(self, state, op):
        B, side = self.B, state[op["pool"]]
        kind = op["kind"]
        if kind == "threshold":
            return B.bayes_oracle(side["worlds"][op["world"]], op["omega"], base=op["base"])
        if kind == "map":
            return B.map_oracle(side["worlds"][op["world"]], op["mode"], base=op["base"])
        if kind == "pref":
            return B.pref_oracle(side["structures"][op["structure"]])
        world = state["parametric"][(op["world"], op["omega"])]
        return B.bayes_oracle(world, op["omega"], base=op["base"])

    def run(self, state, op):
        oracle = self._oracle(state, op)
        return self.B.check_property(oracle, op["prop"], state[op["pool"]]["pool"], 1)

    def relation(self, state, op):
        """Reference relation for the op's oracle, tabulated once per run."""
        kind, pool_key = op["kind"], op["pool"]
        key = tuple(sorted((k, str(v)) for k, v in op.items() if k != "prop"))
        if key in self.relations:
            return self.relations[key]
        syms = self.big if pool_key == "big" else ["a", "b"]
        size = 1 << len(syms)
        if kind == "parametric":
            w = op["omega"]
            weights = ([0, 1 - w, 1 - w, 2 * w - 1] if op["world"] == "monotony"
                       else [0, 1 - w, w * (1 - w), w * w])
        elif kind != "pref":
            weights = self.weights[pool_key][op["world"]]
        if kind in ("threshold", "parametric"):
            query = ref.threshold_query(weights, op["omega"])
        elif kind == "map":
            query = ref.map_query(weights, op["mode"] == "universal")
        else:
            query = ref.pref_query(self.orders[pool_key][op["structure"]], size)
        base = (ref.strict_base(size) if kind == "pref" or op["base"] == "strict"
                else ref.support_base(weights))
        rel = pool_relation(self.B, syms, state[pool_key]["pool"].formulas, query, base)
        self.relations[key] = rel
        return rel

    def expected(self, op, rel):
        """Reference verdict: the tabulated relation, which must agree with the paper's theorems."""
        key = (id(rel), op["prop"])
        if key not in self.verdicts:
            self.verdicts[key] = rel.violated(op["prop"])
        violated = self.verdicts[key]
        theorem = None
        if op["kind"] == "parametric":
            theorem = True
        elif op["kind"] == "threshold" and (
                op["prop"] in ALWAYS_PASS or (op["omega"] == 1 and op["prop"] in PASS_AT_ONE)):
            theorem = False
        if theorem is not None and theorem != violated:
            raise AssertionError(f"reference contradicts the paper's theorem for {op}")
        return violated

    def check(self, state, op, report):
        rel = self.relation(state, op)
        violated = self.expected(op, rel)
        found = report.verdict == "counterexample"
        self.stats["counterexample"] += found
        if found != violated or report.verdict not in ("pass", "counterexample"):
            return False
        return not found or confirms(rel, op["prop"], report.counterexample)

    def shares(self):
        return {"audit.counterexample_share": self.stats["counterexample"] / max(self.stats["ops"], 1)}


# --- filter-n7 ----------------------------------------------------------------

FILTER_KINDS = ("sticky", "matrix", "identity", "sticky", "matrix")
# 3 to 8 steps, with 5 twice so that the median op is a 5-step chain
# rather than the boundary between two lengths.
CHAIN_STEPS = (3, 4, 5, 6, 7, 8, 5)


class FilterN7(Workload):
    """temporal_entails over seeded n=7 scenarios, one scenario per op."""

    name = "filter-n7"

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 2 if self.smoke else 7
        self.syms = inputs.names(self.n, "x")
        self.truth = ref.Truth(self.n)

    def setup_inputs(self):
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        self.priors = [inputs.random_weights(rng, 1 << self.n, 0.25, 50) for _ in range(4)]
        return {"probs": [inputs.probs_of(w) for w in self.priors]}

    def setup(self, data):
        B = self.B
        table = B.SymbolTable(self.syms)
        priors = [B.WorldModel(table, p) for p in data["probs"]]
        truth_mask = getattr(B.formula, "truth_mask", None)
        if truth_mask is not None:
            for s in self.syms:
                truth_mask(B.Atom(s), table)
        size = 1 << self.n
        return {
            "table": table,
            "priors": priors,
            "identity": B.identity_transition(size),
            "sticky": {eps: B.sticky_transition(size, eps) for eps in inputs.EPSILONS},
        }

    def ops(self):
        size = 1 << self.n
        i = 0
        while True:
            rng = op_rng(self.name, self.seed, i)
            kind = FILTER_KINDS[i % len(FILTER_KINDS)]
            steps = 2 if self.smoke else CHAIN_STEPS[i % len(CHAIN_STEPS)]
            kill_at = steps // 2 if i % 8 == 3 else None
            transition = inputs.random_transition(rng, kind, size)
            obs = inputs.observations(rng, self.n, steps, self.truth.share, kind == "identity", kill_at)
            conclusion = inputs.random_formula(rng, self.n, 2)
            yield {
                "kind": kind,
                "prior": rng.randrange(len(self.priors)),
                "transition": transition,
                "rows": transition.fraction_rows() if kind == "matrix" else None,
                "obs_trees": obs,
                "observations": [[inputs.render(f, self.syms) for f in row] for row in obs],
                "conclusion_tree": conclusion,
                "conclusion": inputs.render(conclusion, self.syms),
                "omega": Fraction(rng.choice(inputs.OMEGA_TEXTS)),
            }
            i += 1

    def run(self, state, op):
        B = self.B
        table = state["table"]
        self.context["transition"] = op["kind"]
        if op["kind"] == "sticky":
            transition = state["sticky"][op["transition"].eps]
        elif op["kind"] == "identity":
            transition = state["identity"]
        else:
            transition = op["rows"]
        model = B.TemporalModel(table, state["priors"][op["prior"]].probs, transition)
        observations = [B.parse_premises(row, table) for row in op["observations"]]
        alpha = B.parse_formula(op["conclusion"], table)
        return B.temporal_entails(model, observations, alpha, op["omega"])

    def reference(self, op):
        """(final weights, or None if dead) by the integer forward pass; by trajectories too when tiny."""
        masks = [self.truth.all_of(row) for row in op["obs_trees"]]
        prior = self.priors[op["prior"]]
        final = ref.normalised(ref.forward(prior, op["transition"], masks)[-1])
        if self.smoke and final != ref.trajectory_marginal(prior, op["transition"], masks):
            raise AssertionError("forward pass disagrees with trajectory enumeration")
        return final

    def check(self, state, op, verdict):
        final = self.reference(op)
        self.stats[op["kind"]] += 1
        self.stats["steps"] += len(op["observations"])
        if final is None:
            self.stats["dead"] += 1
            return verdict.holds and verdict.vacuous and verdict.probability is None
        amask = self.truth.mask(op["conclusion_tree"])
        p = sum(w for i, w in enumerate(final) if (amask >> i) & 1)
        return (not verdict.vacuous and verdict.probability == p
                and verdict.holds == (p >= op["omega"]))

    def shares(self):
        ops = max(self.stats["ops"], 1)
        out = {f"input.transition_{k}_share": self.stats[k] / ops for k in ("sticky", "identity", "matrix")}
        out["temporal.steps_per_op"] = self.stats["steps"] / ops
        out["temporal.dead_share"] = self.stats["dead"] / ops
        return out


# --- cli-oneshot --------------------------------------------------------------

VERBS = ("entail", "prob", "map-entail", "pref-entail", "audit", "simulate")
CLI_DENSITIES = (1 / 16, 1 / 8, 1 / 4, 1 / 2)


class CliOneshot(Workload):
    """One `python -m bayent.cli` process per op, cycling through all six verbs."""

    name = "cli-oneshot"
    fresh_setup = True

    def __init__(self, *args):
        super().__init__(*args)
        small = self.smoke
        self.sizes = {"world": 2 if small else 14, "order": 2 if small else 7,
                      "audit": 2 if small else 3, "scenario": 2 if small else 6}
        self.truths = {n: ref.Truth(n) for n in set(self.sizes.values())}
        self.relations = {}
        self.traced = False

    def _write(self, name, body):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        return path

    def setup_inputs(self):
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        os.makedirs(self.workdir, exist_ok=True)
        sz = self.sizes
        self.files = {"world": [], "order": [], "audit": [], "scenario": []}
        for k in range(2):
            w = inputs.random_weights(rng, 1 << sz["world"], 0.25, 8)
            path = self._write(f"world{k}.json", inputs.world_dict(inputs.names(sz["world"]), w))
            self.files["world"].append((path, w))
        for k in range(2):
            order, edges = inputs.dag_near(rng, range(1 << sz["order"]), 1100, closed_edge_count)
            path = self._write(f"order{k}.json", {"universe": list(range(1 << sz["order"])),
                                                  "edges": [list(e) for e in edges]})
            self.files["order"].append((path, ref.Order(order, edges)))
        for k in range(3):
            w = inputs.random_weights(rng, 1 << sz["audit"], 0.25, 20)
            path = self._write(f"audit{k}.json", inputs.world_dict(["a", "b", "c"][:sz["audit"]], w))
            self.files["audit"].append((path, w))
        n = sz["scenario"]
        syms = inputs.names(n, "x")
        for k in range(6):
            kind = FILTER_KINDS[k % len(FILTER_KINDS)]
            steps = 2 if self.smoke else 3 + k
            prior = inputs.random_weights(rng, 1 << n, 0.25, 50)
            transition = inputs.random_transition(rng, kind, 1 << n)
            obs = inputs.observations(rng, n, steps, self.truths[n].share, kind == "identity",
                                      steps - 2 if k == 4 else None)
            body = {"prior": inputs.world_dict(syms, prior), "transition": transition.spec(),
                    "observations": [[inputs.render(f, syms) for f in row] for row in obs]}
            self.files["scenario"].append((self._write(f"scenario{k}.json", body),
                                           (prior, transition, obs)))
        return None

    def _call(self, args, op_id=None, timeout=120):
        if self.traced and op_id is not None:
            out = os.path.join(self.workdir, f"spans-op{op_id}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), out, str(op_id), *args]
        else:
            cmd = [sys.executable, "-m", "bayent.cli", *args]
        return subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=timeout)

    def setup(self, data):
        done = self._call(["--help"])
        if done.returncode != 0:
            raise RuntimeError(f"bayent.cli --help failed: {done.stderr.strip()}")
        return {}

    def ops(self):
        sz = self.sizes
        i = 0
        while True:
            rng = op_rng(self.name, self.seed, i)
            verb = VERBS[i % len(VERBS)]
            m = i // len(VERBS)
            op = {"kind": verb, "id": i}
            if verb in ("entail", "prob", "map-entail", "pref-entail"):
                n = sz["order"] if verb == "pref-entail" else sz["world"]
                syms = inputs.names(n)
                prem = inputs.premise_set(rng, n, self.truths[n].share, CLI_DENSITIES[m % 4], 2, 2)
                concl = inputs.random_formula(rng, n, 3)
                op.update(n=n, premise_trees=prem, conclusion_tree=concl)
                args = [verb]
                for f in prem:
                    args += ["--premise", inputs.render(f, syms)]
                if verb != "prob" or m % 2:
                    args += ["--conclusion", inputs.render(concl, syms)]
                else:
                    op["conclusion_tree"] = None
                if verb == "pref-entail":
                    path, order = self.files["order"][m % 2]
                    op["order"] = order
                    args += ["--structure", path, "--symbols", ",".join(syms)]
                else:
                    path, weights = self.files["world"][m % 2]
                    op["weights"] = weights
                    args += ["--world", path]
                if verb == "entail":
                    op["omega"] = rng.choice(inputs.OMEGA_TEXTS)
                    args += ["--omega", op["omega"]]
                if verb == "map-entail":
                    op["mode"] = ("universal", "existential")[m % 2]
                    args += ["--mode", op["mode"]]
            elif verb == "audit":
                path, weights = self.files["audit"][m % 3]
                op.update(prop=PROPS7[m % 7], weights=weights,
                          base=("strict", "support-relative")[(m // 7) % 2])
                args = ["audit", "--world", path, "--property", op["prop"], "--base", op["base"]]
                if (m // 14) % 3 == 2:
                    op["mode"] = "universal"
                    args += ["--map"]
                else:
                    op["omega"] = str(AUDIT_OMEGAS[m % 4])
                    args += ["--omega", op["omega"]]
            else:
                path, scenario = self.files["scenario"][m % 6]
                n = sz["scenario"]
                concl = inputs.random_formula(rng, n, 2)
                op.update(scenario=scenario, conclusion_tree=concl,
                          omega=rng.choice(inputs.OMEGA_TEXTS))
                args = ["simulate", "--scenario", path, "--conclusion",
                        inputs.render(concl, inputs.names(n, "x")), "--omega", op["omega"]]
            op["args"] = args
            yield op
            i += 1

    def run(self, state, op):
        done = self._call(op["args"], op["id"])
        return done.returncode, done.stdout, done.stderr

    def absorb(self, tracer, op, result):
        path = os.path.join(self.workdir, f"spans-op{op['id']}.json")
        with open(path, encoding="utf-8") as fh:
            tracer.merge(json.load(fh), op["id"])
        os.remove(path)

    def check(self, state, op, result):
        code, stdout, stderr = result
        if code not in (0, 1):
            raise RuntimeError(f"exit {code}: {stderr.strip()[-300:]}")
        out = json.loads(stdout)
        verb = op["kind"]
        if verb == "audit":
            return self._check_audit(op, code, out)
        if verb == "simulate":
            return self._check_simulate(op, code, out)
        truth = self.truths[op["n"]]
        dmask = truth.all_of(op["premise_trees"])
        amask = truth.mask(op["conclusion_tree"]) if op["conclusion_tree"] else None
        if verb == "pref-entail":
            maximal = op["order"].maximal(dmask)
            holds = all((amask >> i) & 1 for i in maximal)
            return (code == (0 if holds else 1) and out["holds"] == holds
                    and [m["index"] for m in out["maximal_models"]] == maximal)
        w = op["weights"]
        if verb == "prob":
            p = (Fraction(ref.weight(w, truth, dmask), sum(w)) if amask is None
                 else ref.conditional(w, truth, dmask, amask))
            return code == 0 and out["probability"] == (None if p is None else str(p))
        if verb == "entail":
            holds, p, witnesses = ref.threshold(w, truth, dmask, amask, Fraction(op["omega"]))
        else:
            holds, p, witnesses = ref.map_verdict(w, truth, dmask, amask, op["mode"] == "universal")
            self.stats["map"] += 1
            self.stats["map_tie"] += len(witnesses) > 1
        self.stats["verdicts"] += 1
        self.stats["vacuous"] += p is None
        return (code == (0 if holds else 1) and out["holds"] == holds
                and out["probability"] == (None if p is None else str(p))
                and out["vacuous"] == (p is None)
                and [x["index"] for x in out["witnesses"]] == witnesses)

    def _check_audit(self, op, code, out):
        B = self.B
        syms = ["a", "b", "c"][: self.sizes["audit"]]
        size = 1 << len(syms)
        key = (op["args"][2], op["base"], op.get("omega"), op.get("mode"))
        if key not in self.relations:
            pool = B.enumerate_pool(B.SymbolTable(syms), 2).formulas
            w = op["weights"]
            query = (ref.map_query(w, True) if op.get("mode")
                     else ref.threshold_query(w, Fraction(op["omega"])))
            base = ref.strict_base(size) if op["base"] == "strict" else ref.support_base(w)
            self.relations[key] = pool_relation(B, syms, pool, query, base)
        rel = self.relations[key]
        (report,) = out["reports"]
        found = report["verdict"] == "counterexample"
        if found != rel.violated(op["prop"]) or code != int(found):
            return False
        return not found or confirms(rel, op["prop"], report["counterexample"])

    def _check_simulate(self, op, code, out):
        prior, transition, obs = op["scenario"]
        truth = self.truths[self.sizes["scenario"]]
        masks = [truth.all_of(row) for row in obs]
        steps = [ref.normalised(b) for b in ref.forward(prior, transition, masks)]
        for got, want in zip(out["steps"], steps, strict=True):
            if want is None:
                if got["alive"] or any(x != "0" for x in got["weights"]):
                    return False
            elif not got["alive"] or got["weights"] != [str(x) for x in want]:
                return False
        final = steps[-1]
        verdict = out["verdict"]
        self.stats["simulate"] += 1
        self.stats["steps"] += len(obs)
        self.stats[transition.kind] += 1
        if final is None:
            self.stats["dead"] += 1
            return code == 0 and verdict["holds"] and verdict["vacuous"]
        amask = truth.mask(op["conclusion_tree"])
        p = sum(x for i, x in enumerate(final) if (amask >> i) & 1)
        holds = p >= Fraction(op["omega"])
        return (code == (0 if holds else 1) and verdict["holds"] == holds
                and verdict["probability"] == str(p))

    def shares(self):
        verdicts, runs = max(self.stats["verdicts"], 1), max(self.stats["simulate"], 1)
        out = {f"input.transition_{k}_share": self.stats[k] / runs for k in ("sticky", "identity", "matrix")}
        out["input.vacuous_share"] = self.stats["vacuous"] / verdicts
        out["input.map_tie_share"] = self.stats["map_tie"] / max(self.stats["map"], 1)
        out["temporal.steps_per_op"] = self.stats["steps"] / runs
        out["temporal.dead_share"] = self.stats["dead"] / runs
        return out


WORKLOADS = {w.name: w for w in (QueryN16, AuditPools, FilterN7, CliOneshot)}
