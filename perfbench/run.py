"""Benchmark for bayent: one workload per run, checked against independent references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; the program is imported from
`src/` there, nothing is installed. Every interpreter it starts runs
with PYTHONHASHSEED=0, this one included (it re-executes itself).

With --trace 0 a run measures set-up, then runs ops for S seconds of
op time and prints the end-to-end metrics. With --trace 1 it wraps the
program's public functions in spans (spans.py), runs the same ops, and
prints the per-layer metrics; the end-to-end numbers of a traced run
are never reported. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it, starting
with "#", give the Python version, nproc, error rate and input shares.

--smoke runs every workload at its smallest size (n=2 world, AB pool,
2-step n=2 scenarios, one CLI call per verb), traced and untraced, with
all reference checks, and exits 0 only if every output is correct.

Internal flags, used by the benchmark on itself: --setup-only (print one
cold set-up time) and --ops K (run exactly K ops and no extra set-ups;
the untraced twin of a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 3
STARTUP_SAMPLES = 5
WALL_LIMIT_S = 75  # stop taking ops after this, so a traced run and its twin end within 180 s
SMOKE_OPS = {"query-n16": 16, "audit-pools": 40, "filter-n7": 10, "cli-oneshot": 6}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
AUDIT_PROPERTIES = (
    "reflexivity", "monotony", "cut", "supraclassicality", "cautious_monotony",
    "classical_cautious_monotony", "classical_cut", "or",
)
CLI_VERBS = ("prob", "entail", "map-entail", "pref-entail", "audit", "simulate")


def python_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def import_program():
    """Import bayent from this checkout's src/, or fail."""
    if not os.path.isfile(os.path.join(SRC, "bayent", "__init__.py")):
        raise SystemExit(f"error: no program to benchmark at {SRC}")
    sys.path.insert(0, SRC)
    import bayent

    where = os.path.dirname(os.path.abspath(bayent.__file__))
    if where != os.path.join(SRC, "bayent"):
        raise SystemExit(f"error: imported bayent from {where}, not from {SRC}")
    return bayent


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def peak_rss_mib(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run_self(args, extra, timeout=170):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(cmd, env=python_env(), capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    """One workload: set-up, then a closed loop of ops, each checked after it is timed."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.latencies = []
        self.kinds = []
        self.failed = 0
        self.errors_shown = 0

    def setup(self):
        data = self.w.setup_inputs()
        start = perf_counter()
        state = self.w.setup(data)
        return state, perf_counter() - start

    def ops(self, state, seconds, max_ops=None):
        w, tracer = self.w, self.tracer
        run = tracer.wrap(w.run, "op") if tracer else w.run
        busy, wall0 = 0.0, perf_counter()
        for i, op in enumerate(w.ops()):
            if max_ops is not None:
                if i >= max_ops:
                    break
            elif busy >= seconds or perf_counter() - wall0 >= WALL_LIMIT_S:
                break
            if tracer:
                tracer.op = i
            result, error = None, None
            start = perf_counter()
            try:
                result = run(state, op)
            except Exception:  # an op that raises is counted as failed, and the run goes on
                error = traceback.format_exc()
            elapsed = perf_counter() - start
            if tracer:
                tracer.op = -1
            busy += elapsed
            self.latencies.append(elapsed)
            self.kinds.append(op["kind"])
            w.stats["ops"] += 1
            if error is None:
                if tracer:
                    tracer.paused = True  # warm re-timing and checks are not part of the op
                try:
                    if tracer:
                        w.warm(state, op, result)
                        w.absorb(tracer, op, result)
                    if not w.check(state, op, result):
                        error = f"output disagrees with the reference: {op.get('args', op['kind'])}"
                except Exception:
                    error = traceback.format_exc()
                if tracer:
                    tracer.paused = False
            if error is not None:
                self.failed += 1
                if self.errors_shown < 3:
                    self.errors_shown += 1
                    print(f"op {i} failed: {error}", file=sys.stderr)
        return busy

    def result(self, metrics):
        return {"correct": self.failed == 0 and len(self.latencies) > 0,
                "attempted": len(self.latencies), "failed": self.failed, "metrics": metrics}


def end_to_end(args, workload_cls, bayent):
    workdir = os.path.join(BUILD, f"{args.workload}-{args.seed}-{os.getpid()}")
    w = workload_cls(bayent, args.seed, False, workdir, python_env())
    run = Run(w)
    try:
        state, first = run.setup()
        if args.setup_only:
            print(json.dumps({"setup_s": first}))
            return 0
        setups = [first]
        if args.ops is None:
            for _ in range(SETUP_SAMPLES - 1):
                if w.fresh_setup:
                    start = perf_counter()
                    w.setup(None)
                    setups.append(perf_counter() - start)
                else:
                    setups.append(run_self(args, ["--trace", "0", "--setup-only"])["setup_s"])
        busy = run.ops(state, args.seconds, args.ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lat_ms = [x * 1000 for x in run.latencies]
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": quantile(lat_ms, 90),
        "ops_per_s": len(lat_ms) / busy,
        "peak_rss_mib": peak_rss_mib(w.fresh_setup),
    }
    describe(args, run, values, setups)
    print(json.dumps(run.result({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()})))
    return 0


def describe(args, run, values, setups=()):
    w = run.w
    n = len(run.latencies)
    print(f"# workload {args.workload} seed {args.seed} python {platform.python_version()} "
          f"nproc {len(os.sched_getaffinity(0))} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}")
    if "op_p90_ms" in values:
        above = sum(x * 1000 > values["op_p90_ms"] for x in run.latencies)
        print(f"# ops {n}, {above} above p90, set-up samples {[round(s, 4) for s in setups]}")
    print(f"# error_rate {run.failed / max(n, 1)} ({run.failed} of {n})")
    for key, value in sorted(w.shares().items()):
        print(f"# {key} {value:.4f}")
    for key, value in values.items():
        print(f"# {key} {value:.4f} {END_TO_END_UNITS[key]}")


def per_layer(args, workload_cls, bayent):
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    workdir = os.path.join(BUILD, f"{args.workload}-{args.seed}-{os.getpid()}")
    w = workload_cls(bayent, args.seed, False, workdir, python_env())
    w.traced = True
    tracer.context = w.context
    run = Run(w, tracer)
    try:
        state, _ = run.setup()
        run.ops(state, args.seconds)
        startup = cli_startup(w) if w.fresh_setup else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    twin = run_self(args, ["--trace", "0", "--ops", str(len(run.latencies))])
    metrics = layer_metrics(tracer, run, twin["metrics"]["op_p50_ms"]["value"], startup)
    describe(args, run, {})
    os.makedirs(BUILD, exist_ok=True)
    path = os.path.join(BUILD, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(path)
    print(f"# {len(tracer.spans)} of {tracer.next_id} spans written to {os.path.relpath(path, ROOT)}")
    correct = run.result({})["correct"] and twin["correct"]
    out = run.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out["correct"] = correct
    print(json.dumps(out))
    return 0


def cli_startup(w):
    """Interpreter start plus `import bayent.cli`, doing no work; median of a few."""
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import bayent.cli"], env=w.env, check=True, timeout=60)
        times.append(perf_counter() - start)
    return times


def layer_metrics(tracer, run, untraced_p50_ms, startup):
    """Per-layer metrics, all of them for every workload (0 where a layer is not used)."""
    w = run.w
    ops = max(len(run.latencies), 1)
    ms, count, share = "ms", "count", "share"
    warm = {k: sum(v) * 1000 / len(v) for k, v in w.warm_s.items()}
    by_kind = {}
    for kind, seconds in zip(run.kinds, run.latencies):
        by_kind.setdefault(kind, []).append(seconds * 1000)
    m = {
        "formula.parse.ms_per_op": (tracer.self_ms("formula.parse", "op") / ops, ms),
        "formula.truth_mask.ms_per_op": (tracer.self_ms("formula.truth_mask", "op") / ops, ms),
        "formula.truth_mask.calls_per_op": (
            (tracer.calls("formula.truth_mask", "op") + tracer.calls("formula.atom_masks.cold", "op"))
            / ops, count),
        "formula.atom_masks.cold_ms": (
            tracer.self_ms("formula.atom_masks.cold") / max(tracer.cold_tables(), 1), ms),
        "worlds.build.ms": (tracer.mean_outer_ms("worlds.build"), ms),
        "worlds.mass.ms_per_op": (tracer.self_ms("worlds.mass", "op") / ops, ms),
        "worlds.mass.calls_per_op": (tracer.calls("worlds.mass", "op") / ops, count),
        "worlds.mass.valuations_per_op": (tracer.counted("mass.valuations", "op") / ops, count),
        "entail.verdict.ms_per_op": (warm.get("entail.verdict", 0.0), ms),
        "entail.map_set.ms_per_op": (warm.get("entail.map_set", 0.0), ms),
        "preferential.build.ms": (tracer.mean_outer_ms("preferential.build"), ms),
        "preferential.edges_closed": (
            tracer.counted("preferential.edges") / max(tracer.calls("preferential.build"), 1), count),
        "preferential.maximal_models.ms_per_op": (
            tracer.self_ms("preferential.maximal_models", "op") / ops, ms),
        "audit.enumerate_pool.ms": (tracer.mean_outer_ms("audit.enumerate_pool"), ms),
    }
    for prop in AUDIT_PROPERTIES:
        m[f"audit.check_property.{prop}.ms"] = (tracer.mean_outer_ms(f"audit.check_property.{prop}", "op"), ms)
    checks = sum(tracer.calls(f"audit.check_property.{p}", "op") for p in AUDIT_PROPERTIES)
    m["audit.cases_per_op"] = (tracer.counted("audit.cases", "op") / max(checks, 1), count)
    m["audit.counterexample_share"] = (tracer.counted("audit.counterexamples", "op") / max(checks, 1), share)
    m["temporal.model_build.ms"] = (tracer.mean_outer_ms("temporal.model_build", "op"), ms)
    for kind in ("sticky", "identity", "matrix"):
        m[f"temporal.filter_step.{kind}.ms"] = (tracer.mean_outer_ms(f"temporal.filter_step.{kind}", "op"), ms)
    m["temporal.steps_per_op"] = (0.0, count)
    m["temporal.dead_share"] = (0.0, share)
    m["cli.startup_ms"] = (statistics.median(startup) * 1000 if startup else 0.0, ms)
    for verb in CLI_VERBS:
        times = by_kind.get(verb, [])
        m[f"cli.{verb}.ms"] = (sum(times) / len(times) if times else 0.0, ms)
    m["cli.load_json.ms"] = (tracer.self_ms("cli.load_json", "op") / ops, ms)
    m["cli.emit.ms"] = (tracer.self_ms("cli.emit", "op") / ops, ms)
    traced_p50 = statistics.median(run.latencies) * 1000
    m["trace.overhead_pct"] = ((traced_p50 - untraced_p50_ms) / untraced_p50_ms * 100, "%")
    for key in ("input.repeated_premise_share", "input.vacuous_share", "input.map_tie_share",
                "input.transition_sticky_share", "input.transition_identity_share",
                "input.transition_matrix_share"):
        m[key] = (0.0, share)
    for key, value in w.shares().items():
        m[key] = (value, m[key][1])
    m["error_rate"] = (run.failed / ops, share)
    return m


def smoke(bayent, workloads):
    """Every workload at its smallest size, untraced then traced; exit 0 iff all correct."""
    import spans

    failures = 0
    for traced in (False, True):
        tracer = None
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer)
        for name, cls in workloads.items():
            workdir = os.path.join(BUILD, f"smoke-{name}-{os.getpid()}")
            w = cls(bayent, 0, True, workdir, python_env())
            w.traced = traced
            if tracer:
                tracer.context = w.context
            run = Run(w, tracer)
            try:
                state, _ = run.setup()
                run.ops(state, None, SMOKE_OPS[name])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if traced:
                layer_metrics(tracer, run, 1.0, [])
            ok = run.failed == 0 and len(run.latencies) == SMOKE_OPS[name]
            failures += not ok
            print(f"smoke {name} traced={int(traced)}: {len(run.latencies)} ops, "
                  f"{run.failed} failed -> {'ok' if ok else 'FAIL'}")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    bayent = import_program()
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(bayent, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.trace:
        return per_layer(args, WORKLOADS[args.workload], bayent)
    return end_to_end(args, WORKLOADS[args.workload], bayent)


if __name__ == "__main__":
    sys.exit(main())
