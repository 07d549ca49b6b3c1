"""ecadvice benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload degenerate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A fuller report
(input manifest and digest, failures by exception type, span table) goes to
perfbench/results/<workload>-trace<t>.json, and traced runs also write every
span to perfbench/results/<workload>-spans.tsv.gz.

A run sets up SETUP_REPS times (import, instance generation, stream-file
writing) and reports the median, then runs whole passes over the op list
until --seconds is spent; a traced run makes one untraced pass first, to
compare outputs and measure the tracing overhead.  The run keeps the
interpreter's default recursion limit and the default search budget, and
an op that raises is counted as failed, never dropped.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import resource
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "ecadvice"
LAYERS = ("generators", "graphs", "coloring", "advice", "oracle", "runtime", "adversaries", "cli")
SETUP_REPS = 5
REFERENCE_EDGES = 1500  # reference work per timing: about 1.2-1.8 ms on a 2-vCPU cloud VM
REFERENCE_S = 1e-3      # reported times are at the speed where that work takes 1 ms

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "edges_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "online_us_per_edge": "us",
    "ok_share": "share",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics read from the span table: (span name, field) per metric.
SPAN_METRICS = {
    "coloring.exact_color.calls": ("coloring.exact_color", "calls"),
    "coloring.exact_color.self_s": ("coloring.exact_color", "self_s"),
    "graphs.degeneracy.calls": ("graphs.degeneracy", "calls"),
    "graphs.degeneracy.self_s": ("graphs.degeneracy", "self_s"),
    "graphs.Graph.calls": ("graphs.Graph", "calls"),
    "graphs.Graph.self_s": ("graphs.Graph", "self_s"),
    "oracle.build_partition.self_s": ("oracle.build_partition", "self_s"),
    "oracle.optimal_coloring.self_s": ("oracle.optimal_coloring", "self_s"),
    "oracle.build_advice.self_s": ("oracle.build_advice", "self_s"),
    "coloring.vizing_plus_one.self_s": ("coloring.vizing_plus_one", "self_s"),
    "coloring.konig_color.self_s": ("coloring.konig_color", "self_s"),
    "advice.pack_record.self_s": ("advice.pack_record", "self_s"),
    "advice.unpack_record.self_s": ("advice.unpack_record", "self_s"),
    "advice.encode_tape.self_s": ("advice.encode_tape", "self_s"),
    "runtime.simulate.self_s": ("runtime.simulate", "self_s"),
    "runtime.AdviceAlgorithm.step.self_s": ("runtime.AdviceAlgorithm.step", "self_s"),
    "runtime.GreedyVariant.step.calls": ("runtime.GreedyVariant.step", "calls"),
    "runtime.GreedyVariant.step.self_s": ("runtime.GreedyVariant.step", "self_s"),
    "adversaries.elimination_game.self_s": ("adversaries.elimination_game", "self_s"),
    "adversaries.permutation_game.self_s": ("adversaries.permutation_game", "self_s"),
    "adversaries.rigidity_check.self_s": ("adversaries.rigidity_check", "self_s"),
    "graphs.parse_stream.self_s": ("graphs.parse_stream", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def import_api() -> SimpleNamespace:
    """Import the package afresh, so each set-up repetition pays for it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS})


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolated quantile; failed ops are +inf and stay on top."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    if math.isinf(s[hi]):
        return s[hi] if pos > lo else s[lo]
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def reference_kernel() -> int:
    """Fixed pure-Python work in the program's own style: greedy edge
    coloring of a fixed multigraph through per-vertex color sets."""
    used: dict[int, set[int]] = {}
    total = 0
    for i in range(REFERENCE_EDGES):
        at_u = used.setdefault(i % 61, set())
        at_v = used.setdefault((i * 37) % 53 + 61, set())
        c = 1
        while c in at_u or c in at_v:
            c += 1
        at_u.add(c)
        at_v.add(c)
        total += c
    return total


def reference_seconds() -> float:
    gc.disable()
    try:
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, ref: float) -> float:
    """`seconds` at the speed where the reference kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / ref


def timed(call: Callable[[], object]) -> tuple[object, float, float]:
    """(value, seconds, reference seconds) of one call."""
    before = reference_seconds()
    t0 = perf_counter()
    value = call()
    seconds = perf_counter() - t0
    return value, seconds, (before + reference_seconds()) / 2


@dataclass
class Sample:
    """One attempt of one op."""

    op: int
    traced: bool
    seconds: float          # +inf when the op failed
    ref: float              # reference kernel seconds around the call
    result: Optional[Result]


class Run:
    """One workload's op list, the passes over it, and what they measured.

    On a shared host the speed of the same code drifts by up to ~50% in
    stretches of 0.1-10 s as co-tenants come and go.  Every timed call is
    therefore bracketed by timings of a fixed reference kernel, and each
    reported time is rescaled to a fixed reference speed: t * REFERENCE_S /
    ref, the time the call would take on a machine where the kernel takes
    exactly REFERENCE_S.  Raw times stay in the report.
    """

    def __init__(self, ops: list) -> None:
        self.ops = ops
        self.samples: list[Sample] = []
        self.results: list[Optional[Result]] = [None] * len(ops)  # first success per op
        self.digests: list[Optional[str]] = [None] * len(ops)
        self.failures: Counter = Counter()
        self.passes = {"untraced": 0, "traced": 0}
        self.refs: list[float] = []

    def reference(self) -> float:
        ref = reference_seconds()
        self.refs.append(ref)
        return ref

    def run_pass(self, tracer: Optional[Tracer] = None) -> float:
        start = perf_counter()
        for i, op in enumerate(self.ops):
            call = op.call if tracer is None else partial(tracer.run_op, len(self.samples), op.call)
            # Each op starts from empty young generations, so a collection
            # the previous op left pending does not land on this one.
            gc.collect()
            before = self.reference()
            t0 = perf_counter()
            res, error = None, None
            try:
                value = call()
            except Exception as exc:  # every failure is an outcome to count
                error = exc
            seconds = perf_counter() - t0
            ref = (before + self.reference()) / 2
            if error is None:
                try:
                    res = op.check(value)
                    if self.digests[i] is None:
                        self.digests[i] = res.digest
                    checks.require(res.digest == self.digests[i], "output differs from the first pass")
                except Exception as exc:
                    res, error = None, exc
            if error is not None:
                self.failures[type(error).__name__] += 1
                seconds = math.inf
            elif self.results[i] is None:
                self.results[i] = res
            self.samples.append(Sample(i, tracer is not None, seconds, ref, res))
        self.passes["traced" if tracer else "untraced"] += 1
        return perf_counter() - start

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def weights(self) -> list[float]:
        return [REFERENCE_S / s.ref for s in self.samples]

    def op_seconds(self, traced: bool) -> list[float]:
        """Per op, the median rescaled time over its passes; a failed attempt is +inf."""
        per_op: list[list[float]] = [[] for _ in self.ops]
        for s in self.samples:
            if s.traced == traced:
                per_op[s.op].append(scaled(s.seconds, s.ref))
        return [statistics.median(ts) if ts else math.inf for ts in per_op]

    def per_edge(self, field_name: str) -> list[float]:
        """Rescaled seconds per edge of a replay the checks timed."""
        out: list[list[float]] = [[] for _ in self.ops]
        for s in self.samples:
            value = getattr(s.result, field_name, None)
            if value is not None and not s.traced:
                out[s.op].append(scaled(value, s.ref))
        return [statistics.median(xs) for xs in out if xs]

    def end_to_end(self) -> dict[str, float]:
        per_op = self.op_seconds(traced=False)
        done = [(t, r.m) for t, r in zip(per_op, self.results) if r is not None and math.isfinite(t)]
        online = self.per_edge("online_s")
        return {
            "edges_per_s": sum(m for _, m in done) / sum(t for t, _ in done) if done else 0.0,
            "op_ms_p50": quantile(per_op, 0.5) * 1e3,
            "op_ms_p90": quantile(per_op, 0.9) * 1e3,
            "online_us_per_edge": statistics.median(online) * 1e6 if online else 0.0,
            "ok_share": (self.attempted - self.failed) / self.attempted,
        }

    def manifest(self) -> list[dict]:
        return [
            {"op": op.label, **(res.info if res else {"failed": True})}
            for op, res in zip(self.ops, self.results)
        ]

    def input_digest(self) -> str:
        return checks.digest(*(op.inputs for op in self.ops))


def layer_metrics(run: Run, tracer: Tracer, table: dict, gen_s: float) -> dict[str, float]:
    passes = max(run.passes["traced"], 1)
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = table.get(span, {}).get(field, 0) / passes
    engines = Counter()
    for kids in tracer.child_names("oracle.optimal_coloring"):
        engines["konig" if "coloring.konig_color" in kids else "exact" if "coloring.exact_color" in kids else "fan"] += 1
    for engine in ("konig", "fan", "exact"):
        out[f"oracle.chi_engine.{engine}"] = engines[engine] / passes
    infos = [r.info for r in run.results if r is not None and "literal" in r.info]
    m_total = sum(i["m"] for i in infos)
    out["oracle.bundles"] = float(sum(i["bundles"] for i in infos))
    out["oracle.literal_share"] = sum(i["literal"] for i in infos) / m_total if m_total else 0.0
    out["advice.bits_per_edge"] = sum(i["bits_per_edge"] * i["m"] for i in infos) / m_total if m_total else 0.0
    greedy = run.per_edge("greedy_s")
    out["runtime.greedy_us_per_edge"] = statistics.median(greedy) * 1e6 if greedy else 0.0
    out["generators.gen_s"] = gen_s
    both = [
        (u, t) for u, t in zip(run.op_seconds(traced=False), run.op_seconds(traced=True))
        if math.isfinite(u) and math.isfinite(t)
    ]
    out["trace.overhead_share"] = sum(t for _, t in both) / sum(u for u, _ in both) - 1 if both else 0.0
    return out


LAYER_UNITS = {
    **{metric: "count" if field == "calls" else "s" for metric, (_, field) in SPAN_METRICS.items()},
    "oracle.chi_engine.konig": "count",
    "oracle.chi_engine.fan": "count",
    "oracle.chi_engine.exact": "count",
    "oracle.bundles": "count",
    "oracle.literal_share": "share",
    "advice.bits_per_edge": "bit",
    "runtime.greedy_us_per_edge": "us",
    "generators.gen_s": "s",
    "trace.overhead_share": "share",
}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, ops_hook=None):
    """Set up, run passes for `seconds`, and return (result line, report, tracer)."""
    build = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as work:
        setups = []
        for _ in range(SETUP_REPS):
            gen_s: list[float] = []

            def set_up():
                api = import_api()
                ops, gen = build(api, seed, work, tiny)
                gen_s.append(gen)
                return api, ops

            (api, ops), setup_s, ref = timed(set_up)
            setups.append((setup_s, gen_s[0], ref))
        run = Run(ops_hook(ops) if ops_hook else ops)
        tracer = Tracer() if trace else None
        # The inputs live for the whole run; freezing them keeps full
        # collections during ops from rescanning them.
        gc.collect()
        gc.freeze()
        try:
            start = perf_counter()
            last = run.run_pass()
            if trace:
                tracer.install(PACKAGE, vars(api))
                try:
                    while True:
                        last = run.run_pass(tracer)
                        if perf_counter() - start + last > seconds:
                            break
                finally:
                    tracer.uninstall()
            else:
                while perf_counter() - start + last <= seconds:
                    last = run.run_pass()
            wall = perf_counter() - start
        finally:
            gc.unfreeze()

    setup_scaled = [scaled(s, ref) for s, _, ref in setups]
    gen_scaled = [scaled(g, ref) for _, g, ref in setups]
    if trace:
        table = tracer.summary(run.weights())
        metrics = layer_metrics(run, tracer, table, statistics.median(gen_scaled))
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            **run.end_to_end(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "recursion_limit": sys.getrecursionlimit(),
        "node_budget_env": os.environ.get("ECADVICE_NODE_BUDGET"),
        "input_digest": run.input_digest(),
        "ops_per_pass": len(run.ops),
        "passes": run.passes,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_s_quartiles": statistics.quantiles(run.refs, n=4),
        "setup_s": {"raw": [s for s, _, _ in setups], "rescaled": setup_scaled},
        "gen_s": {"raw": [g for _, g, _ in setups], "rescaled": gen_scaled},
        "failures_by_type": dict(run.failures),
        "result": result,
        "manifest": run.manifest(),
    }
    if trace:
        passes = max(run.passes["traced"], 1)
        report["spans_per_pass"] = [
            {"name": name, **{k: v / passes for k, v in row.items()}}
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
            if row["calls"]
        ]
    return result, report, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    origin = Path(importlib.util.find_spec(PACKAGE).origin).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: {PACKAGE} resolves to {origin}, not {SRC}", file=sys.stderr)
        return 2
    # The default search budget applies: an inherited override would mask
    # budget exhaustion.
    os.environ.pop("ECADVICE_NODE_BUDGET", None)

    result, report, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(out / f"{args.workload}-spans.tsv.gz")
    print(
        f"{args.workload}: inputs {report['input_digest'][:16]}, {report['ops_per_pass']} ops/pass, "
        f"passes {report['passes']}, failures {report['failures_by_type'] or 'none'}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
