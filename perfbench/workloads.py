"""The four workloads: inputs drawn from the seed, the timed ops, their gates.

An op is one top-level call into the public API: `run_advice` on one
stream, `cli.main(["run", ...])` on one stream file, or one adversary game
or check.  Every op carries an untimed `check` that applies the output
gate (checks.py), replays the online side for its timing, and returns the
manifest row for its instance.

Ops look the library up through the module objects in `api` at call time,
so the tracer's rebinding reaches them.  Each workload has at least 100 ops
per pass, so that the p90 op time has at least 10 samples beyond it.
"""
from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import checks
from checks import require

MODES = ("strict", "robust")
MODELS = ("request", "tape")


@dataclass
class Result:
    """What an op's check hands back to the harness."""

    m: int
    digest: str
    online_s: Optional[float] = None   # replay of the online side alone
    greedy_s: Optional[float] = None   # plain greedy on the same stream, once per stream
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    inputs: object                       # canonical form, hashed into the input digest
    call: Callable[[], object]           # the timed call
    check: Callable[[object], Result]    # untimed gate


def pairs_of(stream) -> list[tuple[int, int]]:
    return [(e.u, e.v) for e in stream.edges]


def chi_engine(api, stream) -> str:
    """Which branch of `optimal_coloring` settles the chromatic index."""
    g = api.graphs.Graph.from_stream(stream)
    if api.graphs.is_bipartite(g):
        return "konig"
    if len(set(api.coloring.vizing_plus_one(g).assignment.values())) == g.max_degree:
        return "fan"
    return "exact"


def replay_online(api, oracle, mode: str, model: str):
    """Time the consumer alone: simulate a fresh AdviceAlgorithm on the records."""
    if model == "request":
        source = api.runtime.RequestSource(oracle.records)
    else:
        source = api.runtime.TapeSource(api.runtime.encode_tape(oracle.records, oracle.d))
    alg = api.runtime.AdviceAlgorithm(mode)
    t0 = perf_counter()
    report = api.runtime.simulate(oracle.stream, alg, source)
    return perf_counter() - t0, report, alg


def timed_greedy(api, stream, pairs, cache: dict) -> Optional[float]:
    """Greedy's 2*delta-1 bound on this stream; timed on the first check only."""
    if "greedy_s" in cache:
        return None
    t0 = perf_counter()
    report = api.runtime.run_greedy(stream)
    cache["greedy_s"] = perf_counter() - t0
    checks.check_greedy(report, pairs)
    return cache["greedy_s"]


def oracle_info(oracle, engine: str) -> dict:
    return {
        "delta": oracle.delta,
        "d": oracle.d,
        "bits_per_edge": len(oracle.records[0].bits) if oracle.records else 0,
        "chi": oracle.chromatic_index,
        "chi_engine": engine,
        "bundles": len(oracle.partition),
        "literal": sum(1 for adv in oracle.per_edge if adv.mode == 0),
    }


def advice_result(api, run, stream, pairs, mode, model, cache, extra=()) -> Result:
    """Gate one AdviceRun, replay its consumer, and describe the instance."""
    checks.check_advice_run(run, pairs, mode, model)
    online_s, replay, _ = replay_online(api, run.oracle, mode, model)
    require(replay.coloring.assignment == run.report.coloring.assignment, "replay colored differently")
    greedy_s = timed_greedy(api, stream, pairs, cache)
    if "engine" not in cache:
        cache["engine"] = chi_engine(api, stream)
    info = {"n": len({v for p in pairs for v in p}), "m": len(pairs), **oracle_info(run.oracle, cache["engine"])}
    dig = checks.digest(
        [r.bits for r in run.oracle.records], checks.coloring_key(pairs, run.report.coloring.assignment), *extra
    )
    return Result(len(pairs), dig, online_s / len(pairs), greedy_s, info)


def stream_op(api, label: str, stream, d: Optional[int], mode: str, model: str) -> Op:
    pairs = pairs_of(stream)
    cache: dict = {}
    return Op(
        label=f"{label} {mode}/{model}",
        inputs=(label, d, mode, model, pairs),
        call=lambda: api.runtime.run_advice(stream, d, mode=mode, model=model),
        check=lambda run: advice_result(api, run, stream, pairs, mode, model, cache),
    )


# -- degenerate ------------------------------------------------------------
# The oracle's search path: most op time is `exact_color` (the chi decision
# plus per-bundle coloring).  d=5 pads to 7, so bundles get 14 colors.  d=2
# and d=3 are left out: their 4- and 6-color per-bundle searches have a
# heavy tail (about 1 instance in 800 at d=2, n=150, and 1 in 2000 at d=3,
# n=100, backtracks past 10^5 nodes; gen_d_degenerate(200, 2, 420499453)
# exhausts the default node budget after ~13 minutes), which no timed run
# can hold.  No d=5 instance of this ladder needed 5000 nodes in a probe
# of 14000.  m stays within 215-415.
DEGENERATE = {5: (45, 55, 65, 75, 85)}
DEGENERATE_REPS = 21


def degenerate(api, seed: int, work: str, tiny: bool):
    rng = random.Random(f"degenerate/{seed}")
    ladder = {5: (12, 14)} if tiny else DEGENERATE
    reps = 1 if tiny else DEGENERATE_REPS
    specs = [(d, n, rng.getrandbits(32)) for d, ns in ladder.items() for n in ns for _ in range(reps)]
    t0 = perf_counter()
    streams = [api.generators.gen_d_degenerate(n, d, s) for d, n, s in specs]
    gen_s = perf_counter() - t0
    ops = [
        stream_op(api, f"d-degenerate n={n} d={d} seed={s}", st, d, MODES[i % 2], MODELS[i // 2 % 2])
        for i, ((d, n, s), st) in enumerate(zip(specs, streams))
    ]
    return ops, gen_s


# -- forest ----------------------------------------------------------------
# The graph-layer path: `konig_color` settles chi without whole-graph
# search and the quadratic `degeneracy` dominates.  A narrow size band
# keeps the op-time quantiles from resting on a few of the largest trees;
# n <= 550 keeps m well below the sizes where the per-bundle search
# overflows the stack.
FOREST = (450, 500, 550)
FOREST_REPS = 34


def forest(api, seed: int, work: str, tiny: bool):
    rng = random.Random(f"forest/{seed}")
    sizes = (30,) if tiny else FOREST
    reps = 2 if tiny else FOREST_REPS
    specs = [(n, rng.getrandbits(32)) for n in sizes for _ in range(reps)]
    t0 = perf_counter()
    streams = [api.generators.gen_forest(n, s) for n, s in specs]
    gen_s = perf_counter() - t0
    ops = [
        stream_op(api, f"forest n={n} seed={s}", st, None, MODES[i % 2], MODELS[i // 2 % 2])
        for i, ((n, s), st) in enumerate(zip(specs, streams))
    ]
    return ops, gen_s


# -- bipartite-dense -------------------------------------------------------
# Dense bipartite graphs through the CLI.  Their degeneracy is high enough
# that max degree < 2d, so every record is literal: no bundles and no
# `exact_color` call.  Op time is the codec, the consumer, `konig_color`
# and CLI parsing; each instance runs under all four mode/model pairs.
BIPARTITE = (50, 52, 54, 56, 58)
BIPARTITE_P = 0.5
BIPARTITE_REPS = 5


def cli_run(api, path: str, mode: str, model: str, colors_path: str):
    out, err = io.StringIO(), io.StringIO()
    argv = ["run", path, "--alg", "advice", "--mode", mode, "--model", model, "--coloring-out", colors_path]
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_result(api, outcome, stream, pairs, mode, model, colors_path, cache) -> Result:
    code, stdout, stderr = outcome
    require(code == 0, f"cli exited {code}: {stderr.strip()}")
    summary = json.loads(stdout)
    with open(colors_path, encoding="utf-8") as fh:
        colors_text = fh.read()
    colors = {}
    for line in colors_text.splitlines():
        u, v, c = map(int, line.split())
        colors[checks.norm(u, v)] = c
    used = checks.check_proper(pairs, colors)

    # The oracle's records are not visible through the CLI: rebuild them
    # once per (instance, mode), untimed, and gate that run in full.
    key = ("oracle", mode)
    if key not in cache:
        cache[key] = api.oracle.build_advice(stream, mode=mode)
    oracle = cache[key]
    online_s, replay, alg = replay_online(api, oracle, mode, model)
    replay.chromatic_index = oracle.chromatic_index
    replay.optimal = replay.colors_used == oracle.chromatic_index
    run = api.runtime.AdviceRun(replay, oracle, alg, None)
    checks.check_advice_run(run, pairs, mode, model)

    require(colors == dict(replay.coloring.assignment), "cli coloring differs from the oracle's plan")
    require(summary["colors_used"] == used == summary["chromatic_index"], "cli coloring not optimal")
    require(summary["optimal"] is True, "cli reported a non-optimal run")
    require(summary["advice_bits_read"] == replay.advice_bits_read, "cli read a different number of bits")
    require(summary["per_edge_bits"] == checks.bits_per_edge(oracle.d, mode), "cli record length")
    greedy_s = timed_greedy(api, stream, pairs, cache)
    if "engine" not in cache:
        cache["engine"] = chi_engine(api, stream)
    info = {"n": summary["n"], "m": len(pairs), **oracle_info(oracle, cache["engine"])}
    return Result(len(pairs), checks.digest(stdout, colors_text), online_s / len(pairs), greedy_s, info)


def bipartite_dense(api, seed: int, work: str, tiny: bool):
    rng = random.Random(f"bipartite-dense/{seed}")
    sizes = (12,) if tiny else BIPARTITE
    reps = 1 if tiny else BIPARTITE_REPS
    specs = [(a, rng.getrandbits(32)) for a in sizes for _ in range(reps)]
    gen_s = 0.0
    ops = []
    for k, (a, s) in enumerate(specs):
        t0 = perf_counter()
        stream = api.generators.gen_bipartite(a, a, BIPARTITE_P, s)
        gen_s += perf_counter() - t0
        path = os.path.join(work, f"bipartite-{k}.stream")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(api.graphs.serialize_stream(stream))
        pairs = pairs_of(stream)
        cache: dict = {}
        for j, (mode, model) in enumerate((m, mo) for m in MODES for mo in MODELS):
            colors_path = os.path.join(work, f"bipartite-{k}-{j}.colors")
            ops.append(
                Op(
                    label=f"bipartite {a}x{a} p={BIPARTITE_P} seed={s} {mode}/{model}",
                    inputs=(a, BIPARTITE_P, s, mode, model, pairs),
                    call=lambda p=path, mo=mode, md=model, cp=colors_path: cli_run(api, p, mo, md, cp),
                    check=lambda out, st=stream, pr=pairs, mo=mode, md=model, cp=colors_path, c=cache: cli_result(
                        api, out, st, pr, mo, md, cp, c
                    ),
                )
            )
    return ops, gen_s


# -- adversary -------------------------------------------------------------
# The adversaries layer and two unusual uses of shared layers: `runtime`
# runs ~10^5 tiny no-advice steps per elimination game, and `exact_color`
# must prove infeasibility under `fixed`/`forbidden` in the rigidity check.
# rigidity_check(5) exhausts the default node budget, so n stays <= 4.
ELIMINATION_FAMILIES = (2, 3, 4, 2, 3, 4, 2, 3, 4)
ELIMINATION_DELTA = 3
PERMUTATION_DELTAS = range(3, 9)
PERMUTATION_VARIANTS = 11
RIGIDITY = (2, 3, 4, 2, 3, 4, 2, 3, 4)


def elimination_result(api, t, bits, cache) -> Result:
    delta = ELIMINATION_DELTA
    pairs = pairs_of(t.stream)
    require(t.all_dead, "elimination left a member alive")
    require(checks.is_forest(pairs), "elimination graph is not a forest")
    require(checks.max_degree(pairs) <= delta, "elimination graph exceeds max degree delta")
    require(all(2 * delta - 1 <= c <= 2 * delta for c in t.colors_used), f"member palettes {t.colors_used}")
    fresh = api.adversaries.GreedyVariant(bits[0])
    t0 = perf_counter()
    replay = api.runtime.simulate(t.stream, fresh)
    online_s = perf_counter() - t0
    require(replay.colors_used == t.colors_used[0], "fresh member replay used a different palette")
    greedy_s = timed_greedy(api, t.stream, pairs, cache)
    info = {"game": "elimination", "delta": delta, "family": list(bits), "m": len(pairs), "rounds": len(t.rounds)}
    dig = checks.digest(t.colors_used, [r.selected for r in t.rounds], pairs)
    return Result(len(pairs), dig, online_s / len(pairs), greedy_s, info)


def permutation_result(api, outcome, delta, player, make, mode, cache) -> Result:
    result, run = outcome
    require(sorted(result.pi) == list(range(delta)), f"pi {result.pi} is not a permutation")
    stream = api.adversaries.build_permutation_instance(delta, result.pi).stream
    pairs = pairs_of(stream)
    require(len(pairs) == delta**3 + delta, "permutation instance has the wrong size")
    info = {"game": "permutation", "delta": delta, "player": player, "m": len(pairs)}
    cache = cache.setdefault(result.pi, {})
    if player == "oracle":
        require(not result.forced and result.report.optimal, "oracle-paired run was forced")
        res = advice_result(api, run, stream, pairs, mode, "request", cache, extra=(result.pi,))
        res.info.update(info)
        return res
    require(result.forced and result.report.colors_used >= delta + 1, f"{player} was not forced")
    checks.check_proper(pairs, result.report.coloring.assignment)
    t0 = perf_counter()
    replay = api.runtime.simulate(stream, make())
    online_s = perf_counter() - t0
    require(replay.coloring.assignment == result.report.coloring.assignment, "replay colored differently")
    greedy_s = timed_greedy(api, stream, pairs, cache)
    dig = checks.digest(result.pi, checks.coloring_key(pairs, result.report.coloring.assignment))
    return Result(len(pairs), dig, online_s / len(pairs), greedy_s, info)


def permutation_op(api, delta: int, player: str, arg: str, cache: dict) -> Op:
    if player == "variant":
        make = lambda: api.adversaries.GreedyVariant(arg, cycle=False)  # noqa: E731
    else:
        make = lambda: api.runtime.Greedy()  # noqa: E731

    def call():
        if player != "oracle":
            return api.adversaries.permutation_game(delta, make), None
        runs = []

        def final_run(s):
            runs.append(api.runtime.run_advice(s, mode=arg))
            return runs[-1].report

        return api.adversaries.permutation_game(delta, make, final_run=final_run), runs[-1]

    return Op(
        label=f"permutation delta={delta} {player} {arg}".rstrip(),
        inputs=("permutation", delta, player, arg),
        call=call,
        check=lambda out: permutation_result(api, out, delta, player, make, arg, cache),
    )


def rigidity_result(ok: bool, n: int) -> Result:
    require(ok is True, f"rigidity_check({n}) failed")
    m = n * n + 2 * n + 2
    return Result(m, checks.digest(ok, n), info={"game": "rigidity", "n": n, "m": m})


def adversary(api, seed: int, work: str, tiny: bool):
    rng = random.Random(f"adversary/{seed}")

    def bits(max_len: int) -> str:
        k = rng.randint(1, max_len)
        return format(rng.getrandbits(k), f"0{k}b")

    families = (2,) if tiny else ELIMINATION_FAMILIES
    deltas = (3, 4) if tiny else PERMUTATION_DELTAS
    variants = 1 if tiny else PERMUTATION_VARIANTS
    rigidity = (2,) if tiny else RIGIDITY
    _, beta = api.adversaries.pigeonhole_thresholds(ELIMINATION_DELTA)
    ops = []
    for size in families:
        family = tuple(bits(6) for _ in range(size))
        rounds = api.adversaries.rounds_to_extinction(size, beta)
        cache: dict = {}
        ops.append(
            Op(
                label=f"elimination delta={ELIMINATION_DELTA} family={size} rounds={rounds}",
                inputs=("elimination", ELIMINATION_DELTA, family, rounds),
                call=lambda f=family, r=rounds: api.adversaries.elimination_game(
                    ELIMINATION_DELTA, [api.adversaries.GreedyVariant(b) for b in f], r
                ),
                check=lambda t, f=family, c=cache: elimination_result(api, t, f, c),
            )
        )
    perm_cache: dict = {}
    for delta in deltas:
        players = [("greedy", "")] + [("variant", bits(2 * delta)) for _ in range(variants)]
        players += [("oracle", mode) for mode in MODES]
        ops += [permutation_op(api, delta, player, arg, perm_cache) for player, arg in players]
    for n in rigidity:
        ops.append(
            Op(
                label=f"rigidity n={n}",
                inputs=("rigidity", n),
                call=lambda n=n: api.adversaries.rigidity_check(n),
                check=lambda ok, n=n: rigidity_result(ok, n),
            )
        )
    return ops, 0.0


WORKLOADS: dict[str, Callable] = {
    "degenerate": degenerate,
    "forest": forest,
    "bipartite-dense": bipartite_dense,
    "adversary": adversary,
}
