"""Command-line harness: generate streams, run algorithms, play the games.

Reports are single JSON objects (or JSON lines for game transcripts) on
stdout with sorted keys, so identical invocations produce byte-identical
output; human-oriented notes go to stderr.  Exit codes: 0 success, 1 a
checked property failed, 2 usage or input errors, 3 search budget blown.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import Counter
from itertools import chain
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .adversaries import (
    MAX_STAR_STEPS,
    build_permutation_instance,
    check_elimination_size,
    elimination_game,
    permutation_game,
    pigeonhole_thresholds,
    rigidity_check,
    rounds_to_extinction,
    variant_family,
)
from .coloring import node_budget
from .errors import (
    AdviceExhausted,
    ImproperColoring,
    MalformedAdvice,
    MalformedTape,
    NotBipartite,
    ParseError,
    PreconditionViolated,
    RecoloringAttempt,
    ResourceLimit,
)
from .generators import (
    build_coupled_pair,
    gen_bipartite,
    gen_d_degenerate,
    gen_forest,
    gen_star,
)
from .graphs import Graph, degeneracy, is_forest, parse_stream, serialize_stream
from .runtime import Greedy, GreedyVariant, run_advice, run_greedy, verify_run

_USAGE_ERRORS = (ParseError, PreconditionViolated, NotBipartite, OSError, ValueError)
_PROPERTY_ERRORS = (
    ImproperColoring,
    RecoloringAttempt,
    MalformedAdvice,
    MalformedTape,
    AdviceExhausted,
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _read_stream(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_stream(text), _sha256(text)


def cmd_gen(args: argparse.Namespace) -> int:
    comments: list[str] = []
    if args.kind == "d-degenerate":
        stream = gen_d_degenerate(args.n, args.d, args.seed)
    elif args.kind == "forest":
        stream = gen_forest(args.n, args.seed)
    elif args.kind == "bipartite":
        stream = gen_bipartite(args.a, args.b, args.p, args.seed)
    elif args.kind == "star":
        stream = gen_star(args.delta)
    elif args.kind == "coupled-pair":
        stream, e_l, e_r = build_coupled_pair(args.n)
        comments = [f"pendant left: {e_l.u} {e_l.v}", f"pendant right: {e_r.u} {e_r.v}"]
    elif args.kind == "permutation":
        pi = tuple(int(x) for x in args.pi.split(",")) if args.pi else None
        instance = build_permutation_instance(args.delta, pi)
        stream = instance.stream
        comments = [f"pi: {','.join(map(str, instance.pi))}"]
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionViolated(f"unknown kind {args.kind}")
    text = serialize_stream(stream, comments)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    g = Graph.from_stream(stream)
    _note(f"n={g.n} m={g.m} delta={g.max_degree} degeneracy={degeneracy(g)[0]}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    node_budget(args.budget)  # a negative budget is refused for every algorithm
    stream, digest = _read_stream(args.stream)
    config = {
        "command": "run",
        "algorithm": args.alg,
        "model": args.model if args.alg == "advice" else None,
        "mode": args.mode if args.alg == "advice" else None,
        "d": args.d,
        "budget": args.budget,
        "stream": args.stream,
        "stream_sha256": digest,
    }
    if args.alg == "greedy":
        report = run_greedy(stream)
        ok = True
    else:
        run = run_advice(stream, args.d, mode=args.mode, model=args.model, budget=args.budget)
        report = run.report
        ok = bool(report.optimal)
    if args.coloring_out:  # written first: a path that fails leaves stdout empty
        # the run colors the edges in arrival order (see runtime.Referee)
        colors = report.coloring.assignment.values()
        lines = [f"{e.u} {e.v} {c}" for e, c in zip(stream.edges, colors, strict=True)]
        with open(args.coloring_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    edges = stream.edges
    degree = Counter(chain(map(attrgetter("u"), edges), map(attrgetter("v"), edges)))
    _emit({
        "config": config,
        "colors_used": report.colors_used,
        "chromatic_index": report.chromatic_index,
        "optimal": report.optimal,
        "advice_bits_read": report.advice_bits_read,
        "m": report.m,
        "n": len(degree),
        "delta": max(degree.values(), default=0),
        "d": report.d,
        "mode": report.mode,
        "per_edge_bits": report.per_edge_bits,
    })
    _note(f"colors={report.colors_used} advice_bits={report.advice_bits_read}")
    return 0 if ok else 1


def _parse_family(spec: str) -> tuple[int, Callable[[], list]]:
    """(member count, a builder of the members) for a --family spec."""
    if spec == "greedy":
        return 1, lambda: [Greedy()]
    if spec.startswith("variants:"):
        bits = int(spec.split(":", 1)[1])
        if bits < 0:
            raise PreconditionViolated(f"bit length {bits} is negative")
        if bits >= MAX_STAR_STEPS.bit_length():  # each member takes a step at least
            raise PreconditionViolated(f"2**{bits} members take over {MAX_STAR_STEPS} steps")
        return 2**bits, lambda: variant_family(bits)
    raise PreconditionViolated(f"unknown family {spec!r}")


def cmd_adversary(args: argparse.Namespace) -> int:
    if args.game == "elimination":
        size, build = _parse_family(args.family)
        alpha, beta = pigeonhole_thresholds(args.delta)
        if args.rounds is not None:
            rounds = args.rounds
        else:
            rounds = rounds_to_extinction(size, beta)
        check_elimination_size(args.delta, size, rounds)  # before any member is built
        family = build()
        transcript = elimination_game(args.delta, family, rounds)
        for r in transcript.rounds:
            _emit(
                {
                    "round": r.row,
                    "alive_before": r.alive_before,
                    "alive_after": r.alive_after,
                    "selected_stars": list(r.selected),
                    "new_vertex": r.new_vertex,
                }
            )
        g = Graph.from_stream(transcript.stream)
        forest = is_forest(g)
        summary = {
            "game": "elimination",
            "delta": args.delta,
            "alpha": alpha,
            "beta": beta,
            "family_size": len(family),
            "rounds_played": len(transcript.rounds),
            "m": g.m,
            "forest": forest,
            "max_degree": g.max_degree,
            "colors_used": transcript.colors_used,
            "all_dead": transcript.all_dead,
        }
        _emit(summary)
        ok = transcript.all_dead and forest and g.max_degree <= args.delta
        return 0 if ok else 1

    # permutation game
    if args.alg == "greedy":
        make = Greedy
    elif args.alg.startswith("variant:"):
        bits = args.alg.split(":", 1)[1]
        make = lambda: GreedyVariant(bits, cycle=False)  # noqa: E731
    else:
        raise PreconditionViolated(f"unknown algorithm {args.alg!r}")
    final_run = None
    if args.oracle:
        final_run = lambda s: run_advice(s, mode=args.mode).report  # noqa: E731
    result = permutation_game(args.delta, make, final_run=final_run)
    _emit(
        {
            "game": "permutation",
            "delta": args.delta,
            "pi": list(result.pi),
            "colors_used": result.report.colors_used,
            "forced": result.forced,
            "oracle_paired": bool(args.oracle),
        }
    )
    if args.oracle:
        return 0 if (not result.forced and result.report.optimal) else 1
    return 0 if result.forced else 1


def cmd_check(args: argparse.Namespace) -> int:
    if args.what == "rigidity":
        passed = rigidity_check(args.n, budget=args.budget)
        _emit({"check": "rigidity", "n": args.n, "passed": passed})
        return 0 if passed else 1

    # invariants: verify_run over a batch of generated instances
    if args.count < 1:
        raise PreconditionViolated(f"instance count {args.count} is below 1")
    failures: list[str] = []
    seeds = range(args.seed, args.seed + args.count)
    for seed in seeds:
        if args.kind == "d-degenerate":
            stream, d = gen_d_degenerate(args.n, args.d, seed), args.d
        else:  # forest; argparse restricts the choices
            stream, d = gen_forest(args.n, seed), None
        run = run_advice(stream, d, mode=args.mode, model=args.model, budget=args.budget)
        problems = verify_run(run, budget=args.budget)
        failures.extend(f"seed={seed}: {problem}" for problem in problems)
    _emit(
        {
            "check": "invariants",
            "kind": args.kind,
            "count": len(seeds),
            "failures": failures,
            "passed": not failures,
        }
    )
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, so no
    caller may change it."""
    parser = argparse.ArgumentParser(prog="ecadvice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a stream file")
    gen.add_argument("kind", choices=[
        "d-degenerate", "forest", "bipartite", "star", "coupled-pair", "permutation",
    ])
    gen.add_argument("--n", type=int, default=20)
    gen.add_argument("--d", type=int, default=2)
    gen.add_argument("--a", type=int, default=5)
    gen.add_argument("--b", type=int, default=5)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--delta", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--pi", type=str, default=None, help="comma-separated permutation")
    gen.add_argument("-o", "--out", type=str, default=None)

    run = sub.add_parser("run", help="run an online algorithm on a stream")
    run.add_argument("stream")
    run.add_argument("--alg", choices=["advice", "greedy"], default="advice")
    run.add_argument("--model", choices=["request", "tape"], default="request")
    run.add_argument("--mode", choices=["robust", "strict"], default="robust")
    run.add_argument("--d", type=int, default=None)
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--coloring-out", type=str, default=None)

    adv = sub.add_parser("adversary", help="play a lower-bound game")
    adv.add_argument("game", choices=["elimination", "permutation"])
    adv.add_argument("--delta", type=int, required=True)
    adv.add_argument("--family", type=str, default="greedy")
    adv.add_argument("--rounds", type=int, default=None)
    adv.add_argument("--alg", type=str, default="greedy")
    adv.add_argument("--mode", choices=["robust", "strict"], default="robust")
    adv.add_argument("--oracle", action="store_true",
                     help="recompute records for the completed instance")

    chk = sub.add_parser("check", help="verify structural properties")
    chk.add_argument("what", choices=["rigidity", "invariants"])
    chk.add_argument("--n", type=int, default=2)
    chk.add_argument("--kind", choices=["d-degenerate", "forest"], default="d-degenerate")
    chk.add_argument("--d", type=int, default=2)
    chk.add_argument("--count", type=int, default=10)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--mode", choices=["robust", "strict"], default="robust")
    chk.add_argument("--model", choices=["request", "tape"], default="request")
    chk.add_argument("--budget", type=int, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so a cmd_*
    # rebound in this module takes effect
    command = {
        "gen": cmd_gen, "run": cmd_run, "adversary": cmd_adversary, "check": cmd_check,
    }[args.command]
    try:
        return command(args)
    except ResourceLimit as exc:
        _note(f"resource limit: {exc}")
        return 3
    except _PROPERTY_ERRORS as exc:
        _note(f"property violation: {type(exc).__name__}: {exc}")
        return 1
    except _USAGE_ERRORS as exc:
        _note(f"error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
