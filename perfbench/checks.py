"""Output gate: checks every op's result against the paper's guarantees.

The checks are written against plain data (pairs, bit strings, ints) with
the benchmark's own code, not the library's helpers, so a bug in a library
checker cannot hide a bug in the pipeline it checks.  A violation raises
CheckFailed, which the harness counts as a failed op.
"""
from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence


class CheckFailed(Exception):
    """An op returned, but its output broke a guarantee."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def bits_per_edge(d: int, mode: str) -> int:
    """1 + ceil(log2 2d) + ceil(log2(d+1)), plus the front bit when robust."""
    return 1 + ceil_log2(2 * d) + ceil_log2(d + 1) + (mode == "robust")


def header_bits(d: int) -> int:
    return 2 * ceil_log2(d) + 1


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def max_degree(pairs: Iterable[tuple[int, int]]) -> int:
    deg: dict[int, int] = {}
    for u, v in pairs:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return max(deg.values(), default=0)


def check_proper(pairs: Sequence[tuple[int, int]], colors: Mapping[tuple[int, int], int]) -> int:
    """Every pair colored once with a positive int, no clash at a vertex.

    Returns the number of distinct colors."""
    require(len(colors) == len(pairs), f"{len(colors)} colors for {len(pairs)} edges")
    seen: dict[int, set[int]] = {}
    for u, v in pairs:
        c = colors.get(norm(u, v))
        require(isinstance(c, int) and c >= 1, f"edge {(u, v)} has color {c!r}")
        at_u = seen.setdefault(u, set())
        at_v = seen.setdefault(v, set())
        require(c not in at_u and c not in at_v, f"edge {(u, v)} repeats color {c}")
        at_u.add(c)
        at_v.add(c)
    return len(set(colors.values()))


def is_forest(pairs: Iterable[tuple[int, int]]) -> bool:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def decode_record(bits: str, d: int, mode: str) -> tuple[int, int, int, int]:
    """(mode flag, front flag, color, rank) of one record, by the README layout."""
    require(len(bits) == bits_per_edge(d, mode), f"record {bits!r} has the wrong length")
    require(set(bits) <= {"0", "1"}, f"record {bits!r} is not a bit string")
    pos = 2 if mode == "robust" else 1
    front = int(bits[1]) if mode == "robust" else 0
    cw, rw = ceil_log2(2 * d), ceil_log2(d + 1)
    color = int(bits[pos : pos + cw] or "0", 2) + 1
    rank = int(bits[pos + cw : pos + cw + rw] or "0", 2)
    return int(bits[0]), front, color, rank


def check_advice_run(run, pairs: Sequence[tuple[int, int]], mode: str, model: str) -> None:
    """The full guarantee set on one `run_advice` result.

    `pairs` is the input stream in arrival order."""
    oracle, report = run.oracle, run.report
    out = [(e.u, e.v) for e in oracle.stream.edges]
    require([norm(*p) for p in out] == [norm(*p) for p in pairs], "oracle stream changed the edges")
    m = len(pairs)
    delta = max_degree(pairs)
    used = check_proper(out, report.coloring.assignment)
    require(used == report.colors_used, "reported color count differs from the coloring")
    chi = oracle.chromatic_index
    require(delta <= chi <= delta + 1, f"chromatic index {chi} outside [{delta}, {delta + 1}]")
    require(used == chi and report.optimal is True, f"used {used} colors, chromatic index {chi}")

    d = oracle.d
    bpe = bits_per_edge(d, mode)
    expect = m * bpe + (header_bits(d) if model == "tape" else 0)
    require(report.advice_bits_read == expect, f"read {report.advice_bits_read} bits, expected {expect}")
    require(report.per_edge_bits == bpe, f"record length {report.per_edge_bits} != {bpe}")
    if delta >= 2 * d:
        require(chi == delta, "degenerate graph with max degree >= 2d is not class 1")

    # Records must encode the oracle's plan, field by field.
    for e, adv, rec in zip(oracle.stream.edges, oracle.per_edge, oracle.records):
        flag, front, color, rank = decode_record(rec.bits, d, mode)
        require(flag == adv.mode and color == adv.color, f"record {e.arrival} disagrees with the plan")
        if flag == 1:
            require(adv.rank is not None and rank == adv.rank <= d, f"rank {rank} at edge {e.arrival}")
            if mode == "robust":
                require(front == (0 if adv.front == min(e.u, e.v) else 1), f"front bit at edge {e.arrival}")
    for j, members in oracle.partition.items():
        require(max_degree((e.u, e.v) for e in members) <= 2 * d, f"bundle {j} exceeds degree {2 * d}")
    check_decoder(run.algorithm, oracle)


def check_decoder(alg, oracle) -> None:
    """The consumer's subset indices equal the oracle's, edge by edge."""
    decoded = {s.arrival: s.subset for s in alg.decoded if s.mode == 1}
    planned = {i: adv.subset for i, adv in enumerate(oracle.per_edge) if adv.mode == 1}
    require(decoded == planned, "decoder subsets diverge from the oracle's")


def check_greedy(report, pairs: Sequence[tuple[int, int]]) -> None:
    used = check_proper(pairs, report.coloring.assignment)
    require(used <= max(2 * max_degree(pairs) - 1, 0), f"greedy used {used} colors")


def digest(*parts: object) -> str:
    """Stable hash of an op's outputs, for cross-pass and traced/untraced checks."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def coloring_key(pairs: Sequence[tuple[int, int]], colors: Mapping[tuple[int, int], int]) -> list[int]:
    return [colors[norm(u, v)] for u, v in pairs]
