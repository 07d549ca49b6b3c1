"""Seeded instance generators and the coupler gadgets.

All generators are deterministic functions of their arguments; fixtures
should store the generated streams, not the seeds, if long-term stability
across Python versions matters.
"""
from __future__ import annotations

import random

from .errors import PreconditionViolated
from .graphs import Edge, EdgeStream, stream_from_pairs


def _shuffled_stream(pairs: list[tuple[int, int]], rng: random.Random) -> EdgeStream:
    rng.shuffle(pairs)
    return stream_from_pairs(pairs)


def gen_d_degenerate(n: int, d: int, seed: int) -> EdgeStream:
    """Random graph of degeneracy at most d on labels 0..n-1.

    Vertex i is wired to min(i, d) distinct predecessors chosen uniformly,
    then the arrival order is shuffled.
    """
    if n < 0 or d < 1:
        raise PreconditionViolated("need n >= 0 and d >= 1")
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    for i in range(1, n):
        for j in sorted(rng.sample(range(i), min(i, d))):
            pairs.append((j, i))
    return _shuffled_stream(pairs, rng)


def gen_forest(n: int, seed: int) -> EdgeStream:
    """Random forest: each vertex joins an earlier one with probability 0.9."""
    if n < 0:
        raise PreconditionViolated(f"forest size {n} is negative")
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    for i in range(1, n):
        if rng.random() < 0.9:
            pairs.append((rng.randrange(i), i))
    if not pairs and n >= 2:
        pairs.append((0, 1))  # a forest of n >= 2 vertices always has an edge
    return _shuffled_stream(pairs, rng)


def gen_bipartite(a: int, b: int, p: float, seed: int) -> EdgeStream:
    """Random bipartite graph on sides 0..a-1 and a..a+b-1, edge prob p."""
    if a < 0 or b < 0 or not 0.0 <= p <= 1.0:
        raise PreconditionViolated("need side sizes >= 0 and 0 <= p <= 1")
    rng = random.Random(seed)
    pairs = [
        (i, a + j)
        for i in range(a)
        for j in range(b)
        if p >= 1.0 or rng.random() < p
    ]
    return _shuffled_stream(pairs, rng)


def gen_star(delta: int) -> EdgeStream:
    """Star with center 0 and leaves 1..delta, revealed leaf by leaf."""
    if delta < 0:
        raise PreconditionViolated(f"star degree {delta} is negative")
    return stream_from_pairs((0, i) for i in range(1, delta + 1))


def coupler_edges(n: int, left_hub: int, right_hub: int, base: int) -> list[tuple[int, int]]:
    """Edges of the coupler gadget with externally supplied hub labels.

    The gadget is a complete bipartite core on sides L = base..base+n-1 and
    R = base+n..base+2n-1, the left hub adjacent to all of L, and the right
    hub adjacent to all of R.  Reveal order: hub-L edges, core rows, hub-R
    edges.  Labels base..base+2n-1 must be fresh.
    """
    if n < 0:
        raise PreconditionViolated(f"coupler size {n} is negative")
    left = [base + i for i in range(n)]
    right = [base + n + j for j in range(n)]
    edges = [(left_hub, x) for x in left]
    edges += [(x, y) for x in left for y in right]
    edges += [(right_hub, y) for y in right]
    return edges


def build_coupled_pair(n: int) -> tuple[EdgeStream, Edge, Edge]:
    """Coupler plus one pendant edge at each hub; returns (stream, e_l, e_r).

    Max degree is n+1 and the graph is bipartite, so it is (n+1)-edge-
    colorable; but every (n+1)-coloring gives e_l and e_r the same color.
    """
    x1 = 0
    left_hub, right_hub = 1, 2 * n + 2
    x2 = 2 * n + 3
    pairs = [(x1, left_hub)]
    pairs += coupler_edges(n, left_hub, right_hub, 2)
    pairs.append((x2, right_hub))
    stream = stream_from_pairs(pairs)
    return stream, stream.edges[0], stream.edges[-1]
