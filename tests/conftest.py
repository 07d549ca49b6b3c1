"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import strategies as st

import ecadvice.coloring
from ecadvice import Edge, EdgeStream, Graph, edge_pair, is_proper, stream_from_pairs, vizing_plus_one


def stream(pairs) -> EdgeStream:
    return stream_from_pairs(pairs)


def graph(pairs) -> Graph:
    return Graph.from_stream(stream_from_pairs(pairs))


class CheckedLedger(ecadvice.coloring._Ledger):
    """The recoloring ledger with properness re-checked on the colored
    edges after every fan rotation; the peel's re-add rotates each edge
    that finds no color free at both of its ends."""

    def __init__(self, *args):
        super().__init__(*args)
        self.graph = Graph([Edge(u, v, i) for i, (u, v) in enumerate(self.ends)])

    def rotate(self, *args) -> None:
        super().rotate(*args)
        colored = {edge_pair(*self.ends[j]): c for j, c in enumerate(self.color) if c}
        if not is_proper(self.graph, colored):
            raise AssertionError("fan step broke properness")


def checked_vizing(g: Graph):
    """vizing_plus_one(g), with every fan step checked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ecadvice.coloring, "_Ledger", CheckedLedger)
        return vizing_plus_one(g)


def about(problems: list[str], *properties: str) -> list[str]:
    """The verify_run messages that name one of `properties`."""
    return [p for p in problems if p.split(":", 1)[0] in properties]


def bit_strings(max_bits: int) -> list[str]:
    """Every 0/1 string shorter than max_bits, shortest first."""
    return ["".join(bits) for n in range(max_bits) for bits in product("01", repeat=n)]


def path_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(m)]


def cycle_pairs(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def star_pairs(leaves: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, leaves + 1)]


def complete_pairs(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def biclique_pairs(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def petersen_pairs() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return outer + inner + spokes


@pytest.fixture
def petersen() -> Graph:
    return graph(petersen_pairs())


@st.composite
def random_pair_lists(draw, max_vertices: int = 12, max_edges: int = 20):
    """Simple-graph edge lists in arrival order, possibly empty."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), max_size=max_edges, unique=True)
    )
    return chosen


@st.composite
def degenerate_streams(draw, max_n: int = 24, max_d: int = 3):
    """Streams produced by the seeded d-degenerate generator."""
    from ecadvice import gen_d_degenerate

    n = draw(st.integers(min_value=2, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return gen_d_degenerate(n, d, seed), d


def gnp_pairs(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]


def brute_force_colorable(g: Graph, k: int) -> bool:
    """Independent oracle: exhaustive recursion over edges in arrival order.

    No ordering heuristics, no symmetry breaking, no budget; every proper
    prefix of every assignment in {1..k}^m is visited.  Only sensible for
    tiny graphs.
    """
    edges = g.edges
    used: dict[int, set[int]] = {v: set() for v in g.vertices}

    def extend(i: int) -> bool:
        if i == len(edges):
            return True
        e = edges[i]
        for c in range(1, k + 1):
            if c in used[e.u] or c in used[e.v]:
                continue
            used[e.u].add(c)
            used[e.v].add(c)
            if extend(i + 1):
                return True
            used[e.u].remove(c)
            used[e.v].remove(c)
        return False

    if g.m == 0:
        return True
    return extend(0)


def brute_force_chromatic_index(g: Graph) -> int:
    """Smallest k with a proper k-edge-coloring, found by scanning k upward."""
    k = 0
    while True:
        if brute_force_colorable(g, k):
            return k
        k += 1
