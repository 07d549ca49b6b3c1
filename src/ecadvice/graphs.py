"""Edge streams, graphs, degeneracy orderings, and coloring checks.

Vertices are opaque integer labels; they exist only once an edge reveals
them.  An edge stream fixes the arrival order, which is the only notion of
time the online algorithms ever see.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DuplicateEdge, NotBipartite, ParseError, PreconditionViolated, SelfLoop

Pair = tuple[int, int]


def edge_pair(u: int, v: int) -> Pair:
    """Unordered endpoint pair, normalized to (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Edge:
    """One revealed edge.  `u` is the endpoint listed first in the stream."""

    u: int
    v: int
    arrival: int

    @property
    def pair(self) -> Pair:
        return edge_pair(self.u, self.v)

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


@dataclass(frozen=True)
class EdgeStream:
    """Edges in arrival order.

    `orientation` is "strict" when every edge lists its front endpoint
    first (produced by the oracle rewrite), otherwise "robust".
    """

    edges: tuple[Edge, ...]
    orientation: str = field(default="robust", compare=False)

    def __post_init__(self) -> None:
        for i, e in enumerate(self.edges):
            if e.arrival != i:
                raise PreconditionViolated(f"arrival index {e.arrival} at position {i}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> set[int]:
        seen: set[int] = set()
        for e in self.edges:
            seen.add(e.u)
            seen.add(e.v)
        return seen

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)


def stream_from_pairs(pairs: Iterable[tuple[int, int]], orientation: str = "robust") -> EdgeStream:
    """Build a stream from ordered (u, v) pairs, assigning arrival indices."""
    edges = []
    seen: set[Pair] = set()
    for i, (u, v) in enumerate(pairs):
        if u == v:
            raise SelfLoop(f"edge {i} joins {u} to itself")
        key = edge_pair(u, v)
        if key in seen:
            raise DuplicateEdge(f"edge {i} repeats pair {key}")
        seen.add(key)
        edges.append(Edge(u, v, i))
    return EdgeStream(tuple(edges), orientation)


def parse_stream(text: str) -> EdgeStream:
    """Parse the line-oriented "u v" format; '#' starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {len(tokens)}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer label") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative label")
        pairs.append((u, v))
    try:
        return stream_from_pairs(pairs)
    except (SelfLoop, DuplicateEdge) as exc:
        raise type(exc)(str(exc)) from None


def serialize_stream(stream: EdgeStream, comments: Sequence[str] = ()) -> str:
    """Inverse of parse_stream (up to comments and orientation metadata)."""
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{e.u} {e.v}" for e in stream.edges)
    return "\n".join(lines) + "\n"


class Graph:
    """Static view of a stream: adjacency, degrees, vertex set."""

    def __init__(self, edges: Sequence[Edge]):
        self.edges: tuple[Edge, ...] = tuple(edges)
        adjacency: dict[int, list[Edge]] = {}
        for e in self.edges:
            adjacency.setdefault(e.u, []).append(e)
            adjacency.setdefault(e.v, []).append(e)
        self.adjacency = adjacency
        self.vertices: tuple[int, ...] = tuple(sorted(adjacency))
        self.degree = {v: len(adjacency[v]) for v in self.vertices}
        self.max_degree = max(self.degree.values(), default=0)

    @classmethod
    def from_stream(cls, stream: EdgeStream) -> "Graph":
        return cls(stream.edges)

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        """Normalized endpoint pairs, built on first use."""
        return frozenset(e.pair for e in self.edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[int]:
        return [e.other(v) for e in self.adjacency[v]]


@dataclass(frozen=True)
class DegeneracyOrder:
    """Vertex order where every vertex has at most d earlier neighbors."""

    order: tuple[int, ...]
    rank: Mapping[int, int]
    d: int


def degeneracy(g: Graph) -> tuple[int, DegeneracyOrder]:
    """Min-degree peeling; ties broken by smallest label.

    The returned order is the reverse peeling sequence, so each vertex sees
    at most d neighbors before itself.  d is the largest residual minimum
    degree observed while peeling.  A heap on (residual, label) finds each
    minimum, so the peel costs O(m log n).

    >>> g = Graph.from_stream(stream_from_pairs([(2, 0), (2, 1), (3, 4)]))
    >>> d, order = degeneracy(g)
    >>> d, order.order  # 0, 1, 3 and 4 tie at residual 1: 0 is peeled first
    (1, (4, 3, 2, 1, 0))
    """
    if g.n == 0:
        raise PreconditionViolated("degeneracy of an empty graph is undefined")
    residual = dict(g.degree)
    heap = [(r, v) for v, r in residual.items()]
    heapq.heapify(heap)
    alive = set(g.vertices)
    peeled: list[int] = []
    d = 0
    while heap:
        r, v = heapq.heappop(heap)
        # residuals only fall, so v's newest entry pops before its older
        # ones: the first pop of v carries its current residual and any
        # later pop finds v already peeled
        if v not in alive:
            continue
        d = max(d, r)
        peeled.append(v)
        alive.remove(v)
        for w in g.neighbors(v):
            if w in alive:
                residual[w] -= 1
                heapq.heappush(heap, (residual[w], w))
    order = tuple(reversed(peeled))
    rank = {v: i for i, v in enumerate(order)}
    return d, DegeneracyOrder(order, rank, d)


@dataclass(frozen=True)
class EdgeClassification:
    """front[pair] is the endpoint whose rank is lower; back the other."""

    front: Mapping[Pair, int]
    back: Mapping[Pair, int]
    front_degree: Mapping[int, int]
    back_degree: Mapping[int, int]


def classify(g: Graph, order: DegeneracyOrder) -> EdgeClassification:
    """Split each edge into its front (earlier) and back (later) endpoint."""
    for v in g.vertices:
        if v not in order.rank:
            raise PreconditionViolated(f"vertex {v} missing from order")
    front: dict[Pair, int] = {}
    back: dict[Pair, int] = {}
    front_degree = {v: 0 for v in g.vertices}
    back_degree = {v: 0 for v in g.vertices}
    for e in g.edges:
        lo, hi = (e.u, e.v) if order.rank[e.u] < order.rank[e.v] else (e.v, e.u)
        front[e.pair] = lo
        back[e.pair] = hi
        front_degree[lo] += 1
        back_degree[hi] += 1
    return EdgeClassification(front, back, front_degree, back_degree)


def bipartition(g: Graph) -> tuple[set[int], set[int]]:
    """Two-color the vertices by BFS; raises NotBipartite on an odd cycle."""
    side: dict[int, int] = {}
    for start in g.vertices:
        if start in side:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    raise NotBipartite(f"odd cycle through {v} and {w}")
    left = {v for v, s in side.items() if s == 0}
    return left, set(side) - left


def is_bipartite(g: Graph) -> bool:
    try:
        bipartition(g)
    except NotBipartite:
        return False
    return True


def _assignment(coloring) -> Mapping[Pair, int]:
    return getattr(coloring, "assignment", coloring)


def is_proper(g: Graph, coloring) -> bool:
    """True when no two colored edges of equal color share an endpoint.

    Accepts partial colorings: uncolored edges are ignored.
    """
    colors = _assignment(coloring)
    seen: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edges:
        c = colors.get(e.pair)
        if c is None:
            continue
        if c in seen[e.u] or c in seen[e.v]:
            return False
        seen[e.u].add(c)
        seen[e.v].add(c)
    return True


def colors_used(coloring) -> int:
    return len(set(_assignment(coloring).values()))


def is_forest(g: Graph) -> bool:
    """Acyclicity via union-find over the edge list."""
    parent = {v: v for v in g.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
