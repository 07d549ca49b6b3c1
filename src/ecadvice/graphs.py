"""Edge streams, graphs, degeneracy orderings, and coloring checks.

Vertices are opaque integer labels; they exist only once an edge reveals
them.  An edge stream fixes the arrival order, which is the only notion of
time the online algorithms ever see.

Inside a Graph an edge is named by its position in `edges`, its edge id:
`ends[i]` holds edge i's endpoints as listed, and `nbrs[v]` maps each
neighbor w of v to the id of edge vw, in edge order.  The engines, the
partition and the oracle key their state on these ids; normalized endpoint
pairs (`Edge.pair`, the keys of a Coloring) are built only at the API
boundary.
"""
from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class EdgeStream:
    """Edges in arrival order."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        for i, e in enumerate(self.edges):
            if e.arrival != i:
                raise PreconditionViolated(f"arrival index {e.arrival} at position {i}")

    @property
    def m(self) -> int:
        return len(self.edges)


def stream_from_pairs(pairs: Iterable[tuple[int, int]]) -> EdgeStream:
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
    return EdgeStream(tuple(edges))


# the line breaks of str.splitlines that are ASCII
_ASCII_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e]")


def parse_stream(text: str) -> EdgeStream:
    """Parse the line-oriented "u v" format; '#' starts a comment.

    Lines break only at ASCII line breaks, and outside comments a line is
    ASCII: a non-ASCII space or digit is a ParseError, not a separator or a
    label.
    """
    pairs = []
    for lineno, raw in enumerate(_ASCII_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0]
        if not line.isascii():
            raise ParseError(f"line {lineno}: a character outside a comment is not ASCII")
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {len(tokens)}")
        u, v = tokens
        # int() alone would also take "1_0" and "+3"
        if not (u.isdigit() and v.isdigit()):
            raise ParseError(f"line {lineno}: a label is not a run of ASCII digits")
        try:
            pairs.append((int(u), int(v)))
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"line {lineno}: label too long") from exc
    try:
        return stream_from_pairs(pairs)
    except (SelfLoop, DuplicateEdge) as exc:
        raise type(exc)(str(exc)) from None


def serialize_stream(stream: EdgeStream, comments: Sequence[str] = ()) -> str:
    """Inverse of parse_stream (up to comments)."""
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{e.u} {e.v}" for e in stream.edges)
    return "\n".join(lines) + "\n"


class Graph:
    """Static view of a stream: edge ids, neighbors, degrees, vertex set.

    Raises SelfLoop or DuplicateEdge (both ParseErrors) on a loop or a
    repeated pair, so no engine ever sees a multigraph.
    """

    def __init__(self, edges: Sequence[Edge]):
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.ends: list[Pair] = [(e.u, e.v) for e in self.edges]
        nbrs: dict[int, dict[int, int]] = {}
        for i, (u, v) in enumerate(self.ends):
            at_u = nbrs.get(u)
            if at_u is None:
                at_u = nbrs[u] = {}
            if u == v:
                raise SelfLoop(f"edge {self.edges[i].arrival} joins {u} to itself")
            if v in at_u:
                raise DuplicateEdge(f"edge {self.edges[i].arrival} repeats pair {edge_pair(u, v)}")
            at_u[v] = i
            at_v = nbrs.get(v)
            if at_v is None:
                at_v = nbrs[v] = {}
            at_v[u] = i
        self.nbrs = nbrs
        self.vertices: tuple[int, ...] = tuple(sorted(nbrs))
        self.degree = {v: len(nbrs[v]) for v in self.vertices}
        self.max_degree = max(self.degree.values(), default=0)

    @classmethod
    def from_stream(cls, stream: EdgeStream) -> "Graph":
        return cls(stream.edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Min-degree peeling; ties broken by smallest label.

    Returns d and the vertex order, the reverse peeling sequence, so each
    vertex sees at most d neighbors before itself.  d is the largest
    residual minimum degree observed while peeling.

    The minimum comes from a bucket queue (Matula and Beck): bucket[r] is a
    heap of the labels whose residual was r when they were pushed, and an
    entry whose vertex has since been peeled or has fallen lower is stale
    and skipped.  A peel lowers each neighbor's residual by one, so the
    scan pointer steps back by one per peel and moves O(n + max_degree)
    times in all.  Each edge pushes at most one entry and each entry pops
    once, so the peel makes O(n + m) heap steps, O((n + m) log n) time at
    worst, on heaps that each hold one residual's labels.

    >>> g = Graph.from_stream(stream_from_pairs([(2, 0), (2, 1), (3, 4)]))
    >>> degeneracy(g)  # 0, 1, 3 and 4 tie at residual 1: 0 is peeled first
    (1, (4, 3, 2, 1, 0))
    """
    if g.n == 0:
        raise PreconditionViolated("degeneracy of an empty graph is undefined")
    nbrs = g.nbrs
    residual = dict(g.degree)  # alive vertices only
    bucket: list[list[int]] = [[] for _ in range(g.max_degree + 1)]
    for v in g.vertices:  # sorted labels, so every bucket starts as a heap
        bucket[residual[v]].append(v)
    pop, push = heapq.heappop, heapq.heappush
    peeled: list[int] = []
    d = r = 0  # no alive vertex has a residual below r
    for _ in range(g.n):
        while True:
            while not bucket[r]:
                r += 1
            v = pop(bucket[r])
            if residual.get(v) == r:
                break
        del residual[v]
        if r > d:
            d = r
        peeled.append(v)
        for w in nbrs[v]:
            if w in residual:
                x = residual[w] - 1
                residual[w] = x
                push(bucket[x], w)
        if r:
            r -= 1
    return d, tuple(reversed(peeled))


@dataclass(frozen=True)
class EdgeClassification:
    """front[i] is the endpoint of edge i that comes first in the order;
    back[i] the other.  Both are indexed by edge id."""

    front: Sequence[int]
    back: Sequence[int]
    back_degree: Mapping[int, int]


def classify(g: Graph, order: Sequence[int]) -> EdgeClassification:
    """Split each edge into its front (earlier) and back (later) endpoint
    in `order`, which lists each vertex of g once and may list others."""
    rank = {v: i for i, v in enumerate(order)}
    if len(rank) != len(order):
        raise PreconditionViolated("order lists a vertex twice")
    for v in g.vertices:
        if v not in rank:
            raise PreconditionViolated(f"vertex {v} missing from order")
    front: list[int] = []
    back: list[int] = []
    back_degree = dict.fromkeys(g.vertices, 0)
    for u, v in g.ends:
        if rank[u] > rank[v]:
            u, v = v, u
        front.append(u)
        back.append(v)
        back_degree[v] += 1
    return EdgeClassification(front, back, back_degree)


def bipartition(g: Graph) -> tuple[set[int], set[int]]:
    """Two-color the vertices by BFS; raises NotBipartite on an odd cycle."""
    nbrs = g.nbrs
    side: dict[int, int] = {}
    for start in g.vertices:
        if start in side:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
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


def is_proper(g: Graph, coloring) -> bool:
    """True when no two colored edges of equal color share an endpoint.

    Accepts a partial coloring: uncolored edges are ignored.
    """
    colors: Mapping[Pair, int] = getattr(coloring, "assignment", coloring)
    seen: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.ends:
        c = colors.get(edge_pair(u, v))
        if c is None:
            continue
        if c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    return True


def is_forest(g: Graph) -> bool:
    """Acyclicity via union-find over the edge list."""
    parent = {v: v for v in g.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.ends:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
