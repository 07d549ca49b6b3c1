"""Edge streams, graphs, degeneracy orderings, and coloring checks.

Vertices are opaque integer labels; they exist only once an edge reveals
them.  An edge stream fixes the arrival order, which is the only notion of
time the online algorithms ever see, and is a simple graph by construction:
EdgeStream refuses a loop or a repeated pair when it is built, so a run
colors each edge once.  Graph checks its edges too, since it also takes raw
edge sequences such as bundle members.

Inside a Graph an edge is named by its position in `edges`, its edge id,
and a vertex by its position in `vertices`, its index: the labels sorted,
so a tie broken by smallest index is broken by smallest label.  `uv[i]`
holds edge i's endpoints as listed, by index, `adj[v]` lists v's
neighbors by index, once per edge, in edge order, and `deg[v]` is v's
degree, the length of `adj[v]`.  The degeneracy peel, the engines, the
partition and the oracle run on these lists; labels appear only at the API
boundary (the orders `degeneracy` returns and `build_partition` takes,
error messages), and normalized endpoint pairs (`Edge.pair`, the keys of a
Coloring's assignment) only when asked for.
A Coloring, the result type of the engines in coloring and of a run, lives
here beside the Edge and Pair types it is built from: one color per edge
id, which for a run is one per arrival.
"""
from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DuplicateEdge, NotBipartite, ParseError, PreconditionViolated, SelfLoop

Pair = tuple[int, int]


def edge_pair(u: int, v: int) -> Pair:
    """Unordered endpoint pair, normalized to (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """One revealed edge.  `u` is the endpoint listed first in the stream.

    Every stream, game row and re-oriented subset builds one per edge, so
    `__init__` is written by hand: the dataclass's own writes each field
    through `object.__setattr__` to get past the frozen check, at about
    twice the cost of the slot descriptors' `__set__` used here.  Equality,
    hashing, repr, pickling and `dataclasses.replace` are the dataclass's.
    """

    u: int
    v: int
    arrival: int

    def __init__(self, u: int, v: int, arrival: int) -> None:
        _set_u(self, u)
        _set_v(self, v)
        _set_arrival(self, arrival)

    @property
    def pair(self) -> Pair:
        return edge_pair(self.u, self.v)


# bound after the class, since slots=True builds the class anew
_set_u = Edge.u.__set__
_set_v = Edge.v.__set__
_set_arrival = Edge.arrival.__set__


@dataclass(frozen=True)
class EdgeStream:
    """Edges in arrival order, a simple graph by construction; any iterable
    of edges is kept as a tuple.

    Building one checks that edge i has arrival i (PreconditionViolated
    otherwise), then raises SelfLoop or DuplicateEdge (both ParseErrors) for
    the first edge that is a loop or repeats an earlier pair, reversed or
    not.  So an online algorithm never meets an edge twice.
    """

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        # a generator would be drained by the check, a list could change after it
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        # this loop reads a slot at about half the cost of attrgetter, and
        # holds no list of m ints as comparing against list(range(m)) would
        for i, e in enumerate(edges):
            if e.arrival != i:
                raise PreconditionViolated(f"arrival index {e.arrival} at position {i}")
        _require_simple(edges, [e.u for e in edges], [e.v for e in edges])

    @property
    def m(self) -> int:
        return len(self.edges)


def stream_from_pairs(pairs: Iterable[tuple[int, int]]) -> EdgeStream:
    """Build a stream from ordered (u, v) pairs, assigning arrival indices."""
    return EdgeStream(Edge(u, v, i) for i, (u, v) in enumerate(pairs))


# the line breaks of str.splitlines that are ASCII
_ASCII_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e]")
# the comment-free text serialize_stream writes: two digit runs a line, each
# line ended by "\n"
_PLAIN = re.compile(r"(?:[0-9]+[ \t]+[0-9]+\n)*")


def parse_stream(text: str) -> EdgeStream:
    """Parse the line-oriented "u v" format; '#' starts a comment.

    Lines break only at ASCII line breaks, and outside comments a line is
    ASCII: a non-ASCII space or digit is a ParseError, not a separator or a
    label.

    Plain text, as serialize_stream writes it without comments, is read in
    bulk; anything else, and a label too long for int(), goes through the
    line loop, which alone writes the ParseErrors.
    """
    if _PLAIN.fullmatch(text):
        try:
            labels = list(map(int, text.split()))
        except ValueError:  # more digits than int() converts: the loop names the line
            pass
        else:
            us, vs = labels[0::2], labels[1::2]
            del labels  # not held while the edges are built
            return EdgeStream(tuple(map(Edge, us, vs, range(len(us)))))
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
    return stream_from_pairs(pairs)


def serialize_stream(stream: EdgeStream, comments: Sequence[str] = ()) -> str:
    """Inverse of parse_stream (up to comments).

    A comment holding an ASCII line break would end early and could read
    back as edges, so it is refused with PreconditionViolated.
    """
    for c in comments:
        if _ASCII_BREAK.search(c):
            raise PreconditionViolated(f"comment {c!r} holds a line break")
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{e.u} {e.v}" for e in stream.edges)
    return "\n".join(lines) + "\n"


class Graph:
    """Static view of a stream: edge ids, vertex indices, adjacency, degrees.

    Built from raw edges, it raises SelfLoop or DuplicateEdge (both
    ParseErrors) on a loop or a repeated pair, so no engine ever sees a
    multigraph.  Built from a stream, which is simple by construction, it
    does not check again.
    """

    def __init__(self, edges: Sequence[Edge] | EdgeStream):
        checked = isinstance(edges, EdgeStream)  # simple by construction
        self.edges: tuple[Edge, ...] = edges.edges if checked else tuple(edges)
        us = [e.u for e in self.edges]
        vs = [e.v for e in self.edges]
        self.vertices: tuple[int, ...] = tuple(sorted({*us, *vs}))
        n = len(self.vertices)
        at = dict(zip(self.vertices, range(n))).__getitem__
        iu, iv = list(map(at, us)), list(map(at, vs))
        self.uv: list[tuple[int, int]] = list(zip(iu, iv))
        if not checked:
            _require_simple(self.edges, iu, iv)
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.uv:
            adj[a].append(b)
            adj[b].append(a)
        self.adj = adj
        self.deg: list[int] = list(map(len, adj))
        self.max_degree = max(self.deg, default=0)

    @classmethod
    def from_stream(cls, stream: EdgeStream) -> "Graph":
        """The stream's graph, built without a second simple-graph check."""
        return cls(stream)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)


class Coloring:
    """Proper edge coloring: `edges` and `by_id`, where edges[i] has color
    by_id[i].

    `order`, the edge ids in the order the edges got colored, fixes the
    order of `assignment`, the pair-keyed view, which is built on first
    access; an engine passes it, and it is id order when omitted.
    """

    __slots__ = ("edges", "by_id", "_order", "_assignment")

    def __init__(
        self, edges: Sequence[Edge], by_id: list[int], order: Optional[Iterable[int]] = None
    ):
        self.edges = edges
        self.by_id = by_id
        self._order = range(len(by_id)) if order is None else order
        self._assignment: Optional[dict[Pair, int]] = None

    @property
    def assignment(self) -> Mapping[Pair, int]:
        if self._assignment is None:
            edges, by_id = self.edges, self.by_id
            self._assignment = {edges[i].pair: by_id[i] for i in self._order}
        return self._assignment

    @property
    def palette(self) -> frozenset[int]:
        return frozenset(self.by_id)

    def __getitem__(self, pair: Pair) -> int:
        return self.assignment[pair]

    def __len__(self) -> int:
        return len(self.by_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.assignment == other.assignment

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Coloring(assignment={self.assignment!r})"


def _require_simple(edges: Sequence[Edge], us: Sequence[int], vs: Sequence[int]) -> None:
    """Raise as _reject does if edges, whose ends are (us[i], vs[i]) by
    label or by index, hold a loop or a repeated pair; one set check finds
    out whether they do."""
    seen = set(zip(us, vs))
    if len(seen) < len(us) or not seen.isdisjoint(zip(vs, us)):
        _reject(edges)  # a repeat, reversed or not; a loop is its own reverse


def _reject(edges: Sequence[Edge]) -> None:
    """Raise for the first edge that is a loop or repeats an earlier pair."""
    seen: set[Pair] = set()
    for e in edges:
        if e.u == e.v:
            raise SelfLoop(f"edge {e.arrival} joins {e.u} to itself")
        if e.pair in seen:
            raise DuplicateEdge(f"edge {e.arrival} repeats pair {e.pair}")
        seen.add(e.pair)


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Min-degree peeling; ties broken by smallest label.

    Returns d and the vertex order (labels), the reverse peeling sequence,
    so each vertex sees at most d neighbors before itself.  d is the largest
    residual minimum degree observed while peeling, 0 on no vertices.

    The minimum comes from a bucket queue (Matula and Beck): bucket[r] is a
    heap of the vertex indices whose residual was r when they were pushed,
    and an entry whose vertex has since been peeled or has fallen lower is
    stale and skipped.  A peel lowers each neighbor's residual by one, so
    the scan pointer steps back by one per peel and moves O(n + max_degree)
    times in all.  Each edge pushes at most one entry and each entry pops
    once, so the peel makes O(n + m) heap steps, O((n + m) log n) time at
    worst, on heaps that each hold one residual's vertices.

    >>> g = Graph.from_stream(stream_from_pairs([(2, 0), (2, 1), (3, 4)]))
    >>> degeneracy(g)  # 0, 1, 3 and 4 tie at residual 1: 0 is peeled first
    (1, (4, 3, 2, 1, 0))
    """
    adj = g.adj
    residual = list(g.deg)  # -1 once peeled; an alive neighbor's is >= 1
    bucket: list[list[int]] = [[] for _ in range(g.max_degree + 1)]
    for v, x in enumerate(residual):  # ascending, so every bucket starts as a heap
        bucket[x].append(v)
    pop, push = heapq.heappop, heapq.heappush
    peeled: list[int] = []
    d = r = 0  # no alive vertex has a residual below r
    for _ in range(g.n):
        while True:
            while not bucket[r]:
                r += 1
            v = pop(bucket[r])
            if residual[v] == r:
                break
        residual[v] = -1
        if r > d:
            d = r
        peeled.append(v)
        for w in adj[v]:
            x = residual[w] - 1
            if x >= 0:
                residual[w] = x
                push(bucket[x], w)
        if r:
            r -= 1
    labels = g.vertices
    return d, tuple([labels[v] for v in reversed(peeled)])


def two_color(g: Graph) -> list[int]:
    """side[v] in {0, 1} for each vertex index, by BFS from the smallest
    uncolored index; raises NotBipartite on an odd cycle."""
    adj, labels = g.adj, g.vertices
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            s = side[v]
            for w in adj[v]:
                if side[w] < 0:
                    side[w] = 1 - s
                    queue.append(w)
                elif side[w] == s:
                    raise NotBipartite(f"odd cycle through {labels[v]} and {labels[w]}")
    return side


def is_bipartite(g: Graph) -> bool:
    try:
        two_color(g)
    except NotBipartite:
        return False
    return True


def is_proper(g: Graph, coloring) -> bool:
    """True when no two colored edges of equal color share an endpoint.

    Accepts a partial coloring: uncolored edges are ignored.
    """
    colors: Mapping[Pair, int] = getattr(coloring, "assignment", coloring)
    seen: list[set[int]] = [set() for _ in range(g.n)]
    for (a, b), e in zip(g.uv, g.edges):
        u, v = e.u, e.v
        c = colors.get((u, v) if u < v else (v, u))
        if c is None:
            continue
        if c in seen[a] or c in seen[b]:
            return False
        seen[a].add(c)
        seen[b].add(c)
    return True


def is_forest(g: Graph) -> bool:
    """A graph is a forest exactly when its degeneracy is at most 1."""
    return degeneracy(g)[0] <= 1
