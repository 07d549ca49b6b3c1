"""The advice oracle: subset partitioning and per-edge record construction.

Two regimes, split on the (padded) degeneracy bound d:

* max_degree < 2d: the oracle just ships an optimal color per edge, which
  always fits in the color field because even max_degree+1 <= 2d.
* max_degree >= 2d: write max_degree = a*2d + b.  Edges using the first b
  colors of an optimal coloring are shipped literally; the rest form a
  subgraph of max degree exactly a*2d that is partitioned online-style
  into subsets of max degree <= 2d, each colored with 2d colors.  A record
  then names the color inside the subset plus the subset's rank among the
  indices still open at the edge's front endpoint, and the consumer can
  rebuild the subset index because both sides only count earlier arrivals.
  When b = 0 every edge goes to the subsets, so no record reads an optimal
  coloring and none is computed: the optimal coloring is read only when
  b > 0.

A graph of degeneracy <= d with max_degree >= 2d is class 1, and the peel
of coloring._peel_color at threshold d builds both the max_degree coloring
and every subset's 2d-coloring without search; with b = 0 the subsets'
2d-colorings alone color the graph with a*2d = max_degree colors.  The
exact search runs only to decide the class of a graph with max_degree <
2*degeneracy that neither the max_degree peel nor the max_degree+1
coloring settles and that is not overfull (exact_color refutes an
overfull graph by counting its edges).

The oracle works on edge ids and vertex indices (see graphs): it reads
the optimal coloring by id, splits literal from subset edges by id, and
the partition orients each edge and places the residual subgraph's edges,
then colors all subsets with one peel of their disjoint union.  Its
per-vertex state is in lists by vertex index: each vertex's front edges,
and the (subset, arrival) of its back edges, at most d; a vertex's count
in a subset is its back edges there plus its own front edges placed
there, so no table by (vertex, subset) is kept, and no vertex's state
grows with the number of subsets at it.  The partition is the one place
that decides an edge's front endpoint: it maps the label order to
positions once and compares the positions of each edge's ends.  Labels
appear only in the orders it takes and in each record's front endpoint.
g's one degeneracy order serves the residual too, since restricting an
order to a subgraph can only lower back-degrees.  The partition hands back
its plan, one EdgeAdvice named tuple per residual edge (mode, color,
subset, rank, front), plus the bundles' member edges; build_advice copies
the plan into per_edge, where literal edges of one color share one tuple,
or takes the plan as per_edge when b = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .advice import AdviceRecord, pack_record, pad_degeneracy
from .coloring import (
    Coloring,
    _peel_color,
    exact_color,
    konig_color,
    node_budget,
    vizing_plus_one,
)
from .errors import NotBipartite, PreconditionViolated
from .graphs import Edge, EdgeStream, Graph, degeneracy


class EdgeAdvice(NamedTuple):
    """Oracle-side view of one record, before bit packing.  A named tuple:
    one is built per subset edge, and a tuple builds at a third of a frozen
    dataclass's cost.  The partition builds it with tuple.__new__, which
    skips the named tuple's Python-level __new__ and takes about half as
    long."""

    mode: int
    color: int
    subset: Optional[int] = None
    rank: Optional[int] = None
    front: Optional[int] = None


def _positions(g: Graph, order: Sequence[int]) -> list[int]:
    """pos[v], the position in `order` of the vertex with index v.  `order`
    lists each vertex of g once, by label, and may list others."""
    at = dict(zip(order, range(len(order))))
    if len(at) != len(order):
        seen: set[int] = set()
        for label in order:
            if label in seen:
                raise PreconditionViolated(f"order lists vertex {label} twice")
            seen.add(label)
    pos = list(map(at.get, g.vertices))
    if None in pos:
        raise PreconditionViolated(f"vertex {g.vertices[pos.index(None)]} missing from order")
    return pos


def build_partition(
    g: Graph,
    d: int,
    order: Sequence[int],
    ids: Sequence[int],
) -> tuple[list[Optional[EdgeAdvice]], dict[int, list[Edge]]]:
    """Assign g's edges `ids` to subsets of max degree <= 2d, recording ranks.

    Vertices are visited in `order`, a vertex order of g by label; each
    vertex's front-edges among `ids` are handled in arrival order.  An edge
    goes to the lowest-indexed subset holding at most 2d-1 edges at its
    front endpoint; the recorded rank counts, below that index, the subsets
    that look open when only earlier arrivals at the front endpoint are
    visible.  With back-degree <= d the rank never exceeds d.

    Each subset is a subgraph of g, so its degeneracy is at most d and
    _peel_color at threshold d and floor 2d gives it a 2d-coloring without
    search.  One peel colors the subsets side by side, each as it colors
    that subset alone: subset j's vertices take the next indices, in g's
    index order, and its edges follow in arrival order.

    A vertex's back edges, at most d, are all placed before it is
    visited, so its count in a subset is its back edges there plus the
    front edges it has placed there itself; no count is kept by (vertex,
    subset).  Front edges enter only subsets holding at most 2d-1 edges at
    the vertex, so only back edges could push a subset past 2d, and an O(d)
    check of each visited vertex's back edges guards the bound: every
    subset's peel has k = 2d.

    Returns the plan by g's edge ids, plan[i] = EdgeAdvice(1, color in the
    subset, subset, rank, front) for i in `ids` and None for other edges,
    and each subset's members in arrival order.

    Requires `order` to list each vertex of g once, back-degree <= d over
    all of g, `ids` to list edge ids of g at most once each, and the max
    degree of the subgraph of the edges `ids` to be a positive multiple of
    2d.
    """
    pos = _positions(g, order)
    uv = g.uv
    back_degree = [0] * g.n
    for a, b in uv:
        back_degree[b if pos[a] < pos[b] else a] += 1
    if max(back_degree, default=0) > d:
        raise PreconditionViolated(f"order has back-degree above {d}")
    m = g.m
    listed = [False] * m
    for i in ids:
        if not 0 <= i < m:
            raise PreconditionViolated(f"edge id {i} is not in 0..{m - 1}")
        if listed[i]:
            raise PreconditionViolated(f"edge id {i} is listed twice")
        listed[i] = True
    edges, labels = g.edges, g.vertices
    arrival = [e.arrival for e in edges]
    # front_edges[v]: the edges of ids whose front end is vertex index v, in
    # arrival order; front[i], other[i]: the indices of edge i's front and
    # back ends
    front_edges: list[list[int]] = [[] for _ in range(g.n)]
    front = [0] * m
    other = [0] * m
    degree = [0] * g.n
    for i in sorted(ids, key=arrival.__getitem__):
        a, b = uv[i]
        if pos[a] > pos[b]:
            a, b = b, a
        front_edges[a].append(i)
        front[i] = a
        other[i] = b
        degree[a] += 1
        degree[b] += 1
    delta = max(degree, default=0)
    if delta == 0 or delta % (2 * d) != 0:
        raise PreconditionViolated(f"max degree {delta} is not a positive multiple of {2 * d}")

    cap = 2 * d - 1
    # Fewer than delta edges are placed at a vertex before its last one, so
    # fewer than delta/2d subsets are full there: subsets are 1..delta/2d.
    # back[v]: (subset, arrival) of v's back edges, all placed before v
    # itself is visited
    back: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    rank = [0] * m
    members: dict[int, list[int]] = {j: [] for j in range(1, delta // (2 * d) + 1)}

    # the vertices with front edges, in order
    for v in sorted(filter(front_edges.__getitem__, range(g.n)), key=pos.__getitem__):
        back_v = back[v]
        back_v.sort()  # by subset, then arrival
        held = [j for j, _ in back_v]  # the subsets of v's back edges
        # sorted, so a subset holding more than 2d of them spans 2d+1 entries
        for k in range(len(held) - 2 * d):
            if held[k] == held[k + 2 * d]:
                j = held[k]
                raise AssertionError(f"subset {j} reached degree {held.count(j)} at vertex {labels[v]}")
        target = 1
        count = held.count(1)  # edges at v in subset target
        for i in front_edges[v]:
            # subsets only fill up, so the lowest open index never falls
            while count > cap:
                target += 1
                count = held.count(target)
            if back_v:
                # each subset below target holds exactly 2d edges at v; it
                # looks open among earlier arrivals exactly when one of v's
                # back edges in it arrives after edge i: count those subsets
                t = arrival[i]
                r = last = 0
                for j, s in back_v:
                    if j >= target:
                        break
                    if s > t and j != last:
                        r += 1
                        last = j
                rank[i] = r
            members[target].append(i)
            count += 1
            back[other[i]].append((target, arrival[i]))
    # the used subsets, ascending, which is the order of their first use:
    # subset j takes an edge only where j - 1 is full
    members = {j: sub for j, sub in members.items() if sub}

    partition: dict[int, list[Edge]] = {}
    ends: list[tuple[int, int]] = []
    names: list[int] = []
    local = [0] * g.n  # a vertex index's index in the union, set per subset
    for j, sub in members.items():
        sub.sort(key=arrival.__getitem__)
        partition[j] = [edges[i] for i in sub]
        verts = sorted({v for i in sub for v in uv[i]})
        for k, v in enumerate(verts, len(names)):
            local[v] = k
        names.extend(labels[v] for v in verts)
        ends.extend((local[a], local[b]) for a, b in map(uv.__getitem__, sub))
    color = _peel_color(ends, names, d, 2 * d)
    if color is None:  # the back-degree check bounds each subset's degeneracy by d
        raise AssertionError("the peel of the subsets got stuck")
    plan: list[Optional[EdgeAdvice]] = [None] * m  # each of ids lands in one subset
    new = tuple.__new__  # skips the named tuple's Python-level __new__
    t = 0
    for j, sub in members.items():
        for i in sub:
            plan[i] = new(EdgeAdvice, (1, color[t], j, rank[i], labels[front[i]]))
            t += 1
    return plan, partition


@dataclass
class OracleResult:
    """Records plus the plan behind them, including the replay stream.  No
    optimal coloring is kept: records read one only for their literal
    colors, and optimal_coloring gives one on request."""

    d: int                      # padded bound actually encoded
    mode: str
    n: int                      # vertices of the stream's graph
    delta: int
    chromatic_index: int        # delta, without a coloring pass, when 2d divides delta
    records: list[AdviceRecord]
    per_edge: list[EdgeAdvice]  # arrival-indexed
    stream: EdgeStream          # what the consumer should replay
    partition: dict[int, list[Edge]]  # bundle -> members; {} when every record is literal


def optimal_coloring(
    g: Graph, *, budget: Optional[int] = None, dgn: Optional[int] = None
) -> tuple[int, Coloring]:
    """(chromatic index, witness coloring); palette is exactly 1..chi.

    `dgn` is g's degeneracy, computed when not given.  Bipartite graphs get
    a max_degree coloring from konig_color.  Every other graph meets one
    max_degree peel: at threshold dgn when max_degree >= 2*dgn, where the
    peel never gets stuck (the graph is class 1), and at threshold
    max_degree otherwise, where a complete peel settles class 1.  Of the
    rest, a max_degree+1 coloring that lands on max_degree colors settles
    class 1; exact_color decides the others, and refutes an overfull graph
    (more than max_degree*(n//2) edges) by that count, before any search
    node.
    """
    delta = g.max_degree
    try:
        return delta, konig_color(g)
    except NotBipartite:
        pass
    if dgn is None:
        dgn = degeneracy(g)[0]
    # a complete peel at k = delta is a delta-coloring, and a vertex of
    # degree delta sees every color, so the palette is 1..delta
    peeled = _peel_color(g.uv, g.vertices, dgn if delta >= 2 * dgn else delta, delta)
    if peeled is not None:
        return delta, Coloring(g.edges, peeled)
    plus = vizing_plus_one(g)  # palette 1..delta or 1..delta+1 (see _peel_color)
    if len(plus.palette) == delta:
        return delta, plus
    witness = exact_color(g, delta, budget=budget)
    if witness is not None:
        return delta, witness
    return delta + 1, plus


def build_advice(
    stream: EdgeStream,
    d: Optional[int] = None,
    *,
    mode: str = "robust",
    budget: Optional[int] = None,
) -> OracleResult:
    """Compute per-edge records for the stream.

    `d` defaults to the graph's degeneracy and is padded to the largest
    bound with the same record length, so the consumer can infer it from
    the length alone.  In strict mode the returned stream lists each
    subset edge's front endpoint first, and is the input stream itself when
    no subset edge turns (every all-literal run is such a run); in robust
    mode a record bit names the front endpoint instead and the stream is
    returned untouched.
    """
    if mode not in ("strict", "robust"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    budget = node_budget(budget)  # refused here even when no search runs
    edges = stream.edges
    g = Graph.from_stream(stream)
    dgn, order = degeneracy(g)
    requested = max(dgn, 1) if d is None else d  # an empty stream has dgn 0
    dd = pad_degeneracy(requested)  # refuses d < 1 before d is compared
    if dgn > requested:
        raise PreconditionViolated(f"stream has degeneracy {dgn}, above {requested}")
    delta = g.max_degree
    a, b = divmod(delta, 2 * dd)  # once a > 0, colors 1..b ship literally
    colors: Optional[list[int]] = None  # an optimal coloring by id
    rest: Sequence[int] = []  # ids of the edges the subsets take, ascending
    if a and not b:
        # every edge goes to the subsets, so no record reads an optimal
        # coloring; a graph of degeneracy <= dd with delta >= 2dd is class
        # 1, and the subsets' peel colors it with a*2dd colors
        chi = delta
        rest = range(g.m)
    else:
        chi, opt = optimal_coloring(g, budget=budget, dgn=dgn)
        colors = opt.by_id
        if not a:
            b = chi  # every color ships literally
        else:
            if chi != delta:
                raise AssertionError("a degenerate graph with max_degree >= 2d must be class 1")
            rest = [i for i, c in enumerate(colors) if c > b]
            # a vertex of degree delta sees every color, so it keeps a*2dd
            # residual edges; in a proper coloring none keeps more
            top = g.deg.index(delta)
            if sum(top in g.uv[i] for i in rest) != a * 2 * dd:
                raise AssertionError("residual subgraph lost the expected max degree")
    plan: list[Optional[EdgeAdvice]] = []  # by edge id, set on rest
    partition: dict[int, list[Edge]] = {}
    if rest:
        plan, partition = build_partition(g, dd, order, rest)

    if colors is None:
        per_edge, records = plan, [None] * g.m
    else:
        # few distinct records exist, so each is packed once and shared; a
        # key holds only written fields, so a strict key's front flag is 0
        literal = {c: EdgeAdvice(0, c) for c in set(colors) if c <= b}
        literal_records = {c: pack_record(dd, mode, 0, c, 0, 0) for c in literal}
        per_edge = [literal.get(c) for c in colors]  # subset edges are filled in below
        records = [literal_records.get(c) for c in colors]
    robust = mode == "robust"
    turned: list[int] = []  # strict mode lists each subset edge's front first
    packed: dict[tuple[int, int, int], AdviceRecord] = {}
    for i in rest:
        adv = per_edge[i] = plan[i]
        e = edges[i]
        u, v, f = e.u, e.v, adv.front
        key = (adv.color, adv.rank, int(robust and f != (u if u < v else v)))
        record = packed.get(key)
        if record is None:
            record = packed[key] = pack_record(dd, mode, 1, *key)
        records[i] = record
        if not robust and f != u:
            turned.append(i)
    out_stream = stream._turned(turned) if turned else stream
    return OracleResult(dd, mode, g.n, delta, chi, records, per_edge, out_stream, partition)
