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

A graph of degeneracy <= d with max_degree >= 2d is class 1, and
color_degenerate builds both the max_degree coloring and every subset's
2d-coloring without search.  The exact search runs only to decide the
class of a graph with max_degree < 2*degeneracy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .advice import AdviceRecord, pack_record, pad_degeneracy
from .coloring import (
    Coloring,
    color_degenerate,
    exact_color,
    konig_color,
    node_budget,
    vizing_plus_one,
)
from .errors import NotBipartite, PreconditionViolated
from .graphs import (
    DegeneracyOrder,
    Edge,
    EdgeStream,
    Graph,
    Pair,
    classify,
    degeneracy,
)


@dataclass(frozen=True)
class EdgeAdvice:
    """Oracle-side view of one record, before bit packing."""

    mode: int
    color: int
    subset: Optional[int] = None
    rank: Optional[int] = None
    front: Optional[int] = None


@dataclass
class PartitionTrace:
    """Everything the subset partition decided, keyed for the tests."""

    d: int
    order: DegeneracyOrder
    assignments: dict[Pair, tuple[int, int]]  # pair -> (subset index, rank)
    fronts: dict[Pair, int]
    partition: dict[int, list[Edge]]
    colorings: dict[int, Coloring]


def build_partition(
    g: Graph,
    d: int,
    order: DegeneracyOrder,
) -> PartitionTrace:
    """Assign every edge to a subset of max degree <= 2d, recording ranks.

    Vertices are visited in `order`; each vertex's front-edges are handled
    in arrival order.  An edge goes to the lowest-indexed subset holding at
    most 2d-1 edges at its front endpoint; the recorded rank counts, below
    that index, the subsets that look open when only earlier arrivals at
    the front endpoint are visible.  With back-degree <= d the rank never
    exceeds d.

    Each subset is a subgraph of g, so its degeneracy is at most d and
    color_degenerate gives it a 2d-coloring without search.

    Requires max degree to be a positive multiple of 2d.
    """
    sides = classify(g, order)  # raises when a vertex is missing from the order
    if max(sides.back_degree.values(), default=0) > d:
        raise PreconditionViolated(f"order has back-degree above {d}")
    delta = g.max_degree
    if delta == 0 or delta % (2 * d) != 0:
        raise PreconditionViolated(f"max degree {delta} is not a positive multiple of {2 * d}")

    cap = 2 * d - 1
    front_edges: dict[int, list[Edge]] = {}
    for e in g.edges:
        front_edges.setdefault(sides.front[e.pair], []).append(e)
    for group in front_edges.values():
        group.sort(key=lambda e: e.arrival)

    # placed[v][j]: edges at v already in subset j.  back[v]: (arrival, j)
    # of v's back edges, all placed before v itself is visited.
    placed: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    back: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    assignments: dict[Pair, tuple[int, int]] = {}
    fronts: dict[Pair, int] = {}
    partition: dict[int, list[Edge]] = {}

    for v in order.order:
        total = placed.get(v, {})
        target = 1
        for e in front_edges.get(v, ()):
            # subsets only fill up, so the lowest open index never falls
            while total.get(target, 0) > cap:
                target += 1
            # the placed edges at v that arrive after e are back edges
            late: dict[int, int] = {}
            for arrival, j in back[v]:
                if arrival > e.arrival:
                    late[j] = late.get(j, 0) + 1
            if total.get(target, 0) - late.get(target, 0) > cap:
                raise AssertionError("chosen subset not open among earlier arrivals")
            # every subset below target is full, so it looks open among
            # earlier arrivals only when late back edges hide enough of it
            rank = sum(1 for j, k in late.items() if j < target and total[j] - k <= cap)
            if rank > d:
                raise AssertionError(f"rank {rank} exceeds back-degree bound {d}")
            assignments[e.pair] = (target, rank)
            fronts[e.pair] = v
            partition.setdefault(target, []).append(e)
            w = e.other(v)
            total[target] = total.get(target, 0) + 1
            placed[w][target] = placed[w].get(target, 0) + 1
            back[w].append((e.arrival, target))

    for j, members in partition.items():
        members.sort(key=lambda e: e.arrival)
    colorings: dict[int, Coloring] = {}
    for j, members in sorted(partition.items()):
        sub = Graph(members)
        if sub.max_degree > 2 * d:
            raise AssertionError(f"subset {j} reached degree {sub.max_degree}")
        colorings[j] = color_degenerate(sub, d)
    return PartitionTrace(d, order, assignments, fronts, partition, colorings)


@dataclass
class OracleResult:
    """Records plus the full decision trace, including the replay stream."""

    d: int                      # padded bound actually encoded
    requested_d: int            # bound before padding
    mode: str
    delta: int
    chromatic_index: int
    records: list[AdviceRecord]
    per_edge: list[EdgeAdvice]  # arrival-indexed
    stream: EdgeStream          # what the consumer should replay
    optimal: Coloring
    partition_trace: Optional[PartitionTrace]

    @property
    def partition(self) -> dict[int, list[Edge]]:
        """Bundle index -> member edges; empty when every record is literal."""
        return self.partition_trace.partition if self.partition_trace else {}


def _contiguous(col: Coloring) -> Coloring:
    """Rename colors to 1..k in ascending order of their values."""
    rename: dict[int, int] = {}
    for c in sorted(set(col.assignment.values())):
        rename[c] = len(rename) + 1
    return Coloring({pair: rename[c] for pair, c in col.assignment.items()})


def optimal_coloring(
    g: Graph, *, budget: Optional[int] = None, dgn: Optional[int] = None
) -> tuple[int, Coloring]:
    """(chromatic index, witness coloring); palette is exactly 1..chi.

    `dgn` is g's degeneracy, computed when not given.  Bipartite graphs and
    graphs with max_degree >= 2*dgn are class 1 and get a max_degree
    coloring by construction; only the rest reach the exact search.
    """
    if g.m == 0:
        return 0, Coloring({})
    delta = g.max_degree
    try:
        return delta, konig_color(g)
    except NotBipartite:
        pass
    if dgn is None:
        dgn = degeneracy(g)[0]
    if delta >= 2 * dgn:
        # a vertex of degree delta sees every color, so the palette is 1..delta
        return delta, color_degenerate(g, dgn)
    # fan recoloring sometimes lands on delta distinct colors, which settles
    # the class-1 question without touching the exact search
    fan = vizing_plus_one(g)
    if len(set(fan.assignment.values())) == delta:
        return delta, _contiguous(fan)
    witness = exact_color(g, delta, budget=budget)
    if witness is not None:
        return delta, witness
    return delta + 1, _contiguous(fan)


def chromatic_index(g: Graph, *, budget: Optional[int] = None) -> int:
    """max_degree or max_degree+1; bipartite graphs and graphs with
    max_degree >= 2*degeneracy settle without search."""
    return optimal_coloring(g, budget=budget)[0]


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
    subset edge's front endpoint first; in robust mode a record bit names
    it instead and the stream is returned untouched.
    """
    if mode not in ("strict", "robust"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    budget = node_budget(budget)  # refused here even when no search runs
    edges = stream.edges
    if not edges:
        dd = pad_degeneracy(d if d is not None else 1)
        return OracleResult(
            dd, d if d is not None else 1, mode, 0, 0, [], [], stream, Coloring({}), None
        )
    g = Graph.from_stream(stream)
    dgn, _ = degeneracy(g)
    requested = dgn if d is None else d
    if dgn > requested:
        raise PreconditionViolated(f"stream has degeneracy {dgn}, above {requested}")
    dd = pad_degeneracy(requested)
    delta = g.max_degree
    chi, opt = optimal_coloring(g, budget=budget, dgn=dgn)

    trace: Optional[PartitionTrace] = None
    if delta >= 2 * dd:
        a, b = divmod(delta, 2 * dd)
        if chi != delta:
            raise AssertionError("a degenerate graph with max_degree >= 2d must be class 1")
        rest = [e for e in edges if opt[e.pair] > b]
        sub = Graph(rest)
        if sub.max_degree != a * 2 * dd:
            raise AssertionError("residual subgraph lost the expected max degree")
        _, sub_order = degeneracy(sub)
        trace = build_partition(sub, dd, sub_order)
        per_edge = []
        for e in edges:
            pair = e.pair
            c = opt[pair]
            if c <= b:
                per_edge.append(EdgeAdvice(0, c))
            else:
                j, r = trace.assignments[pair]
                per_edge.append(
                    EdgeAdvice(1, trace.colorings[j][pair], j, r, trace.fronts[pair])
                )
    else:
        per_edge = [EdgeAdvice(0, opt[e.pair]) for e in edges]

    # few distinct records exist, so each is packed once and shared; a key
    # holds only written fields, so a strict key's front flag is always 0
    packed: dict[tuple[int, int, int, int], AdviceRecord] = {}
    records = []
    for e, adv in zip(edges, per_edge):
        if adv.mode == 0:
            key = (0, adv.color, 0, 0)
        else:
            key = (1, adv.color, adv.rank, int(mode == "robust" and adv.front != min(e.u, e.v)))
        record = packed.get(key)
        if record is None:
            record = packed[key] = pack_record(dd, mode, *key)
        records.append(record)

    out_stream = stream
    if mode == "strict":
        oriented = []
        for e, adv in zip(edges, per_edge):
            if adv.mode == 1 and e.u != adv.front:
                oriented.append(Edge(e.v, e.u, e.arrival))
            else:
                oriented.append(e)
        out_stream = EdgeStream(tuple(oriented), "strict")

    return OracleResult(
        dd,
        requested,
        mode,
        delta,
        chi,
        records,
        per_edge,
        out_stream,
        opt,
        trace,
    )
