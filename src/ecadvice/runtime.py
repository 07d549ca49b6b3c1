"""Online algorithms and the stream simulator.

The simulator owns the coloring: an algorithm only ever returns a color
for the edge just revealed, properness is re-checked after every step, and
advice consumption is metered by the source.  The advice sources live in
`advice`, which frames the records, and are re-exported here.
"""
from __future__ import annotations

import functools
import gc
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple, Optional

from .advice import (
    RecordFields,
    RequestSource,
    TapeSource,
    bits_per_edge,
    encode_tape,
    header_bits,
    unpack_record,
)
from .coloring import Coloring, exact_color, node_budget
from .errors import AdviceExhausted, ImproperColoring, PreconditionViolated
from .graphs import Edge, EdgeStream, Graph, is_proper
from .oracle import OracleResult, build_advice


def _collector_paused(fn):
    """Run fn with the cyclic collector paused, and resume it on the way out,
    on a raise too.

    The pipeline makes no reference cycles, so reference counting frees all
    its garbage, and the collector's passes only rescan live per-edge
    containers.  A caller that paused the collector, and a paused call
    nested in another, keep it paused.  A cycle made while paused is
    collected once the collector resumes.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class OnlineAlgorithm:
    def step(self, edge: Edge, advice) -> int:
        raise NotImplementedError


class GreedyVariant(OnlineAlgorithm):
    """Greedy nudged by a bit string: bit 1 takes the second-smallest legal
    color instead of the smallest.

    Each vertex keeps its colors as a bitmask, as the recoloring ledger
    does: bit c is set when color c is present, and bit 0 is always set (a
    vertex not seen yet has mask 1).  The smallest legal color is the lowest
    zero bit of the two endpoints' masks OR-ed together; a 1 in the string
    sets that bit and takes the next zero bit.  Colors stay at most
    2 * max_degree, so a mask has at most 2 * max_degree + 1 bits; a vertex
    holding color c keeps at least c + 1, so the leaves of a star with max
    degree D hold about D*D/2 bits in all.

    With cycle=True the string repeats forever; otherwise it is consumed
    once and the tail behaves like plain greedy.  The string is baked in at
    construction, so each string is a distinct deterministic algorithm,
    the shape a finite advice budget produces.
    """

    def __init__(self, bits: str = "", cycle: bool = True):
        if any(b not in "01" for b in bits):
            raise PreconditionViolated("bits must be a 0/1 string")
        self.bits = bits
        self.cycle = cycle
        self._step = 0
        self._used: dict[int, int] = {}

    def step(self, edge: Edge, advice=None) -> int:
        i = self._step
        self._step = i + 1
        bits = self.bits
        used = self._used
        u, v = edge.u, edge.v
        au = used.get(u, 1)
        av = used.get(v, 1)
        taken = au | av
        bit = ~taken & (taken + 1)  # the lowest zero bit
        if bits and (self.cycle or i < len(bits)) and bits[i % len(bits)] == "1":
            taken |= bit
            bit = ~taken & (taken + 1)
        used[u] = au | bit
        used[v] = av | bit
        return bit.bit_length() - 1


class Greedy(GreedyVariant):
    """Smallest color absent at both endpoints; never exceeds 2*delta - 1."""

    def __init__(self) -> None:
        super().__init__("")


class DecodedStep(NamedTuple):
    """What the decoder extracted for one edge, kept for cross-checks.  One
    is built per edge on the first read of `AdviceAlgorithm.decoded`, not
    by the step: a step logs a plain tuple, which builds at a quarter of a
    named tuple's cost."""

    arrival: int
    mode: int
    subset: Optional[int]
    rank: Optional[int]
    color: int


class AdviceAlgorithm(OnlineAlgorithm):
    """Consumes one record per edge and reproduces the oracle's coloring.

    The degeneracy bound is never given out of band: the first step takes
    it from `advice.open(mode)`, and every step reads one record with
    `advice.next_record()`.  Subset routing counts each vertex's earlier
    subset edges per subset; the rank picks the target among the subsets
    not yet full (2d edges) at the front endpoint.  This matches the oracle
    because both only look at earlier arrivals around the front endpoint.

    A vertex's full subsets are kept as ascending runs of consecutive
    indices, so the lookup costs one step per run below the target, not
    one per full subset: at a hub that is the front of all its edges, every
    subset but the few pinned open by late edges sits in one run, and an
    edge there costs the same whatever the hub's degree.  A literal record
    is decoded once, on its first edge; later edges that carry it cost one
    dict lookup.  The run's constants are fixed when the source is opened:
    d, the record length and the subset capacity 2d.  No step compares the
    mode: a record parsed in the strict layout has no front flag (None),
    and that alone puts the front at the edge's first endpoint.

    Each step logs a plain tuple (arrival, subset or None, the record's
    cached fields entry); `decoded` turns the entries not yet read into
    `DecodedStep`s in place on its first read, so a run that never reads
    it builds none.
    """

    def __init__(self, mode: str = "robust"):
        if mode not in ("strict", "robust"):
            raise PreconditionViolated(f"unknown mode {mode!r}")
        self.mode = mode
        self.d: Optional[int] = None
        self.record_length: Optional[int] = None
        self._cap = 0  # 2d, a subset's edge capacity at a vertex, once d is read
        self._counts: dict[int, dict[int, int]] = {}
        # vertex -> its full subsets as ascending runs [first, last], none
        # adjacent to the next; counts only rise, so a full subset stays in
        # its run
        self._runs: dict[int, list[list[int]]] = {}
        # provisional color -> final color, numbered in order of first
        # appearance; a literal record's provisional color is -color, a
        # subset record's (subset - 1) * 2d + color
        self._rename: dict[int, int] = {}
        # record bits -> a subset record's RecordFields, or a literal
        # record's (final color, color) from its first edge on; d and mode
        # are fixed once the first record is read, and a record that fails
        # to parse is never stored
        self._fields: dict[str, RecordFields | tuple[int, int]] = {}
        # one entry per step: (arrival, subset or None for a literal record,
        # its _fields entry), a DecodedStep once `decoded` has read it; the
        # first _read entries have been read
        self._log: list = []
        self._read = 0

    @property
    def decoded(self) -> list[DecodedStep]:
        """What the decoder extracted for each edge so far, in step order.
        The same list on every read: later steps extend it, and an edit to
        an entry stays."""
        log = self._log
        for i in range(self._read, len(log)):
            arrival, subset, fields = log[i]
            if subset is None:  # a literal record: (final color, color)
                log[i] = DecodedStep(arrival, 0, None, None, fields[1])
            else:
                log[i] = DecodedStep(arrival, 1, subset, fields.rank, fields.color)
        self._read = len(log)
        return log

    def _parse(self, bits: str) -> RecordFields | tuple[int, int]:
        fields = unpack_record(bits, self.d, self.mode)
        if fields.mode_flag == 1:
            entry = fields
        else:
            rename = self._rename
            final = rename.get(-fields.color)
            if final is None:
                final = rename[-fields.color] = len(rename) + 1
            entry = (final, fields.color)
        self._fields[bits] = entry
        return entry

    def step(self, edge: Edge, advice) -> int:
        if advice is None:
            raise AdviceExhausted("advice source required")
        if self.d is None:
            self.d = advice.open(self.mode)
            self.record_length = bits_per_edge(self.d, self.mode)
            self._cap = 2 * self.d
        bits = advice.next_record()
        fields = self._fields.get(bits)
        if fields is None:
            fields = self._parse(bits)
        if type(fields) is tuple:  # a literal record: (final color, color)
            self._log.append((edge.arrival, None, fields))
            return fields[0]
        _, front_flag, color, rank = fields
        u, v = edge.u, edge.v
        if front_flag is None:  # the strict layout: the stream lists front first
            front = u
        elif front_flag == 0:
            front = u if u < v else v
        else:
            front = v if u < v else u
        # the (rank+1)-th subset not full at front: every run that starts
        # at or below the candidate lies wholly below the answer
        subset = rank + 1
        runs_at = self._runs
        for first, last in runs_at.get(front, ()):
            if first > subset:
                break
            subset += last - first + 1
        counts, cap = self._counts, self._cap
        for w in (u, v):
            per = counts.get(w)
            if per is None:
                counts[w] = {subset: 1}
            else:
                n = per[subset] = per.get(subset, 0) + 1
                if n == cap:
                    runs = runs_at.get(w)
                    if runs is None:
                        runs_at[w] = [[subset, subset]]
                    elif runs[-1][1] == subset - 1:
                        runs[-1][1] = subset
                    else:
                        _add_run(runs, subset)
        provisional = (subset - 1) * cap + color
        self._log.append((edge.arrival, subset, fields))
        rename = self._rename
        final = rename.get(provisional)
        if final is None:
            final = rename[provisional] = len(rename) + 1
        return final


def _add_run(runs: list[list[int]], x: int) -> None:
    """Put x, which is in no run, into the ascending runs: extend the run
    ending at x - 1, join it to the run starting at x + 1, or start [x, x]."""
    i = bisect(runs, [x])  # the runs before i start below x
    below = runs[i - 1] if i else None
    above = runs[i] if i < len(runs) else None
    if below is not None and below[1] == x - 1:
        if above is not None and above[0] == x + 1:
            below[1] = above[1]
            del runs[i]
        else:
            below[1] = x
    elif above is not None and above[0] == x + 1:
        above[0] = x
    else:
        runs.insert(i, [x, x])


@dataclass
class RunReport:
    """One run's outcome."""

    model: Optional[str]
    mode: Optional[str]
    m: int
    d: Optional[int]
    colors_used: int
    advice_bits_read: int
    per_edge_bits: int
    coloring: Coloring
    chromatic_index: Optional[int] = None
    optimal: Optional[bool] = None


class Referee:
    """The run ledger: each step's color and, per color, the vertices where
    it is present, checked on every step an online algorithm takes.

    Keyed by color, not by vertex: a step probes one set, the one of its
    color, and a vertex gets no container of its own, so the ledger holds
    one set per color and 2m entries in all.  `colors` gains one color per
    step, in step order, and holds no pairs: an EdgeStream is a simple
    graph (see graphs), so no edge is met twice and none is a loop.
    simulate steps in arrival order, and a strict-mode replay stream keeps
    every arrival and pair of the stream it orients, so `colors[i]` is the
    color of the input stream's edge i."""

    def __init__(self) -> None:
        self.colors: list[int] = []
        self.holders: dict[int, set[int]] = {}

    @property
    def colors_used(self) -> int:
        return len(self.holders)

    def colors_at(self, v: int) -> frozenset[int]:
        """The colors on v's edges, in O(colors used)."""
        return frozenset(c for c, at in self.holders.items() if v in at)

    def record(self, edge: Edge, color) -> None:
        """Accept a positive int color that is new at both endpoints; raise
        ImproperColoring otherwise."""
        u, v = edge.u, edge.v
        # bool is an int subclass, but True is not a color
        if type(color) is not int or color < 1:
            raise ImproperColoring(f"edge {edge.pair}: color {color!r} is not a positive int")
        at = self.holders.get(color)
        if at is None:
            self.holders[color] = {u, v}
        elif u in at or v in at:
            raise ImproperColoring(f"edge {edge.pair}: color {color} already present")
        else:
            at.add(u)
            at.add(v)
        self.colors.append(color)


@_collector_paused
def simulate(stream: EdgeStream, alg: OnlineAlgorithm, advice=None) -> RunReport:
    """Reveal edges in arrival order, enforcing properness at every step.

    Advice must be used up by the last edge, an empty stream's too.  The
    report's coloring holds the referee's colors, by arrival, as they are.
    """
    referee = Referee()
    step, record = alg.step, referee.record
    for edge in stream.edges:
        record(edge, step(edge, advice))
    if advice is not None:
        advice.finish()
    return RunReport(
        model=getattr(advice, "model", None),
        mode=getattr(alg, "mode", None),
        m=stream.m,
        d=getattr(alg, "d", None),
        colors_used=referee.colors_used,
        advice_bits_read=getattr(advice, "bits_read", 0),
        per_edge_bits=getattr(alg, "record_length", None) or 0,
        coloring=Coloring(stream.edges, referee.colors),
    )


def run_greedy(stream: EdgeStream) -> RunReport:
    return simulate(stream, Greedy())


@dataclass
class AdviceRun:
    """Full oracle-to-decoder pipeline output."""

    report: RunReport
    oracle: OracleResult
    algorithm: AdviceAlgorithm
    source: RequestSource | TapeSource


@_collector_paused
def verify_run(run: AdviceRun, *, budget: Optional[int] = None) -> list[str]:
    """Check the paper's guarantees on one oracle-to-decoder run: one message
    per violated property, [] when all hold.  A message is led by its
    property: proper, optimal (with max_degree <= chi <= max_degree + 1,
    chi == max_degree once max_degree >= 2d, and chi == max_degree + 1 only
    when exact_color finds no max_degree coloring, by count or by search;
    ResourceLimit past `budget`), bits (exact, with the header on a
    non-empty tape), rank (<= d), bundles (max degree <= 2d) or decoder.
    """
    node_budget(budget)  # refused here even when no search runs
    report, oracle = run.report, run.oracle
    d, m, chi, used = oracle.d, oracle.stream.m, oracle.chromatic_index, report.colors_used
    g = Graph.from_stream(oracle.stream)
    delta, colored, proper = g.max_degree, len(report.coloring), is_proper(g, report.coloring)
    per, read = bits_per_edge(d, oracle.mode), report.advice_bits_read
    expected = m * per + (header_bits(d) if m and report.model == "tape" else 0)
    rank = max((adv.rank for adv in oracle.per_edge if adv.mode == 1), default=0)
    ends = (Counter(w for e in b for w in (e.u, e.v)) for b in oracle.partition.values())
    degree = max((max(at.values(), default=0) for at in ends), default=0)
    planned = [(adv.mode, adv.subset, adv.rank) for adv in oracle.per_edge]
    decoded = [(step.mode, step.subset, step.rank) for step in run.algorithm.decoded]
    diverged = [i for i, (a, b) in enumerate(zip_longest(planned, decoded)) if a != b]
    # chi = delta + 1 needs delta < 2d, and g not delta-colorable
    chi_fits = delta <= chi <= delta + 1 and (
        chi == delta or delta < 2 * d and exact_color(g, delta, budget=budget) is None)
    checks = [
        ("proper", colored == m and proper, f"{colored} of {m} edges colored, no clash: {proper}"),
        ("optimal", used == chi and report.optimal and chi_fits,
         f"{used} colors (optimal: {report.optimal}), chi {chi}, max degree {delta}, d = {d}"),
        ("bits", read == expected and (not m or report.per_edge_bits == per),
         f"read {read} in {report.per_edge_bits}-bit records, expected {expected} in {per}-bit"),
        ("rank", rank <= d, f"a subset record has rank {rank} > d = {d}"),
        ("bundles", degree <= 2 * d, f"a bundle has max degree {degree} > 2d = {2 * d}"),
        ("decoder", not diverged, f"{len(diverged)} edges off the plan, first at {diverged[:1]}"),
    ]
    return [f"{name}: {detail}" for name, ok, detail in checks if not ok]


@_collector_paused
def run_advice(
    stream: EdgeStream,
    d: Optional[int] = None,
    *,
    mode: str = "robust",
    model: str = "request",
    budget: Optional[int] = None,
) -> AdviceRun:
    """Oracle, then decoder, on the stream the oracle says to replay."""
    if model not in ("request", "tape"):
        raise PreconditionViolated(f"unknown advice model {model!r}")
    oracle = build_advice(stream, d, mode=mode, budget=budget)
    source = (RequestSource(oracle.records) if model == "request"
              else TapeSource(encode_tape(oracle.records, oracle.d)))
    alg = AdviceAlgorithm(mode)
    report = simulate(oracle.stream, alg, source)
    report.chromatic_index = oracle.chromatic_index
    report.optimal = report.colors_used == oracle.chromatic_index
    return AdviceRun(report, oracle, alg, source)
