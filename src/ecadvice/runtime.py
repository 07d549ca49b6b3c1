"""Online algorithms, advice sources, and the stream simulator.

The simulator owns the coloring: an algorithm only ever returns a color
for the edge just revealed, properness is re-checked after every step, and
advice consumption is metered by the source.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, NamedTuple, Optional

from .advice import (
    AdviceRecord,
    RecordFields,
    bits_per_edge,
    degeneracy_from_length,
    encode_tape,
    header_bits,
    read_header,
    unpack_record,
)
from .coloring import Coloring, exact_color, node_budget
from .errors import (
    AdviceExhausted,
    ImproperColoring,
    MalformedAdvice,
    MalformedTape,
    PreconditionViolated,
    RecoloringAttempt,
    SelfLoop,
)
from .graphs import Edge, EdgeStream, Graph, Pair, is_proper
from .oracle import OracleResult, build_advice


class RequestSource:
    """Hands out one whole record per edge; bits are counted as delivered."""

    model = "request"

    def __init__(self, records: Iterable[AdviceRecord | str]):
        self._records = [r.bits if isinstance(r, AdviceRecord) else r for r in records]
        self._next = 0
        self.bits_read = 0

    def next_record(self) -> str:
        if self._next >= len(self._records):
            raise AdviceExhausted(f"no record for edge {self._next}")
        bits = self._records[self._next]
        self._next += 1
        self.bits_read += len(bits)
        return bits

    def finish(self) -> None:
        """Raise when records are left over after the last edge."""
        left = len(self._records) - self._next
        if left:
            raise MalformedAdvice(f"{left} records left unread after the last edge")


class TapeSource:
    """Cursor over a single bit string; reads past the end raise."""

    model = "tape"

    def __init__(self, tape: str):
        self._bits = tape
        self._pos = 0
        self.bits_read = 0

    def read(self, k: int) -> str:
        if self._pos + k > len(self._bits):
            raise AdviceExhausted(
                f"requested {k} bits at {self._pos} of {len(self._bits)}"
            )
        out = self._bits[self._pos : self._pos + k]
        self._pos += k
        self.bits_read += k
        return out

    def read_degeneracy(self) -> int:
        d, pos = read_header(self._bits, self._pos)
        self.bits_read += pos - self._pos
        self._pos = pos
        return d

    def finish(self) -> None:
        """Raise when bits are left over after the last edge: a tape one bit
        too long otherwise decodes, shifted, into some other coloring.  An
        empty stream reads nothing, and its tape may hold one header."""
        if not self._pos and self._bits:
            self._pos = read_header(self._bits)[1]  # not metered
        left = len(self._bits) - self._pos
        if left:
            raise MalformedTape(f"{left} bits left unread after the last edge")


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
    """What the decoder extracted for one edge, kept for cross-checks.  A
    named tuple: one is built per edge, and a tuple builds at a third of a
    frozen dataclass's cost.  The decoder builds it with tuple.__new__,
    which skips the named tuple's Python-level __new__ and takes about half
    as long."""

    arrival: int
    mode: int
    subset: Optional[int]
    rank: Optional[int]
    color: int


_new = tuple.__new__


class AdviceAlgorithm(OnlineAlgorithm):
    """Consumes one record per edge and reproduces the oracle's coloring.

    The degeneracy bound is never given out of band: in the request model
    it is recovered from the record length, in the tape model from the
    self-delimiting header.  Subset routing rebuilds the eligible-index set
    from per-vertex counters over previously arrived subset edges, then the
    rank picks the target; this matches the oracle because both only look
    at earlier arrivals around the front endpoint.
    """

    def __init__(self, mode: str = "robust"):
        if mode not in ("strict", "robust"):
            raise PreconditionViolated(f"unknown mode {mode!r}")
        self.mode = mode
        self.d: Optional[int] = None
        self.record_length: Optional[int] = None
        self._counts: dict[int, dict[int, int]] = {}
        # provisional color -> final color, numbered in order of first
        # appearance; a literal record's provisional color is -color, a
        # subset record's (subset - 1) * 2d + color
        self._rename: dict[int, int] = {}
        # record bits -> parsed fields; d and mode are fixed once the first
        # record is read, and a record that fails to parse is never stored
        self._fields: dict[str, RecordFields] = {}
        self.decoded: list[DecodedStep] = []

    def _fetch(self, advice) -> str:
        if advice is None:
            raise AdviceExhausted("advice source required")
        if advice.model == "request":
            bits = advice.next_record()
            if self.d is None:
                self.d = degeneracy_from_length(len(bits), self.mode)
                self.record_length = len(bits)
            return bits
        if self.d is None:
            self.d = advice.read_degeneracy()
            self.record_length = bits_per_edge(self.d, self.mode)
        return advice.read(self.record_length)

    def _locate_subset(self, front: int, rank: int) -> int:
        counts = self._counts.get(front)
        if counts is None:
            return rank + 1  # every subset is open at a vertex not seen yet
        cap = 2 * self.d - 1
        j, seen = 1, 0
        while True:
            if counts.get(j, 0) <= cap:
                if seen == rank:
                    return j
                seen += 1
            j += 1

    def step(self, edge: Edge, advice) -> int:
        bits = self._fetch(advice)
        fields = self._fields.get(bits)
        if fields is None:
            fields = self._fields[bits] = unpack_record(bits, self.d, self.mode)
        mode_flag, front_flag, color, rank = fields
        if mode_flag == 0:
            provisional = -color
            self.decoded.append(_new(DecodedStep, (edge.arrival, 0, None, None, color)))
        else:
            u, v = edge.u, edge.v
            if self.mode == "strict":
                front = u
            elif front_flag == 0:
                front = u if u < v else v
            else:
                front = v if u < v else u
            subset = self._locate_subset(front, rank)
            counts = self._counts
            for w in (u, v):
                per = counts.get(w)
                if per is None:
                    counts[w] = {subset: 1}
                else:
                    per[subset] = per.get(subset, 0) + 1
            provisional = (subset - 1) * 2 * self.d + color
            self.decoded.append(_new(DecodedStep, (edge.arrival, 1, subset, rank, color)))
        rename = self._rename
        final = rename.get(provisional)
        if final is None:
            final = rename[provisional] = len(rename) + 1
        return final


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
    """The run ledger: each edge's color and, per color, the vertices where
    it is present, checked on every step an online algorithm takes.

    Keyed by color, not by vertex: a step probes one set, the one of its
    color, and a vertex gets no container of its own, so the ledger holds
    one set per color and 2m entries in all.  `assignment` gains one pair
    per step, in step order.  simulate steps in arrival order, and a
    strict-mode replay stream keeps every arrival and pair of the stream it
    orients, so a run's colors, read in order, are the colors of the input
    stream's edges in arrival order."""

    def __init__(self) -> None:
        self.assignment: dict[Pair, int] = {}
        self.holders: dict[int, set[int]] = {}

    @property
    def colors_used(self) -> int:
        return len(self.holders)

    def colors_at(self, v: int) -> frozenset[int]:
        """The colors on v's edges, in O(colors used)."""
        return frozenset(c for c, at in self.holders.items() if v in at)

    def record(self, edge: Edge, color) -> None:
        """Accept a positive int color that is new at both endpoints for an
        edge not colored before that joins two distinct vertices; raise
        otherwise."""
        u, v = edge.u, edge.v
        pair = (u, v) if u < v else (v, u)
        # bool is an int subclass, but True is not a color
        if type(color) is not int or color < 1:
            raise ImproperColoring(f"edge {pair}: color {color!r} is not a positive int")
        assignment = self.assignment
        if pair in assignment:
            raise RecoloringAttempt(f"edge {pair} colored twice")
        if u == v:
            raise SelfLoop(f"edge {edge.arrival} joins {u} to itself")
        at = self.holders.get(color)
        if at is None:
            self.holders[color] = {u, v}
        elif u in at or v in at:
            raise ImproperColoring(f"edge {pair}: color {color} already present")
        else:
            at.add(u)
            at.add(v)
        assignment[pair] = color


def simulate(stream: EdgeStream, alg: OnlineAlgorithm, advice=None) -> RunReport:
    """Reveal edges in arrival order, enforcing properness at every step.

    Advice must be used up by the last edge, an empty stream's too.
    """
    referee = Referee()
    for edge in stream.edges:
        referee.record(edge, alg.step(edge, advice))
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
        coloring=Coloring(referee.assignment),
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
    if model == "request":
        source: RequestSource | TapeSource = RequestSource(oracle.records)
    else:
        source = TapeSource(encode_tape(oracle.records, oracle.d))
    alg = AdviceAlgorithm(mode)
    report = simulate(oracle.stream, alg, source)
    report.chromatic_index = oracle.chromatic_index
    report.optimal = report.colors_used == oracle.chromatic_index
    return AdviceRun(report, oracle, alg, source)
