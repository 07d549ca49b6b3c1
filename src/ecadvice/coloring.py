"""Offline edge-coloring engines.

exact_color is the ground-truth engine: complete backtracking with a
saturation-first (DSATUR) edge order and first-use color symmetry breaking,
capped by a node budget.  It runs on an explicit stack and keeps each
edge's saturation up to date incrementally, so a search node costs
O(max_degree) and there is no recursion limit on the graph size.
vizing_plus_one and konig_color are the polynomial constructions for
max_degree+1 colors and for bipartite graphs.  They share one recoloring
ledger: per vertex, a bitmask of the colors present plus a slot naming the
edge that holds each one, so the smallest free color is the lowest zero
bit.  color_degenerate is a max_degree-coloring witness built on
exact_color.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import PreconditionViolated, ResourceLimit
from .graphs import Graph, Pair, bipartition, degeneracy, edge_pair, is_proper

DEFAULT_NODE_BUDGET = 10_000_000
_BUDGET_ENV = "ECADVICE_NODE_BUDGET"


def node_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    return int(os.environ.get(_BUDGET_ENV, DEFAULT_NODE_BUDGET))


@dataclass(frozen=True)
class Coloring:
    """Proper edge coloring keyed by normalized endpoint pair."""

    assignment: Mapping[Pair, int]

    @property
    def palette(self) -> frozenset[int]:
        return frozenset(self.assignment.values())

    def get(self, pair: Pair) -> Optional[int]:
        return self.assignment.get(pair)

    def __getitem__(self, pair: Pair) -> int:
        return self.assignment[pair]

    def __len__(self) -> int:
        return len(self.assignment)


def exact_color(
    g: Graph,
    k: int,
    *,
    budget: Optional[int] = None,
    fixed: Optional[Mapping[Pair, int]] = None,
    forbidden: Optional[Mapping[Pair, frozenset[int]]] = None,
) -> Optional[Coloring]:
    """Search for a proper edge coloring with colors 1..k.

    Returns None when no such coloring exists.  `fixed` pins colors of some
    edges; `forbidden` excludes per-edge color sets (both used by the gadget
    rigidity check).  Colors above the largest one referenced so far are
    interchangeable, so branching is capped at max_used+1, which keeps the
    search complete while pruning palette permutations.

    Each node colors the uncolored edge whose endpoints already see the most
    distinct colors, ties going to the larger degree sum and then the
    earliest arrival.  That saturation is kept per edge and updated only at
    the edges next to the one being (un)colored, and the search runs on an
    explicit stack, so a node costs O(max_degree) and depth is unbounded.

    Raises PreconditionViolated when a `fixed` or `forbidden` pair is not an
    edge of g, and ResourceLimit when the node budget is exhausted.
    """
    if k < 0:
        raise PreconditionViolated("k must be nonnegative")
    fixed = dict(fixed or {})
    forbidden = {p: frozenset(cs) for p, cs in (forbidden or {}).items()}
    for what, pairs in (("fixed", fixed), ("forbidden", forbidden)):
        for pair in pairs:
            if pair not in g.pairs:
                raise PreconditionViolated(f"{what} pair {pair} not in graph")
    limit = node_budget(budget)

    if g.m == 0:
        return Coloring({})
    if k < g.max_degree:
        return None
    for pair, c in fixed.items():
        if not 1 <= c <= k or c in forbidden.get(pair, frozenset()):
            return None

    # Per-vertex color sets are bitmasks: bit c set when color c is present.
    index = {v: i for i, v in enumerate(g.vertices)}
    used = [0] * len(index)
    assignment: dict[Pair, int] = {}
    for pair, c in fixed.items():
        u, v = index[pair[0]], index[pair[1]]
        if (used[u] | used[v]) >> c & 1:
            return None
        used[u] |= 1 << c
        used[v] |= 1 << c
        assignment[pair] = c

    # Colors referenced by constraints are pinned and excluded from the
    # symmetry cap.
    reserved = max(
        [c for c in fixed.values()] + [c for cs in forbidden.values() for c in cs],
        default=0,
    )

    # Rank the free edges best first by the static tie-break (the sort is
    # stable, so exact ties keep g.edges order).  Rank r is bit r of the
    # saturation buckets, so the lowest bit of a bucket is its preferred edge.
    free = sorted(
        (e for e in g.edges if e.pair not in assignment),
        key=lambda e: (g.degree[e.u] + g.degree[e.v], -e.arrival),
        reverse=True,
    )
    ends = [(index[e.u], index[e.v]) for e in free]
    banned = [
        sum(1 << c for c in forbidden.get(e.pair, ()) if 1 <= c <= k) for e in free
    ]
    incident: list[list[tuple[int, int]]] = [[] for _ in used]  # (rank, far end)
    for r, (u, v) in enumerate(ends):
        incident[u].append((r, v))
        incident[v].append((r, u))
    color = [0] * len(free)
    sat = [(used[u] | used[v]).bit_count() for u, v in ends]
    # bucket[s]: ranks of uncolored edges with saturation s <= 2*max_degree - 2
    bucket = [0] * (2 * g.max_degree)
    for r, s in enumerate(sat):
        bucket[s] |= 1 << r
    top = max(sat, default=0)  # no bucket above top is occupied

    def recount(r: int, c: int, step: int) -> None:
        """Move the uncolored edges next to r as color c comes or goes there."""
        nonlocal top
        for x in ends[r]:
            for f, w in incident[x]:
                if color[f] or used[w] >> c & 1:
                    continue
                s = sat[f]
                sat[f] = s + step
                bit = 1 << f
                bucket[s] ^= bit
                bucket[s + step] |= bit
                if s + step > top:
                    top = s + step

    # Frames are [rank, next color to try, max_used on entry, color held].
    stack: list[list[int]] = []
    max_used = max(assignment.values(), default=0)
    nodes = 0
    while True:
        while top and not bucket[top]:
            top -= 1
        pool = bucket[top]
        if not pool:
            break
        r = (pool & -pool).bit_length() - 1
        nodes += 1
        if nodes > limit:
            raise ResourceLimit(f"exact search exceeded {limit} nodes")
        bucket[top] = pool ^ (1 << r)
        frame = [r, 1, max_used, 0]
        stack.append(frame)
        while True:
            r, nxt, entry, held = frame
            u, v = ends[r]
            if held:
                used[u] ^= 1 << held
                used[v] ^= 1 << held
                recount(r, held, -1)
                color[r] = 0
            cap = min(k, max(entry, reserved) + 1)
            # colors nxt..cap that are free at both ends and not banned here
            options = ~(used[u] | used[v] | banned[r]) & ((2 << cap) - (1 << nxt))
            if options:
                c = (options & -options).bit_length() - 1
                used[u] |= 1 << c
                used[v] |= 1 << c
                color[r] = c
                recount(r, c, 1)
                frame[1] = c + 1
                frame[3] = c
                max_used = max(entry, c)
                break
            s = sat[r]
            bucket[s] |= 1 << r
            if s > top:
                top = s
            stack.pop()
            if not stack:
                return None
            frame = stack[-1]

    for r, _, _, c in stack:
        assignment[free[r].pair] = c
    return Coloring(assignment)


class _Ledger:
    """Recoloring state shared by the fan and König constructions: each
    edge's color, at[v][c] the edge holding color c at v, and used[v] the
    same colors as a bitmask (bit c set when c is present at v).  Bit 0 is
    always set, so the smallest free color at v is the lowest zero bit."""

    def __init__(self, g: Graph, k: int):
        self.k = k
        self.color: dict[Pair, int] = {}
        self.at: dict[int, dict[int, Pair]] = {v: {} for v in g.vertices}
        self.used: dict[int, int] = dict.fromkeys(g.vertices, 1)

    def free(self, v: int) -> int:
        """Smallest color in 1..k absent at v."""
        used = self.used[v]
        c = (~used & (used + 1)).bit_length() - 1
        if c > self.k:
            raise AssertionError(f"palette 1..{self.k} exhausted at vertex {v}")
        return c

    def set(self, pair: Pair, c: int) -> None:
        u, v = pair
        self.color[pair] = c
        self.at[u][c] = pair
        self.at[v][c] = pair
        self.used[u] |= 1 << c
        self.used[v] |= 1 << c

    def unset(self, pair: Pair) -> int:
        u, v = pair
        c = self.color.pop(pair)
        del self.at[u][c]
        del self.at[v][c]
        self.used[u] ^= 1 << c
        self.used[v] ^= 1 << c
        return c

    def flip(self, start: int, first: int, second: int) -> int:
        """Swap colors first/second along the alternating path that leaves
        start on first; returns the path's far end.  second must be free
        at start."""
        at, color = self.at, self.color
        cur, want = start, first
        path: list[tuple[Pair, int]] = []
        seen = {start}
        while want in at[cur]:
            pair = at[cur][want]
            path.append((pair, want))
            cur = pair[0] if pair[1] == cur else pair[1]
            if cur in seen:  # paths are simple; a repeat would be a bug
                raise AssertionError("alternating path revisited a vertex")
            seen.add(cur)
            want = second if want == first else first
        # clear the path's slots first; color keeps its keys, and its order
        for (u, v), old in path:
            del at[u][old]
            del at[v][old]
        for pair, old in path:
            new = second if old == first else first
            color[pair] = new
            at[pair[0]][new] = pair
            at[pair[1]][new] = pair
        # inner vertices keep both colors; each end trades one for the other
        if path:
            self.used[start] ^= 1 << first | 1 << second
            self.used[cur] ^= 1 << first | 1 << second
        return cur


def vizing_plus_one(g: Graph, *, check: bool = False) -> Coloring:
    """Proper coloring with at most max_degree+1 colors in polynomial time.

    Fan recoloring: each uncolored edge grows a maximal fan around one
    endpoint, a two-color alternating path is flipped, and a prefix of the
    fan is rotated.  `check` re-verifies properness after every edge (used
    by tests).
    """
    k = g.max_degree + 1
    ledger = _Ledger(g, k)
    color, at, used = ledger.color, ledger.at, ledger.used

    for e in g.edges:
        anchor, tip = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        at_anchor = at[anchor]
        # Maximal fan: each next edge's color is free at the previous vertex;
        # among the candidates the smallest label wins.
        fan = [tip]
        in_fan = {tip}
        while True:
            candidate = None
            options = used[anchor] & ~used[fan[-1]]
            while options:
                low = options & -options
                options ^= low
                pair = at_anchor[low.bit_length() - 1]
                z = pair[0] if pair[1] == anchor else pair[1]
                if z not in in_fan and (candidate is None or z < candidate):
                    candidate = z
            if candidate is None:
                break
            fan.append(candidate)
            in_fan.add(candidate)
        a = ledger.free(anchor)
        b = ledger.free(fan[-1])
        if used[anchor] >> b & 1:
            ledger.flip(anchor, b, a)
        # Some prefix of the fan now ends at a vertex missing b and is still
        # a valid fan.  A prefix stays valid up to the first step whose color
        # is no longer free at its vertex; rotate the shortest valid prefix
        # whose last vertex misses b, and finish with b.
        chosen = -1
        for idx, w in enumerate(fan):
            if not used[w] >> b & 1:
                chosen = idx
                break
            if idx + 1 < len(fan) and used[w] >> color[edge_pair(anchor, fan[idx + 1])] & 1:
                break
        if chosen < 0:
            raise AssertionError("fan rotation target missing")
        shifted = [ledger.unset(edge_pair(anchor, fan[t + 1])) for t in range(chosen)]
        for t in range(chosen):
            ledger.set(edge_pair(anchor, fan[t]), shifted[t])
        ledger.set(edge_pair(anchor, fan[chosen]), b)
        if check and not is_proper(g, color):
            raise AssertionError("fan step broke properness")
    return Coloring(dict(color))


def konig_color(g: Graph) -> Coloring:
    """Exactly max_degree colors on a bipartite graph.

    Each edge either takes a color free at both ends or flips one
    two-colored alternating path to make one free.  Raises NotBipartite.
    """
    bipartition(g)  # raises on odd cycles
    ledger = _Ledger(g, g.max_degree)
    used = ledger.used

    for e in g.edges:
        u, v = e.u, e.v
        a = ledger.free(u)
        b = ledger.free(v)
        if a == b:
            c = a
        elif not used[v] >> a & 1:
            c = a
        elif not used[u] >> b & 1:
            c = b
        else:
            # a used at v, b used at u: flip the b/a path from u; in a
            # bipartite graph it cannot reach v, so b becomes free at both.
            if ledger.flip(u, b, a) == v:
                raise AssertionError("alternating path reached the far endpoint")
            c = b
        ledger.set(e.pair, c)
    return Coloring(dict(ledger.color))


def color_degenerate(g: Graph, d: int, *, budget: Optional[int] = None) -> Coloring:
    """Executable witness that degeneracy <= d and max_degree >= 2d force a
    max_degree coloring; delegates to exact_color."""
    dgn, _ = degeneracy(g)
    if dgn > d:
        raise PreconditionViolated(f"degeneracy {dgn} exceeds {d}")
    if g.max_degree < 2 * d:
        raise PreconditionViolated(f"max degree {g.max_degree} below {2 * d}")
    coloring = exact_color(g, g.max_degree, budget=budget)
    if coloring is None:
        raise AssertionError("max_degree coloring must exist here")
    return coloring
