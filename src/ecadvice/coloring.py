"""Offline edge-coloring engines.

exact_color is the ground-truth engine: complete backtracking with a
saturation-first (DSATUR) edge order and first-use color symmetry breaking,
capped by a node budget.  It runs on an explicit stack and keeps each
edge's saturation up to date incrementally, so a search node costs
O(max_degree) and there is no recursion limit on the graph size.  It is
needed only to decide the class of a graph with max_degree < 2*degeneracy
and for the rigidity gadget.

The polynomial constructions need no search: vizing_plus_one gives
max_degree+1 colors, konig_color max_degree colors on a bipartite graph,
and color_degenerate max(max_degree, 2d) colors on a graph of degeneracy
<= d (Vizing's adjacency lemma).  They share one recoloring ledger (per
vertex, a bitmask of the colors present plus a slot naming the edge that
holds each one, so the smallest free color is the lowest zero bit) and its
one alternating-path flip and one fan rotation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import PreconditionViolated, ResourceLimit
from .graphs import Graph, Pair, bipartition, edge_pair, is_proper

DEFAULT_NODE_BUDGET = 10_000_000
_BUDGET_ENV = "ECADVICE_NODE_BUDGET"


def node_budget(budget: Optional[int]) -> int:
    """The search node limit: `budget`, else $ECADVICE_NODE_BUDGET, else the
    default.  A negative limit is a usage error."""
    if budget is None:
        budget = int(os.environ.get(_BUDGET_ENV, DEFAULT_NODE_BUDGET))
    if budget < 0:
        raise PreconditionViolated(f"node budget {budget} is negative")
    return budget


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

    def chain(self, start: int, first: int, second: int) -> tuple[list[tuple[Pair, int]], int]:
        """The alternating first/second path that leaves start on first, as
        (edge, color) steps, and its far end."""
        at = self.at
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
        return path, cur

    def flip(self, start: int, first: int, second: int) -> int:
        """Swap colors first/second along the alternating path that leaves
        start on first; returns the path's far end.  second must be free
        at start."""
        at, color = self.at, self.color
        path, cur = self.chain(start, first, second)
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

    def rotate(self, anchor: int, fan: list[int], c: int) -> None:
        """Color the uncolored edge anchor-fan[0] by rotating a fan prefix.

        Step t of the fan is valid while the color of anchor-fan[t+1] is
        free at fan[t].  Take the shortest valid prefix whose last vertex
        misses c (c must be free at anchor), shift each edge's color one
        step back along it, and give its last edge c.
        """
        used, color = self.used, self.color
        end = -1
        for idx, w in enumerate(fan):
            if not used[w] >> c & 1:
                end = idx
                break
            if idx + 1 < len(fan) and used[w] >> color[edge_pair(anchor, fan[idx + 1])] & 1:
                break
        if end < 0:
            raise AssertionError("fan rotation target missing")
        shifted = [self.unset(edge_pair(anchor, fan[t + 1])) for t in range(end)]
        for t in range(end):
            self.set(edge_pair(anchor, fan[t]), shifted[t])
        self.set(edge_pair(anchor, fan[end]), c)


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
        # a valid fan.
        ledger.rotate(anchor, fan, b)
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


def color_degenerate(g: Graph, d: int) -> Coloring:
    """Proper coloring with colors 1..max(max_degree, 2d) when degeneracy <= d.

    Peel: repeatedly remove an edge xy where deg(y) <= d and x has at most
    k - deg(y) neighbors of degree k, with k = max(max_degree, 2d).  By
    Vizing's adjacency lemma such an edge exists in every graph of
    degeneracy <= d while k >= 2d, so a stuck peel proves the degeneracy
    exceeds d (PreconditionViolated).  Degrees and degree-k counts only
    fall, so an edge once eligible stays eligible, and an edge that is not
    yet eligible is looked at again only when deg(y) falls or x's count
    reaches the value the edge waits for: the peel costs O(m*d).

    Re-add the edges in reverse peel order.  Each takes a color free at
    both ends or is placed by a multi-fan at x rooted at y: when a fan
    vertex shares a free color alpha with x the fan path to it rotates;
    when two fan vertices miss one color beta, the alpha/beta chain is
    flipped from the one that is not the far end of x's chain, and the
    shortest still-valid prefix ending at a vertex missing alpha rotates.
    The same lemma says one of these always applies, so a failure is a bug.
    """
    if d < 0:
        raise PreconditionViolated("d must be nonnegative")
    k = max(g.max_degree, 2 * d)
    nbrs: dict[int, dict[int, Pair]] = {v: {} for v in g.vertices}
    for e in g.edges:
        pair = e.pair
        nbrs[e.u][e.v] = pair
        nbrs[e.v][e.u] = pair
    deg = dict(g.degree)
    major = dict.fromkeys(nbrs, 0)  # neighbors of degree k
    for v, ws in nbrs.items():
        if deg[v] == k:
            for w in ws:
                major[w] += 1

    # todo holds small vertices whose edges may have become eligible; an
    # edge that is not yet eligible waits at x under the count x must fall to.
    todo = [y for y in nbrs if deg[y] <= d]
    waiting: dict[int, dict[int, list[int]]] = {}
    peeled: list[tuple[int, int, Pair]] = []
    while todo:
        y = todo.pop()
        at_y = nbrs[y]
        start = deg[y]
        for x in list(at_y):
            need = k - deg[y]
            if major[x] > need:
                waiting.setdefault(x, {}).setdefault(need, []).append(y)
                continue
            at_x = nbrs[x]
            if deg[x] == k:
                for w in at_x:  # y included: x leaves its neighborhood too
                    major[w] -= 1
                    if w in waiting:
                        todo.extend(waiting[w].pop(major[w], ()))
            peeled.append((x, y, at_x.pop(y)))
            del at_y[x]
            deg[y] -= 1
            deg[x] -= 1
            if deg[x] <= d:
                todo.append(x)
        if at_y and deg[y] < start:
            todo.append(y)  # edges parked above waited for the old deg[y]
    if len(peeled) < g.m:
        raise PreconditionViolated(f"degeneracy exceeds {d}")

    ledger = _Ledger(g, k)
    at, used = ledger.at, ledger.used
    full = (2 << k) - 2  # colors 1..k
    for x, y, pair in reversed(peeled):
        free_x = ~used[x] & full
        both = free_x & ~used[y]
        if both:
            ledger.set(pair, (both & -both).bit_length() - 1)
            continue
        # Grow the multi-fan breadth first: each color missing at a fan
        # vertex names the edge at x that brings in the next vertex.
        parent = {y: y}
        fan = [y]
        missed = 0  # colors missing at the fan vertices seen so far
        at_x = at[x]
        for z in fan:
            mz = ~used[z] & full
            if mz & free_x:
                alpha = (mz & free_x & -(mz & free_x)).bit_length() - 1
                break
            clash = mz & missed
            if clash:
                beta = (clash & -clash).bit_length() - 1
                alpha = (free_x & -free_x).bit_length() - 1
                if ledger.chain(z, alpha, beta)[1] == x:
                    z = next(w for w in fan if not used[w] >> beta & 1)
                ledger.flip(z, alpha, beta)
                break
            missed |= mz
            while mz:
                low = mz & -mz
                mz ^= low
                p = at_x[low.bit_length() - 1]
                w = p[0] if p[1] == x else p[1]
                if w not in parent:
                    parent[w] = z
                    fan.append(w)
        else:
            raise AssertionError(f"maximal multi-fan at {x} breaks the adjacency lemma")
        path = [z]
        while z != y:
            z = parent[z]
            path.append(z)
        path.reverse()
        ledger.rotate(x, path, alpha)
    return Coloring(dict(ledger.color))
