"""Offline edge-coloring engines.

exact_color is the ground-truth engine: complete backtracking with a
saturation-first (DSATUR) edge order and first-use color symmetry breaking,
capped by a node budget.  It runs on an explicit stack and keeps each
edge's saturation up to date incrementally, so a search node costs
O(max_degree) and there is no recursion limit on the graph size.  It has
one job, deciding whether a graph is k-edge-colorable: the class of a
graph with max_degree < 2*degeneracy.  An overfull graph, such as the
joined rigidity gadget (see adversaries), it refutes without search.

The polynomial constructions need no search: konig_color gives
max_degree colors on a bipartite graph, and one peel and re-add engine
(Vizing's adjacency lemma) gives the rest.  It takes the eligibility
threshold and the palette floor apart: _peel_color at threshold d and
floor 2d gives max(max_degree, 2d) colors on a graph of degeneracy <= d
(the oracle's bundles); vizing_plus_one is threshold max_degree and floor
max_degree+1, where the peel cannot get stuck; and with both at
max_degree, a complete peel is a max_degree coloring, the oracle's
class-1 certificate.  They share one recoloring ledger (per vertex index,
a bitmask of the colors present, so the smallest free color is the lowest
zero bit, plus a dict from color c to the edge that holds c while bit c is
set) and its one fan rotation and its one alternating-path flip, the only
walk along a path: a flip that lands where it must not is flipped back.

Every engine works on edge ids and vertex indices (see graphs).  The peel
takes a bare edge list on indices, so the oracle colors all its bundles in
one call, on their disjoint union.  An engine's Coloring keeps the colors
by id in `Coloring.by_id`, which is all the oracle reads, and builds the
pair-keyed assignment only on first access.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import PreconditionViolated, ResourceLimit
from .graphs import Coloring, Graph, two_color

DEFAULT_NODE_BUDGET = 10_000_000


def node_budget(budget: Optional[int]) -> int:
    """The search node limit: `budget`, else the default.  A negative limit
    is a usage error."""
    if budget is None:
        return DEFAULT_NODE_BUDGET
    if budget < 0:
        raise PreconditionViolated(f"node budget {budget} is negative")
    return budget


def exact_color(g: Graph, k: int, *, budget: Optional[int] = None) -> Optional[Coloring]:
    """Search for a proper edge coloring with colors 1..k.

    Returns None when no such coloring exists, before any search node when
    g has more than k*(n//2) edges: a color class is a matching of at most
    n//2 edges.  Colors above the largest one used so far are
    interchangeable, so branching is capped at max_used+1, which keeps the
    search complete while pruning palette permutations.

    Each node colors the uncolored edge whose endpoints already see the most
    distinct colors, ties going to the larger degree sum and then the
    earliest arrival.  That saturation is kept per edge and updated only at
    the edges next to the one being (un)colored, and the search runs on an
    explicit stack, so a node costs O(max_degree) and depth is unbounded.

    Raises ResourceLimit when the node budget is exhausted.
    """
    if k < 0:
        raise PreconditionViolated("k must be nonnegative")
    limit = node_budget(budget)

    if g.m == 0:
        return Coloring.of_ids(g.edges, {})
    if k < g.max_degree or g.m > k * (g.n // 2):
        return None

    # Rank the edges best first by the static tie-break (the sort is stable,
    # so exact ties keep g.edges order).  Rank r is bit r of the saturation
    # buckets, so the lowest bit of a bucket is its preferred edge.
    def rank_key(i: int) -> tuple[int, int]:
        u, v = g.uv[i]
        return g.deg[u] + g.deg[v], -g.edges[i].arrival

    order = sorted(range(g.m), key=rank_key, reverse=True)
    ends = [g.uv[i] for i in order]
    # Per-vertex color sets are bitmasks: bit c set when color c is present.
    used = [0] * g.n
    incident: list[list[tuple[int, int]]] = [[] for _ in used]  # (rank, far end)
    for r, (u, v) in enumerate(ends):
        incident[u].append((r, v))
        incident[v].append((r, u))
    color = [0] * g.m
    sat = [0] * g.m
    # bucket[s]: ranks of uncolored edges with saturation s <= 2*max_degree - 2
    bucket = [0] * (2 * g.max_degree)
    bucket[0] = (1 << g.m) - 1
    top = 0  # no bucket above top is occupied

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
    max_used = 0
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
            cap = min(k, entry + 1)
            # colors nxt..cap that are free at both ends
            options = ~(used[u] | used[v]) & ((2 << cap) - (1 << nxt))
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

    return Coloring.of_ids(g.edges, {order[r]: c for r, _, _, c in stack})


class _Ledger:
    """Recoloring state shared by the König and peel constructions, on edge
    ids and vertex indices: ends[i] the endpoints of edge i, color[i] its
    color (in the order edges got colored), used[v] the colors present at v
    as a bitmask (bit c set when c is present), and at[v][c] the id of the
    edge holding color c at v, valid while bit c of used[v] is set.  Bit 0
    is always set, so the smallest free color at v is the lowest zero bit.
    A stale at[v] entry is overwritten, never deleted, so at[v] holds only
    colors once present at v and the number of slots is linear in the
    number of edges, vertices and recolorings, whatever k is.  The masks
    are not: a vertex holding color c keeps a (c+1)-bit int, so the leaves
    of a star with max_degree D hold about D*D/2 bits in all.  labels[v]
    names v in messages.

    flip is the only walk along an alternating path.  A caller that must
    know the far end first flips, reads the end it returns, and flips the
    path back when it is the wrong one: the reverse flip restores every
    used bit, every slot whose bit is set and the key order of color; only
    stale slots can differ, and none is read."""

    def __init__(self, ends: Sequence[tuple[int, int]], labels: Sequence[int], k: int):
        self.k = k
        self.ends = ends
        self.labels = labels
        self.color: dict[int, int] = {}
        self.used = [1] * len(labels)
        self.at: list[dict[int, int]] = [{} for _ in labels]

    def free(self, v: int) -> int:
        """Smallest color in 1..k absent at v."""
        used = self.used[v]
        c = (~used & (used + 1)).bit_length() - 1
        if c > self.k:
            raise AssertionError(f"palette 1..{self.k} exhausted at vertex {self.labels[v]}")
        return c

    def set(self, i: int, c: int) -> None:
        u, v = self.ends[i]
        self.color[i] = c
        self.at[u][c] = i
        self.at[v][c] = i
        self.used[u] |= 1 << c
        self.used[v] |= 1 << c

    def unset(self, i: int) -> int:
        u, v = self.ends[i]
        c = self.color.pop(i)
        self.used[u] ^= 1 << c
        self.used[v] ^= 1 << c
        return c

    def flip(self, start: int, first: int, second: int) -> int:
        """Swap colors first/second along the alternating path that leaves
        start on first; returns the path's far end.  second must be free
        at start."""
        at, color, ends, used = self.at, self.color, self.ends, self.used
        if not used[start] >> first & 1:
            return start
        # walk and swap in one pass: the used bits change only after the
        # loop, and the far end's slot for the new color names the next
        # edge, so it is read before this edge takes it; each end's old
        # slot goes stale as its used bit clears; color keeps its keys,
        # and its order
        i, cur, new, old = at[start][first], start, second, first
        seen = {start}
        while True:
            u, v = ends[i]
            cur = u if v == cur else v
            if cur in seen:  # paths are simple; a repeat would be a bug
                raise AssertionError("alternating path revisited a vertex")
            seen.add(cur)
            nxt = at[cur][new] if used[cur] >> new & 1 else -1
            color[i] = new
            at[u][new] = i
            at[v][new] = i
            if nxt < 0:
                break
            i, new, old = nxt, old, new
        # inner vertices keep both colors; each end trades one for the other
        used[start] ^= 1 << first | 1 << second
        used[cur] ^= 1 << first | 1 << second
        return cur

    def rotate(self, fan: list[int], ids: list[int], c: int) -> None:
        """Color the uncolored edge ids[0] by rotating a fan prefix.

        ids[t] is the edge from the fan's center to fan[t].  Step t of the
        fan is valid while the color of edge ids[t+1] is free at fan[t].
        Take the shortest valid prefix whose last vertex misses c (c must be
        free at the center), shift each edge's color one step back along
        it, and give its last edge c.
        """
        used, color = self.used, self.color
        end = -1
        for idx, w in enumerate(fan):
            if not used[w] >> c & 1:
                end = idx
                break
            if idx + 1 < len(fan) and used[w] >> color[ids[idx + 1]] & 1:
                break
        if end < 0:
            raise AssertionError("fan rotation target missing")
        shifted = [self.unset(ids[t + 1]) for t in range(end)]
        for t in range(end):
            self.set(ids[t], shifted[t])
        self.set(ids[end], c)


def konig_color(g: Graph) -> Coloring:
    """Exactly max_degree colors on a bipartite graph.

    Each edge either takes a color free at both ends or flips one
    two-colored alternating path to make one free.  Raises NotBipartite.
    """
    two_color(g)  # raises on odd cycles
    ledger = _Ledger(g.uv, g.vertices, g.max_degree)
    used = ledger.used

    for i, (u, v) in enumerate(g.uv):
        a = ledger.free(u)
        b = ledger.free(v)
        if not used[v] >> a & 1:
            c = a
        elif not used[u] >> b & 1:
            c = b
        else:
            # a used at v, b used at u: flip the b/a path from u; in a
            # bipartite graph it cannot reach v, so b becomes free at both.
            if ledger.flip(u, b, a) == v:
                raise AssertionError("alternating path reached the far endpoint")
            c = b
        ledger.set(i, c)
    return Coloring.of_ids(g.edges, ledger.color)


def vizing_plus_one(g: Graph) -> Coloring:
    """Proper coloring with at most max_degree+1 colors in polynomial time.

    The adjacency-lemma peel of _peel_color with every vertex eligible
    and k = max_degree+1: no vertex has degree k, so every edge is eligible
    and the peel never gets stuck (Vizing's theorem).
    """
    color = _peel_color(g.uv, g.vertices, g.max_degree, g.max_degree + 1)
    if color is None:
        raise AssertionError("the max_degree+1 peel got stuck")
    return Coloring.of_ids(g.edges, color)


def _peel_color(
    ends: Sequence[tuple[int, int]], labels: Sequence[int], d: int, floor: int
) -> Optional[dict[int, int]]:
    """Proper coloring with colors 1..k, k = max(max_degree, floor), of the
    graph with edges ends[i] on the vertex indices 0..len(labels)-1, or
    None when the peel gets stuck.  Returns the ledger's id -> color dict,
    in the order the edges got colored; labels[v] names v in messages.

    Peel: repeatedly remove an edge xy where deg(y) <= d and x has at most
    k - deg(y) neighbors of degree k.  Degrees and degree-k counts only
    fall, so an edge once eligible stays eligible, and an edge that is not
    yet eligible is looked at again only when deg(y) falls or x's count
    reaches the value the edge waits for: the peel costs O(m*d).  With
    floor >= 2d it never gets stuck on a graph of degeneracy <= d, so a
    stuck peel there proves the degeneracy exceeds d.

    Re-add the edges in reverse peel order.  Each takes a color free at
    both ends or is placed by a multi-fan at x rooted at y: when a fan
    vertex shares a free color alpha with x the fan path to it rotates;
    when two fan vertices miss one color beta, the alpha/beta chain is
    flipped from the later one; if that flip's path ends at x, it is
    flipped back and the chain is flipped from the first fan vertex missing
    beta instead, and the shortest still-valid prefix ending at a vertex
    missing alpha rotates.
    Vizing's adjacency lemma says one of these always applies to an edge
    that met the peel condition, for any k >= max_degree, so a failure is
    a bug.

    The colors in use are always 1..t for some t: each new color is the
    lowest one free where it is chosen (at both ends, or at x and missing
    at the fan vertex); a flip's alpha is the lowest color free at x and
    its beta is used at x (else an earlier fan vertex would have taken the
    alpha branch), so every smaller color is in use.  A rotation only moves
    colors between edges, and a flip leaves beta on its path's first edge
    while the rotation gives alpha back.

    todo is a stack and a vertex pushes only vertices of its own component,
    so a disjoint union colors each component as it is colored alone, given
    the same k and its vertices and edges in the same relative order.
    """
    nbrs: list[dict[int, int]] = [{} for _ in labels]  # neighbor -> edge id
    for i, (a, b) in enumerate(ends):
        nbrs[a][b] = i
        nbrs[b][a] = i
    deg = [len(at_v) for at_v in nbrs]
    k = max(max(deg, default=0), floor)
    major = [0] * len(deg)  # neighbors of degree k
    for v, at_v in enumerate(nbrs):
        if deg[v] == k:
            for w in at_v:
                major[w] += 1

    # todo holds small vertices whose edges may have become eligible; an
    # edge that is not yet eligible waits at x under the count x must fall to.
    todo = [y for y, dy in enumerate(deg) if dy <= d]
    waiting: dict[int, dict[int, list[int]]] = {}
    peeled: list[tuple[int, int, int]] = []  # (x, y, edge id)
    while todo:
        y = todo.pop()
        at_y = nbrs[y]
        if not at_y:
            continue
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
    if len(peeled) < len(ends):
        return None
    del nbrs, waiting  # drained, but a dict keeps its table: free it for the ledger

    ledger = _Ledger(ends, labels, k)
    at, used = ledger.at, ledger.used
    full = (2 << k) - 2  # colors 1..k
    for x, y, i in reversed(peeled):
        free_x = ~used[x] & full
        both = free_x & ~used[y]
        if both:
            ledger.set(i, (both & -both).bit_length() - 1)
            continue
        # Grow the multi-fan breadth first: each color missing at a fan
        # vertex names the edge at x that brings in the next vertex.
        parent = {y: y}
        via = {y: i}  # fan vertex -> id of its edge to x
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
                if ledger.flip(z, alpha, beta) == x:
                    ledger.flip(z, beta, alpha)  # undo: the path ends at x
                    z = next(w for w in fan if not used[w] >> beta & 1)
                    ledger.flip(z, alpha, beta)
                break
            missed |= mz
            while mz:
                low = mz & -mz
                mz ^= low
                j = at_x[low.bit_length() - 1]
                a, b = ends[j]
                w = a if b == x else b
                if w not in parent:
                    parent[w] = z
                    via[w] = j
                    fan.append(w)
        else:
            raise AssertionError(f"maximal multi-fan at {labels[x]} breaks the adjacency lemma")
        path = [z]
        while z != y:
            z = parent[z]
            path.append(z)
        path.reverse()
        ledger.rotate(path, [via[w] for w in path], alpha)
    return ledger.color
