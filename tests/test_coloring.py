import hashlib
import itertools
import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecadvice.coloring
from ecadvice import (
    Edge,
    Graph,
    NotBipartite,
    PreconditionViolated,
    ResourceLimit,
    build_coupled_pair,
    build_partition,
    degeneracy,
    exact_color,
    gen_bipartite,
    gen_d_degenerate,
    gen_star,
    is_bipartite,
    is_proper,
    konig_color,
    optimal_coloring,
    vizing_plus_one,
)
from ecadvice.coloring import Coloring, _Ledger, _peel_color
from ecadvice.graphs import two_color

from .conftest import (
    biclique_pairs,
    brute_force_chromatic_index,
    brute_force_colorable,
    checked_vizing,
    complete_pairs,
    cycle_pairs,
    gnp_pairs,
    graph,
    path_pairs,
    petersen_pairs,
    random_pair_lists,
    star_pairs,
)

# fixed small corpus shared by the engine cross-checks (m <= 14 each)
CORPUS = [
    path_pairs(1),
    path_pairs(4),
    path_pairs(7),
    cycle_pairs(3),
    cycle_pairs(4),
    cycle_pairs(5),
    cycle_pairs(6),
    cycle_pairs(7),
    star_pairs(3),
    star_pairs(6),
    complete_pairs(4),
    biclique_pairs(2, 3),
    biclique_pairs(3, 3),
    petersen_pairs()[:10],
    complete_pairs(4) + [(0, 4), (4, 5)],  # K4 with a tail
]


def product_colorable(g: Graph, k: int) -> bool:
    """Literal scan of all k^m assignments; only for the tiniest graphs."""
    for combo in itertools.product(range(1, k + 1), repeat=g.m):
        if is_proper(g, {e.pair: c for e, c in zip(g.edges, combo)}):
            return True
    return g.m == 0


@pytest.mark.parametrize("pairs", [p for p in CORPUS if len(p) <= 6])
def test_brute_force_matches_literal_product(pairs):
    g = graph(pairs)
    for k in range(1, 4):
        assert brute_force_colorable(g, k) == product_colorable(g, k)


@pytest.mark.parametrize("pairs", CORPUS)
def test_exact_color_matches_brute_force(pairs):
    g = graph(pairs)
    chi = brute_force_chromatic_index(g)
    for k in range(max(1, chi - 1), g.max_degree + 2):
        witness = exact_color(g, k)
        assert (witness is not None) == (k >= chi)
        if witness is not None:
            assert is_proper(g, witness)
            assert len(witness.palette) <= k


def test_chromatic_index_frozen_values():
    assert optimal_coloring(graph(complete_pairs(4)))[0] == 3
    assert optimal_coloring(graph(cycle_pairs(5)))[0] == 3  # odd cycle is class 2
    assert optimal_coloring(graph(cycle_pairs(6)))[0] == 2
    assert optimal_coloring(graph(star_pairs(7)))[0] == 7
    assert optimal_coloring(graph(petersen_pairs()))[0] == 4  # classic class-2 cubic graph


def test_chromatic_index_empty():
    assert optimal_coloring(Graph(()))[0] == 0
    col = exact_color(Graph(()), 0)
    assert col is not None and len(col) == 0 and col.by_id == []
    assert col.palette == frozenset() and col.assignment == {}


@pytest.mark.parametrize("pairs", CORPUS)
def test_chromatic_index_matches_brute_force(pairs):
    g = graph(pairs)
    assert optimal_coloring(g)[0] == brute_force_chromatic_index(g)


def _d5_bundle():
    # A 202-edge bundle with max degree 2d = 14 (d = 7 after padding): the
    # edges that the search's max-degree witness colors above delta - 14.
    # Built here rather than read off the oracle, whose constructive
    # colorings cut a different bundle.
    g = Graph.from_stream(gen_d_degenerate(65, 5, 3))
    witness = exact_color(g, g.max_degree)
    return Graph([e for e in g.edges if witness[e.pair] > g.max_degree - 14]), 14


def _joined_pair(n):
    # the rigidity gadget with its pendant leaves joined (see rigidity_check)
    stream, e_l, e_r = build_coupled_pair(n)
    last = Edge(e_l.u, e_r.v, e_r.arrival)
    return Graph(stream.edges[:-1] + (last,))


def _plus_disjoint_edges(g, count):
    # g plus `count` new edges on new vertices: the max degree (when >= 1)
    # and the chromatic index stay, and each edge adds one to the
    # k*(n//2) edges that k color classes can hold
    top = max(g.vertices, default=0)
    late = max((e.arrival for e in g.edges), default=-1)
    extra = [Edge(top + 2 * i + 1, top + 2 * i + 2, late + i + 1) for i in range(count)]
    return Graph(g.edges + tuple(extra))


# (instance builder, nodes the search spends to finish, colorable); the
# counts are pinned so that node accounting, and with it every budget
# verdict, cannot drift.  The joined pair is overfull, so it carries one
# disjoint edge (two more vertices) to make the search, not the count,
# refute it; the search spends what it spent on the joined pair alone.
BUDGET_CASES = {
    "petersen-k3": (lambda: (graph(petersen_pairs()), 3), 30, False),
    "d5-bundle": (_d5_bundle, 202, True),
    **{f"joined-pair-n{n}-plus-edge":
       (lambda n=n: (_plus_disjoint_edges(_joined_pair(n), 1), n + 1), nodes, False)
       for n, nodes in [(1, 5), (2, 16), (3, 200), (4, 14_046)]},
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_exact_color_budget_trips(case):
    make, nodes, colorable = BUDGET_CASES[case]
    g, k = make()
    with pytest.raises(ResourceLimit):
        exact_color(g, k, budget=nodes - 1)
    witness = exact_color(g, k, budget=nodes)
    assert (witness is not None) == colorable


def test_exact_color_refutes_an_overfull_graph_without_search():
    for n in range(61):
        joined = _joined_pair(n)
        assert joined.m == (n + 1) * (joined.n // 2) + 1
        assert exact_color(joined, n + 1, budget=0) is None


def test_negative_budget_is_refused_on_an_overfull_graph():
    with pytest.raises(PreconditionViolated):
        exact_color(graph(complete_pairs(5)), 4, budget=-1)


def test_exact_color_has_no_depth_limit():
    g = graph(path_pairs(5000))
    col = exact_color(g, 2)
    assert col is not None and is_proper(g, col) and len(col.palette) == 2


@given(random_pair_lists(max_vertices=8, max_edges=10))
@settings(max_examples=60)
def test_exact_color_agrees_with_brute_force_random(pairs):
    g = graph(pairs)
    if g.m == 0:
        return
    chi = brute_force_chromatic_index(g)
    assert exact_color(g, chi) is not None
    if chi > 1:
        assert exact_color(g, chi - 1) is None


@pytest.mark.parametrize("pairs,expected", [(cycle_pairs(5), 3), (star_pairs(5), 5)])
def test_vizing_frozen(pairs, expected):
    g = graph(pairs)
    col = checked_vizing(g)
    assert is_proper(g, col)
    assert len(col.palette) == expected


@given(random_pair_lists(max_vertices=14, max_edges=20))
@settings(max_examples=80)
def test_vizing_proper_within_delta_plus_one(pairs):
    g = graph(pairs)
    if g.m == 0:
        return
    col = checked_vizing(g)
    assert is_proper(g, col)
    assert len(col) == g.m
    assert len(col.palette) <= g.max_degree + 1
    assert max(col.palette) <= g.max_degree + 1
    assert col.palette == frozenset(range(1, len(col.palette) + 1))


def test_vizing_on_sparse_random_graph():
    g = graph(gnp_pairs(200, 0.05, 11))
    col = checked_vizing(g)
    assert is_proper(g, col) and len(col) == g.m
    assert len(col.palette) <= g.max_degree + 1


@pytest.mark.parametrize("k", range(2, 13))
def test_vizing_on_complete_graphs(k):
    g = graph(complete_pairs(k))
    col = checked_vizing(g)
    assert is_proper(g, col) and len(col) == g.m
    assert len(col.palette) <= g.max_degree + 1
    if k % 2:
        # K_k with k odd is overfull, so it needs every one of them
        assert len(col.palette) == g.max_degree + 1


@pytest.mark.parametrize("n,p,seed", [(60, 0.3, 0), (100, 0.5, 1), (150, 0.4, 2)])
def test_vizing_on_dense_random_graphs(n, p, seed):
    g = graph(gnp_pairs(n, p, seed))
    col = vizing_plus_one(g)
    assert is_proper(g, col) and len(col) == g.m
    assert len(col.palette) <= g.max_degree + 1
    assert col.palette == frozenset(range(1, len(col.palette) + 1))


@st.composite
def peel_graphs(draw):
    """Random, complete and dense G(n, p) graphs."""
    kind = draw(st.sampled_from(["random", "complete", "dense"]))
    if kind == "random":
        return graph(draw(random_pair_lists(max_vertices=14, max_edges=40)))
    if kind == "complete":
        return graph(complete_pairs(draw(st.integers(min_value=2, max_value=12))))
    n = draw(st.integers(min_value=4, max_value=40))
    p = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    return graph(gnp_pairs(n, p, draw(st.integers(min_value=0, max_value=10_000))))


@given(peel_graphs())
@settings(max_examples=150, deadline=None)
def test_complete_max_degree_peel_is_a_max_degree_coloring(g):
    color = _peel_color(g.uv, g.vertices, g.max_degree, g.max_degree)
    if len(set(g.deg)) == 1:
        assert color is None  # on a regular graph the peel cannot start
    if color is None:
        return
    col = Coloring(g.edges, color)
    assert is_proper(g, col) and len(col) == g.m
    assert col.palette <= frozenset(range(1, g.max_degree + 1))


@pytest.mark.parametrize("seed", range(3))
def test_max_degree_peel_colors_dense_random_graphs(seed):
    g = graph(gnp_pairs(60, 0.4, seed))
    color = _peel_color(g.uv, g.vertices, g.max_degree, g.max_degree)
    assert color is not None
    col = Coloring(g.edges, color)
    assert is_proper(g, col) and len(col) == g.m
    assert col.palette == frozenset(range(1, g.max_degree + 1))


def test_konig_even_cycle_and_biclique():
    col = konig_color(graph(cycle_pairs(6)))
    assert len(col.palette) == 2
    col = konig_color(graph(biclique_pairs(3, 3)))
    assert len(col.palette) == 3


def test_konig_rejects_odd_cycle():
    with pytest.raises(NotBipartite):
        konig_color(graph(cycle_pairs(5)))


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=60)
def test_konig_uses_exactly_delta(a, b, seed):
    g = Graph.from_stream(gen_bipartite(a, b, 0.6, seed))
    if g.m == 0:
        return
    col = konig_color(g)
    assert is_proper(g, col) and len(col) == g.m
    assert len(col.palette) == g.max_degree


def peel(g: Graph, d: int) -> Optional[Coloring]:
    """The peel at threshold d and floor 2d, as the oracle colors its
    bundles; None when it gets stuck."""
    color = _peel_color(g.uv, g.vertices, d, 2 * d)
    return None if color is None else Coloring(g.edges, color)


def test_color_degenerate_star():
    g = graph(star_pairs(4))
    col = peel(g, 1)
    assert is_proper(g, col)
    assert len(col.palette) == 4


def test_exact_color_rejects_negative_k():
    with pytest.raises(PreconditionViolated):
        exact_color(graph(path_pairs(2)), -1)


def test_color_degenerate_preconditions():
    # degeneracy above the claimed bound: the peel gets stuck
    assert peel(graph(complete_pairs(4)), 1) is None


def test_color_degenerate_below_twice_d_uses_2d_palette():
    # C5 has degeneracy 2 and max degree 2 < 2d: the palette is 1..2d = 1..4
    g = graph(cycle_pairs(5))
    col = peel(g, 2)
    assert is_proper(g, col) and len(col) == g.m
    assert max(col.palette) <= 4


@st.composite
def hubbed_graphs(draw):
    """Small random graphs, some with one extra vertex joined to many others."""
    pairs = draw(random_pair_lists(max_vertices=7, max_edges=10))
    if draw(st.booleans()):
        n = 1 + max((v for pair in pairs for v in pair), default=1)
        spokes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        # spokes arrive first, so the brute force refutes fewer colors quickly
        pairs = [(n, v) for v in spokes] + pairs
    return graph(pairs)


@given(hubbed_graphs())
@settings(max_examples=120, deadline=None)
def test_color_degenerate_matches_brute_force(g):
    if g.m == 0:
        return
    dgn, _ = degeneracy(g)
    assert peel(g, dgn - 1) is None
    for d in range(dgn, dgn + 3):
        col = peel(g, d)
        assert is_proper(g, col) and len(col) == g.m
        assert col.palette <= set(range(1, max(g.max_degree, 2 * d) + 1))
        assert col.palette == frozenset(range(1, len(col.palette) + 1))
        if g.max_degree >= 2 * d:
            assert len(col.palette) == brute_force_chromatic_index(g) == g.max_degree


@st.composite
def bundled_graphs(draw):
    """(g, d) with max_degree >= 2d: a d-degenerate graph, or a star wide
    enough to split into hundreds of bundles."""
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=4))
        n = draw(st.integers(min_value=20, max_value=120))
        return Graph.from_stream(gen_d_degenerate(n, d, draw(st.integers(0, 10_000)))), d
    d = draw(st.integers(min_value=1, max_value=2))
    return Graph.from_stream(gen_star(draw(st.integers(min_value=400, max_value=800)))), d


@given(bundled_graphs())
@settings(max_examples=80, deadline=None)
def test_one_peel_colors_each_bundle_as_alone(gd):
    # build_partition colors all bundles in one peel of their disjoint
    # union; each must get exactly the coloring the peel gives it alone
    g, d = gd
    if g.max_degree < 2 * d:
        return
    _, order = degeneracy(g)
    colors = optimal_coloring(g, budget=0)[1].by_id
    b = g.max_degree % (2 * d)  # colors 1..b stay literal, as in build_advice
    plan, partition = build_partition(g, d, order, [i for i, c in enumerate(colors) if c > b])
    assert sorted(partition) == list(range(1, len(partition) + 1))
    for j, sub in partition.items():
        ref = peel(Graph(sub), d)
        assert [plan[e.arrival].color for e in sub] == ref.by_id, j
        assert all(plan[e.arrival].subset == j for e in sub)


def tight_pairs(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """A d-degenerate graph packed with degree-2d vertices: each new vertex
    joins the d earlier vertices of highest degree below 2d."""
    rng = random.Random(seed)
    degree = [0] * n
    pairs = []
    for i in range(1, n):
        below = [j for j in range(i) if degree[j] < 2 * d]
        below.sort(key=lambda j: (-degree[j], rng.random()))
        for j in below[:d]:
            pairs.append((j, i))
            degree[i] += 1
            degree[j] += 1
    rng.shuffle(pairs)
    return pairs


# sha256 of the repr of each instance's by_id list, in seed order
TIGHT_DIGEST = {
    1: "25ddb4d9dae2891c7ed6cc065cb6796f66eaa45e4aae84f51c53091ef9bacc82",
    2: "ffb892d2743899e4055191ef963daad8fa6b218b835f8817245b7ceaaa501a45",
    3: "9cbe6f953a4b277ba481283fe159062806fffb3c2f8173ea2ceda299b76fcd53",
    4: "16bd4913b94bb7b456950fd25e94e8c06456661b1a88193946e7aa60cfe94b53",
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_color_degenerate_tight_graphs(d):
    # max degree 2d with many vertices at it: long multi-fans and Kempe
    # flips, including chains that end at the fan's center (93 of those
    # flips are undone at d = 3, 100 at d = 4); the digest pins the colors
    digest = hashlib.sha256()
    for seed in range(150):
        g = graph(tight_pairs(20 + seed % 40, d, seed))
        col = peel(g, d)
        assert is_proper(g, col) and len(col) == g.m, seed
        assert max(col.palette) <= 2 * d, seed
        digest.update(repr(col.by_id).encode())
    assert digest.hexdigest() == TIGHT_DIGEST[d]


@given(st.integers(min_value=6, max_value=40), st.integers(min_value=0, max_value=300))
@settings(max_examples=40)
def test_color_degenerate_random_forests(n, seed):
    from ecadvice import gen_forest

    g = Graph.from_stream(gen_forest(n, seed))
    if g.max_degree < 2:
        return
    col = peel(g, 1)
    assert is_proper(g, col)
    assert len(col.palette) == g.max_degree


@given(st.integers(min_value=4, max_value=24), st.integers(min_value=0, max_value=300))
@settings(max_examples=30)
def test_chromatic_index_random_degenerate(n, seed):
    g = Graph.from_stream(gen_d_degenerate(n, 2, seed))
    if g.m == 0:
        return
    chi = optimal_coloring(g)[0]
    assert chi in (g.max_degree, g.max_degree + 1)
    witness = exact_color(g, chi)
    assert witness is not None and is_proper(g, witness)


def test_overfull_certificate_agrees_with_exact_search():
    # an overfull graph is class 2, so it needs no search budget; the search
    # agrees on the same graph plus enough disjoint edges to undo the excess,
    # which keeps its class
    overfull = 0
    for n in range(5, 10):
        for d in range(3, 6):
            for seed in range(4):
                g = Graph.from_stream(gen_d_degenerate(n, d, seed))
                delta = g.max_degree
                colorable = exact_color(g, delta) is not None
                assert optimal_coloring(g)[0] == (delta if colorable else delta + 1)
                excess = g.m - delta * (g.n // 2)
                if excess > 0:
                    overfull += 1
                    assert not colorable
                    assert optimal_coloring(g, budget=0)[0] == delta + 1
                    wider = _plus_disjoint_edges(g, excess)
                    assert wider.max_degree == delta
                    assert wider.m <= delta * (wider.n // 2)
                    assert exact_color(wider, delta) is None
    assert overfull >= 10


def test_class_decision_agrees_with_exact_search():
    # graphs that are not bipartite and have max_degree < 2*degeneracy: the
    # peel, the max_degree+1 coloring or exact_color decides chi, and it
    # must be what exact_color alone decides
    decided = 0
    for n in range(4, 10):
        for d in range(2, 7):
            for seed in range(10):
                g = Graph.from_stream(gen_d_degenerate(n, d, seed))
                if is_bipartite(g) or g.max_degree >= 2 * degeneracy(g)[0]:
                    continue
                decided += 1
                delta = g.max_degree
                chi, col = optimal_coloring(g)
                assert chi == (delta if exact_color(g, delta) is not None else delta + 1)
                assert is_proper(g, col) and len(col) == g.m
                assert col.palette == frozenset(range(1, chi + 1))
    assert decided >= 100


# A reference copy of the König pass as it stood before the ledger kept
# bitmasks: dict slots only, and colors scanned 1..k.


class _SlotLedger:
    def __init__(self, g, k):
        self.k = k
        self.color = {}
        self.at = {v: {} for v in g.vertices}

    def free(self, v):
        at = self.at[v]
        for c in range(1, self.k + 1):
            if c not in at:
                return c
        raise AssertionError("palette exhausted")

    def set(self, pair, c):
        self.color[pair] = c
        self.at[pair[0]][c] = pair
        self.at[pair[1]][c] = pair

    def flip(self, start, first, second):
        at = self.at
        cur, want = start, first
        path = []
        while want in at[cur]:
            pair = at[cur][want]
            path.append((pair, want))
            cur = pair[0] if pair[1] == cur else pair[1]
            want = second if want == first else first
        for (u, v), old in path:
            del at[u][old]
            del at[v][old]
        for pair, old in path:
            self.set(pair, second if old == first else first)
        return cur


def _slot_konig(g):
    two_color(g)
    ledger = _SlotLedger(g, g.max_degree)
    at = ledger.at
    for e in g.edges:
        u, v = e.u, e.v
        a = ledger.free(u)
        b = ledger.free(v)
        if a == b or a not in at[v]:
            c = a
        elif b not in at[u]:
            c = b
        else:
            ledger.flip(u, b, a)
            c = b
        ledger.set(e.pair, c)
    return dict(ledger.color)


@st.composite
def ledger_graphs(draw):
    """Random graphs, stars, bicliques and d-degenerate streams, with the
    labels, the arrival order and each edge's listed endpoint shuffled."""
    kind = draw(st.sampled_from(["random", "star", "biclique", "degenerate"]))
    if kind == "random":
        pairs = draw(random_pair_lists(max_vertices=14, max_edges=40))
    elif kind == "star":
        pairs = star_pairs(draw(st.integers(min_value=1, max_value=12)))
    elif kind == "biclique":
        a = draw(st.integers(min_value=1, max_value=6))
        pairs = biclique_pairs(a, draw(st.integers(min_value=1, max_value=6)))
    else:
        n = draw(st.integers(min_value=2, max_value=30))
        d = draw(st.integers(min_value=1, max_value=5))
        s = gen_d_degenerate(n, d, draw(st.integers(min_value=0, max_value=10_000)))
        pairs = [(e.u, e.v) for e in s.edges]
    labels = draw(st.permutations(range(40)))
    pairs = draw(st.permutations(pairs))
    swap = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph(
        [(labels[v], labels[u]) if t else (labels[u], labels[v]) for (u, v), t in zip(pairs, swap)]
    )


def assert_ledger_consistent(ledger, k, n):
    """The finished ledger has a color for each edge id, none of them 0, and
    a slot table and a mask for each of the graph's n vertices.  For every
    vertex, the used bits are exactly the colors of its edges (plus bit 0),
    and each set bit's slot names the edge holding that color there; a slot
    whose bit is clear may be stale, but only for a color in 1..k, the
    palette of the engine that built the ledger."""
    assert len(ledger.color) == len(ledger.ends) and 0 not in ledger.color
    held = [{} for _ in ledger.used]  # per vertex index: color -> edge id
    for i, c in enumerate(ledger.color):
        for v in ledger.ends[i]:
            assert c not in held[v]
            held[v][c] = i
    assert len(ledger.at) == len(ledger.used) == n
    for v, slots in enumerate(ledger.at):
        assert ledger.used[v] == sum(1 << c for c in held[v]) | 1
        assert set(slots) <= set(range(1, k + 1))
        for c in range(1, k + 1):
            if ledger.used[v] >> c & 1:
                i = slots[c]
                assert ledger.color[i] == c and v in ledger.ends[i]


def test_engine_coloring_builds_its_pairs_on_first_access():
    g = graph([(7, 3), (3, 9), (9, 7)])
    col = Coloring(g.edges, [1, 2, 3])
    assert col.by_id == [1, 2, 3]
    assert len(col) == 3 and col.palette == {1, 2, 3}
    assert col._assignment is None  # palette and len read by_id
    assert list(col.assignment.items()) == [((3, 7), 1), ((3, 9), 2), ((7, 9), 3)]
    # equal pair-keyed views are equal colorings, whatever the edge order
    assert col == Coloring(graph([(9, 7), (7, 3), (3, 9)]).edges, [3, 1, 2])
    assert col != Coloring(g.edges, [1, 3, 2])
    assert col != col.assignment  # a Coloring equals only a Coloring
    assert repr(Coloring((Edge(2, 1, 0),), [1])) == "Coloring(assignment={(1, 2): 1})"
    with pytest.raises(TypeError):  # no pair-keyed constructor
        Coloring({(1, 2): 1})
    with pytest.raises(TypeError):  # and no coloring order
        Coloring(g.edges, [1, 2, 3], [2, 0, 1])

    # Every engine colors by edge id, so its pairs come in id order.  The
    # corpus takes optimal_coloring through König (paths, even cycles,
    # stars, bicliques), the max_degree peel (K4 with a tail), the
    # max_degree+1 coloring landing on max_degree colors (K4) and the class-2
    # max_degree+1 coloring (odd cycles, the Petersen prefix).
    for pairs in CORPUS:
        g = graph(pairs)
        delta = g.max_degree
        colorings = [
            vizing_plus_one(g),
            exact_color(g, delta + 1),
            peel(g, degeneracy(g)[0]),  # as the oracle colors a bundle
            optimal_coloring(g)[1],
        ]
        if is_bipartite(g):
            colorings.append(konig_color(g))
        for col in colorings:
            assert len(col.by_id) == g.m and 0 not in col.by_id, pairs
            assert list(col.assignment) == [e.pair for e in g.edges], pairs


def test_exhausted_palette_names_the_label():
    # the path's first edge has one endpoint whose mask starts full (bits
    # 1..k), first or second: konig_color names that endpoint by its label
    g = graph([(10**12 + 5, 3), (3, 10**12 + 9)])
    for full in g.uv[0]:

        class Full(ecadvice.coloring._Ledger):
            def __init__(self, *args):
                super().__init__(*args)
                self.used[full] = (2 << g.max_degree) - 1

        label = g.vertices[full]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ecadvice.coloring, "_Ledger", Full)
            with pytest.raises(AssertionError, match=rf"^palette 1\.\.2 exhausted at vertex {label}$"):
                konig_color(g)


def test_flip_refuses_a_walk_that_revisits_a_vertex():
    # path x-y-z colored 1, 2; a corrupt slot at z names the uncolored edge
    # z-x for color 1, so the 1/2 walk from x comes back to x
    ledger = ecadvice.coloring._Ledger([(0, 1), (1, 2), (2, 0)], 3)
    ledger.set(0, 1)
    ledger.set(1, 2)
    ledger.at[2][1] = 2
    ledger.used[2] |= 1 << 1
    with pytest.raises(AssertionError, match="^alternating path revisited a vertex$"):
        ledger.flip(0, 1, 2)


@given(ledger_graphs())
@settings(max_examples=300, deadline=None)
def test_bitmask_ledger_matches_slot_ledger(g):
    ledgers = []

    class Recorded(ecadvice.coloring._Ledger):
        def __init__(self, *args):
            super().__init__(*args)
            ledgers.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ecadvice.coloring, "_Ledger", Recorded)
        try:
            konig = konig_color(g)
        except NotBipartite:
            konig = None
        vizing = vizing_plus_one(g)

    # the same color for each edge id
    try:
        slots = _slot_konig(g)
        expected = [slots[e.pair] for e in g.edges]
    except NotBipartite:
        expected = None
    assert (None if konig is None else konig.by_id) == expected
    assert len(ledgers) == (1 if konig is None else 2)
    palettes = ([] if konig is None else [g.max_degree]) + [g.max_degree + 1]
    for ledger, k in zip(ledgers, palettes):
        assert_ledger_consistent(ledger, k, len(g.vertices))
    engines = ([] if konig is None else [konig]) + [vizing]
    # each engine's Coloring wraps its ledger's list uncopied
    assert all(ledger.color is col.by_id for ledger, col in zip(ledgers, engines))


# A reference copy of the adjacency-lemma peel as it stood before its peel
# phase kept incidence lists: a dict per vertex from neighbor to edge id,
# and every free edge of the re-add written by _Ledger.set.  Its ledger is
# the class bound at import, so a test that patches coloring._Ledger sees
# only the ledgers of _peel_color.


def _dict_peel(ends, labels, d, floor):
    nbrs = [{} for _ in labels]
    for i, (a, b) in enumerate(ends):
        nbrs[a][b] = i
        nbrs[b][a] = i
    deg = [len(at_v) for at_v in nbrs]
    k = max(max(deg, default=0), floor)
    major = [0] * len(deg)
    for v, at_v in enumerate(nbrs):
        if deg[v] == k:
            for w in at_v:
                major[w] += 1
    todo = [y for y, dy in enumerate(deg) if dy <= d]
    waiting = {}
    peeled = []
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
                for w in at_x:
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
            todo.append(y)
    if len(peeled) < len(ends):
        return None

    ledger = _Ledger(ends, len(labels))
    at, used = ledger.at, ledger.used
    full = (2 << k) - 2
    for x, y, i in reversed(peeled):
        free_x = ~used[x] & full
        both = free_x & ~used[y]
        if both:
            ledger.set(i, (both & -both).bit_length() - 1)
            continue
        parent = {y: y}
        via = {y: i}
        fan = [y]
        missed = 0
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
                    ledger.flip(z, beta, alpha)
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


def checked_peel(g, d, floor):
    """_peel_color(g.uv, g.vertices, d, floor), the colors by edge id, or
    None when the peel gets stuck, after asserting that the reference peel
    returns the same and that the ledger is consistent; with the number of
    the ledger's flips and rotations."""
    ledgers = []

    class Recorded(ecadvice.coloring._Ledger):
        def __init__(self, *args):
            super().__init__(*args)
            self.flips = self.rotations = 0
            ledgers.append(self)

        def flip(self, *args):
            self.flips += 1
            return super().flip(*args)

        def rotate(self, *args):
            self.rotations += 1
            super().rotate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ecadvice.coloring, "_Ledger", Recorded)
        color = _peel_color(g.uv, g.vertices, d, floor)
    assert color == _dict_peel(g.uv, g.vertices, d, floor)
    assert len(ledgers) == (0 if color is None else 1)
    for ledger in ledgers:
        assert ledger.color is color
        assert_ledger_consistent(ledger, max(g.max_degree, floor), len(g.vertices))
    counts = [(ledger.flips, ledger.rotations) for ledger in ledgers]
    return color, counts[0] if counts else (0, 0)


@given(ledger_graphs())
@settings(max_examples=200, deadline=None)
def test_incidence_list_peel_matches_dict_peel(g):
    dgn, _ = degeneracy(g)
    delta = g.max_degree
    for d, floor in [(delta, delta + 1), (delta, delta), (dgn, 2 * dgn), (dgn, delta)]:
        checked_peel(g, d, floor)


# A graph of maximum degree 6 on which, at (6, 6), edges wait at vertices
# that also lose edges to neighbors of degree 6 during their own visits:
# the degree-6 counts of both endpoints must fall, or the waiting edges are
# released at other times and the removal order changes.  Found by a random
# search against a copy of the peel that left y out of that count update.
STALE_COUNT_PAIRS = [
    (4, 7), (7, 1), (7, 2), (1, 5), (5, 8), (0, 1), (4, 6), (4, 1), (4, 9), (8, 4), (8, 0), (8, 6),
    (9, 7), (3, 6), (2, 8), (2, 6), (7, 5), (9, 0), (8, 1), (0, 6), (5, 4), (9, 1), (5, 6), (5, 3),
]


@pytest.mark.parametrize(
    "case,d,floor,moves",
    [
        # two parked edges released and a vertex pushed again; one fan
        ("degenerate-10-4-2", 8, 8, (0, 1)),
        ("degenerate-20-2-12", 2, 4, (1, 1)),  # one Kempe flip
        # a flip whose path ends at x, flipped back and flipped again
        ("degenerate-10-4-42", 4, 8, (3, 2)),
        ("petersen", 3, 3, None),  # stuck
        ("k5", 4, 4, None),  # stuck
        ("stale-count", 6, 6, (0, 1)),  # the degree-k count update decides the order
    ],
)
def test_incidence_list_peel_rare_branches(case, d, floor, moves):
    if case == "petersen":
        g = graph(petersen_pairs())
    elif case == "k5":
        g = graph(complete_pairs(5))
    elif case == "stale-count":
        g = graph(STALE_COUNT_PAIRS)
    else:
        n, dd, seed = map(int, case.split("-")[1:])
        g = Graph.from_stream(gen_d_degenerate(n, dd, seed))
    color, counts = checked_peel(g, d, floor)
    if moves is None:
        assert color is None
    else:
        assert len(color) == g.m and counts == moves
