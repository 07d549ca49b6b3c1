import itertools
import random

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
    chromatic_index,
    color_degenerate,
    degeneracy,
    exact_color,
    gen_bipartite,
    gen_d_degenerate,
    is_bipartite,
    is_proper,
    konig_color,
    optimal_coloring,
    vizing_plus_one,
)
from ecadvice.coloring import Coloring, _peel_color
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
    assert chromatic_index(graph(complete_pairs(4))) == 3
    assert chromatic_index(graph(cycle_pairs(5))) == 3  # odd cycle is class 2
    assert chromatic_index(graph(cycle_pairs(6))) == 2
    assert chromatic_index(graph(star_pairs(7))) == 7
    assert chromatic_index(graph(petersen_pairs())) == 4  # classic class-2 cubic graph


def test_chromatic_index_empty():
    assert chromatic_index(Graph(())) == 0


@pytest.mark.parametrize("pairs", CORPUS)
def test_chromatic_index_matches_brute_force(pairs):
    g = graph(pairs)
    assert chromatic_index(g) == brute_force_chromatic_index(g)


def _d5_bundle():
    # A 202-edge bundle with max degree 2d = 14 (d = 7 after padding): the
    # edges that the search's max-degree witness colors above delta - 14.
    # Built here rather than read off the oracle, whose constructive
    # colorings cut a different bundle.
    g = Graph.from_stream(gen_d_degenerate(65, 5, 3))
    witness = exact_color(g, g.max_degree)
    return Graph([e for e in g.edges if witness[e.pair] > g.max_degree - 14]), 14


def _joined_pair_n3():
    # the rigidity gadget with its pendant leaves joined (see rigidity_check)
    stream, e_l, e_r = build_coupled_pair(3)
    last = Edge(e_l.u, e_r.v, e_r.arrival)
    return Graph(stream.edges[:-1] + (last,)), 4


# (instance builder, nodes the search spends to finish, colorable); the
# counts are pinned so that node accounting, and with it every budget
# verdict, cannot drift
BUDGET_CASES = {
    "petersen-k3": (lambda: (graph(petersen_pairs()), 3), 30, False),
    "d5-bundle": (_d5_bundle, 202, True),
    "joined-pair-n3": (_joined_pair_n3, 200, False),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_exact_color_budget_trips(case):
    make, nodes, colorable = BUDGET_CASES[case]
    g, k = make()
    with pytest.raises(ResourceLimit):
        exact_color(g, k, budget=nodes - 1)
    witness = exact_color(g, k, budget=nodes)
    assert (witness is not None) == colorable


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
    col = _peel_color(g, g.max_degree, g.max_degree)
    if len(set(g.deg)) == 1:
        assert col is None  # on a regular graph the peel cannot start
    if col is None:
        return
    assert is_proper(g, col) and len(col) == g.m
    assert col.palette <= frozenset(range(1, g.max_degree + 1))


@pytest.mark.parametrize("seed", range(3))
def test_max_degree_peel_colors_dense_random_graphs(seed):
    g = graph(gnp_pairs(60, 0.4, seed))
    col = _peel_color(g, g.max_degree, g.max_degree)
    assert col is not None and is_proper(g, col) and len(col) == g.m
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


def test_color_degenerate_star():
    g = graph(star_pairs(4))
    col = color_degenerate(g, 1)
    assert is_proper(g, col)
    assert len(col.palette) == 4


def test_color_degenerate_preconditions():
    # degeneracy above the claimed bound: the peel gets stuck
    with pytest.raises(PreconditionViolated):
        color_degenerate(graph(complete_pairs(4)), 1)
    with pytest.raises(PreconditionViolated):
        color_degenerate(graph(path_pairs(2)), -1)


def test_color_degenerate_below_twice_d_uses_2d_palette():
    # C5 has degeneracy 2 and max degree 2 < 2d: the palette is 1..2d = 1..4
    g = graph(cycle_pairs(5))
    col = color_degenerate(g, 2)
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
    with pytest.raises(PreconditionViolated):
        color_degenerate(g, dgn - 1)
    for d in range(dgn, dgn + 3):
        col = color_degenerate(g, d)
        assert is_proper(g, col) and len(col) == g.m
        assert col.palette <= set(range(1, max(g.max_degree, 2 * d) + 1))
        if g.max_degree >= 2 * d:
            assert len(col.palette) == brute_force_chromatic_index(g) == g.max_degree


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_color_degenerate_on_ids_matches_rebuilt_subgraph(n, d, seed, data):
    g = Graph.from_stream(gen_d_degenerate(n, d, seed))
    ids = data.draw(st.one_of(
        st.just([]),
        st.just(list(range(g.m))),
        st.lists(st.sampled_from(range(g.m)), unique=True).map(sorted) if g.m else st.just([]),
    ))
    col = color_degenerate(g, d, ids)
    ref = color_degenerate(Graph([g.edges[i] for i in ids]), d)
    assert list(col.by_id) == list(ref.by_id)
    assert list(col.assignment.items()) == list(ref.assignment.items())


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_color_degenerate_tight_graphs(d):
    # max degree 2d with many vertices at it: long multi-fans and Kempe
    # flips, including chains that end at the fan's center
    for seed in range(150):
        g = graph(tight_pairs(20 + seed % 40, d, seed))
        col = color_degenerate(g, d)
        assert is_proper(g, col) and len(col) == g.m, seed
        assert max(col.palette) <= 2 * d, seed


@given(st.integers(min_value=6, max_value=40), st.integers(min_value=0, max_value=300))
@settings(max_examples=40)
def test_color_degenerate_random_forests(n, seed):
    from ecadvice import gen_forest

    g = Graph.from_stream(gen_forest(n, seed))
    if g.max_degree < 2:
        return
    col = color_degenerate(g, 1)
    assert is_proper(g, col)
    assert len(col.palette) == g.max_degree


@given(st.integers(min_value=4, max_value=24), st.integers(min_value=0, max_value=300))
@settings(max_examples=30)
def test_chromatic_index_random_degenerate(n, seed):
    g = Graph.from_stream(gen_d_degenerate(n, 2, seed))
    if g.m == 0:
        return
    chi = chromatic_index(g)
    assert chi in (g.max_degree, g.max_degree + 1)
    witness = exact_color(g, chi)
    assert witness is not None and is_proper(g, witness)


def test_overfull_certificate_agrees_with_exact_search():
    # an overfull graph is class 2, so it needs no search budget
    overfull = 0
    for n in range(5, 10):
        for d in range(3, 6):
            for seed in range(4):
                g = Graph.from_stream(gen_d_degenerate(n, d, seed))
                delta = g.max_degree
                colorable = exact_color(g, delta) is not None
                assert chromatic_index(g) == (delta if colorable else delta + 1)
                if g.m > delta * (g.n // 2):
                    overfull += 1
                    assert not colorable
                    assert chromatic_index(g, budget=0) == delta + 1
    assert overfull >= 10


def test_class_decision_agrees_with_exact_search():
    # graphs that are not bipartite and have max_degree < 2*degeneracy: the
    # peel, the max_degree+1 coloring, the overfull test or the search
    # decides chi, and it must be what the search alone decides.  An
    # overfull graph is class 2 by counting; the search cannot prove it on
    # the n = 9, d = 6 graphs (K9 less three edges) within 10^7 nodes.
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
                if g.m > delta * (g.n // 2):
                    assert chi == delta + 1
                else:
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


def assert_ledger_consistent(ledger):
    """For every vertex, the used bits are exactly the colors of its colored
    edges (plus bit 0), and each set bit's slot names the edge holding that
    color there; a slot whose bit is clear may be stale, but only for a
    color in 1..k."""
    held = [{} for _ in ledger.used]  # per vertex index: color -> edge id
    for i, c in ledger.color.items():
        for v in ledger.ends[i]:
            assert c not in held[v]
            held[v][c] = i
    assert len(ledger.at) == len(ledger.used) == len(ledger.labels)
    for v, slots in enumerate(ledger.at):
        assert ledger.used[v] == sum(1 << c for c in held[v]) | 1
        assert set(slots) <= set(range(1, ledger.k + 1))
        for c in range(1, ledger.k + 1):
            if ledger.used[v] >> c & 1:
                i = slots[c]
                assert ledger.color.get(i) == c and v in ledger.ends[i]


def test_engine_coloring_builds_its_pairs_on_first_access():
    g = graph([(7, 3), (3, 9), (9, 7)])
    col = Coloring.of_ids(g.edges, {2: 3, 0: 1, 1: 2})
    assert col.by_id == [1, 2, 3]
    assert len(col) == 3 and col.palette == {1, 2, 3}
    assert col._assignment is None  # palette and len read by_id
    assert list(col.assignment.items()) == [((7, 9), 3), ((3, 7), 1), ((3, 9), 2)]
    assert col == Coloring({(3, 7): 1, (3, 9): 2, (7, 9): 3})
    with pytest.raises(TypeError):
        Coloring(None)


def test_exhausted_palette_names_the_label():
    g = graph([(10**12 + 5, 3), (10**12 + 5, 10**12 + 9)])
    ledger = ecadvice.coloring._Ledger(g.uv, g.vertices, 2)
    center = g.vertices.index(10**12 + 5)
    ledger.set(0, 1)
    ledger.set(1, 2)
    with pytest.raises(AssertionError, match=rf"1\.\.2 exhausted at vertex {10**12 + 5}$"):
        ledger.free(center)


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

    # same colors, inserted in the same order
    try:
        expected = list(_slot_konig(g).items())
    except NotBipartite:
        expected = None
    assert (None if konig is None else list(konig.assignment.items())) == expected
    assert len(ledgers) == (1 if konig is None else 2)
    for ledger in ledgers:
        assert_ledger_consistent(ledger)
    assert [vizing.by_id[i] for i in ledgers[-1].color] == list(vizing.assignment.values())
