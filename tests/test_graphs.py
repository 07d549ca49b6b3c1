import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecadvice import (
    DuplicateEdge,
    Edge,
    EdgeStream,
    Graph,
    NotBipartite,
    ParseError,
    PreconditionViolated,
    SelfLoop,
    build_partition,
    degeneracy,
    edge_pair,
    is_bipartite,
    is_forest,
    is_proper,
    konig_color,
    parse_stream,
    serialize_stream,
    stream_from_pairs,
)
from ecadvice.graphs import two_color

from .conftest import (
    biclique_pairs,
    complete_pairs,
    cycle_pairs,
    graph,
    path_pairs,
    petersen_pairs,
    random_pair_lists,
    star_pairs,
)


def test_edge_pair_normalizes():
    assert edge_pair(3, 1) == (1, 3)
    assert edge_pair(1, 3) == (1, 3)


def test_stream_rejects_self_loop():
    with pytest.raises(SelfLoop):
        stream_from_pairs([(0, 0)])


def test_stream_rejects_duplicate():
    with pytest.raises(DuplicateEdge):
        stream_from_pairs([(0, 1), (1, 0)])


@pytest.mark.parametrize(
    "edges,error",
    [
        ((Edge(0, 1, 0), Edge(1, 0, 1), Edge(1, 2, 2)), DuplicateEdge),
        ((Edge(0, 1, 0), Edge(0, 1, 1)), DuplicateEdge),
        ((Edge(0, 0, 0), Edge(0, 1, 1)), SelfLoop),
        ((Edge(0, 1, 0), Edge(2, 2, 1)), SelfLoop),
    ],
)
def test_graph_rejects_multigraphs_and_loops(edges, error):
    # EdgeStream checks only arrival indices, so Graph is where they stop
    with pytest.raises(error) as info:
        Graph.from_stream(EdgeStream(edges))
    assert isinstance(info.value, ParseError)


def test_stream_arrival_indices_must_match_position():
    with pytest.raises(ValueError):
        EdgeStream((Edge(0, 1, 1),))


def test_stream_arrival_error_is_precondition():
    with pytest.raises(PreconditionViolated) as info:
        EdgeStream((Edge(0, 1, 0), Edge(1, 2, 2)))
    assert info.type is PreconditionViolated


def test_parse_basic():
    text = "# a square\n0 1\n1 2\n\n2 3\n3 0\n"
    s = parse_stream(text)
    assert [e.pair for e in s.edges] == [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert [e.pair for e in parse_stream("007 01\n").edges] == [(1, 7)]


@pytest.mark.parametrize("bad", ["0", "0 1 2", "a b", "0 -1", "1 1"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_stream(bad)


@pytest.mark.parametrize("label", ["1_0", "+10", "١٠", "१०", "००१", "9" * 5000])
def test_parse_takes_only_ascii_digit_labels(label):
    # int() reads each of these; "1_0" used to parse as 10 and then clash
    # with the "10 2" above it as a DuplicateEdge
    with pytest.raises(ParseError) as info:
        parse_stream(f"10 2\n{label} 2\n")
    assert info.type is ParseError
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("line", ["1\xa02", "1\u30002", "1 2\u20283 4", "1 2\u2029", "\x85"])
def test_parse_takes_only_ascii_separators(line):
    # str.split and str.splitlines would read each of these as a space or a
    # line break
    with pytest.raises(ParseError) as info:
        parse_stream(f"0 1\n{line}\n")
    assert "line 2" in str(info.value)


def test_parse_keeps_non_ascii_comments_and_crlf():
    text = "# caf\u00e9 \u2028 1 2\r\n1 2  # \u00e9\u3000\r\n3 4\r\n"
    assert [e.pair for e in parse_stream(text).edges] == [(1, 2), (3, 4)]
    assert [e.pair for e in parse_stream("1 2\r\n3 4\r\n").edges] == [(1, 2), (3, 4)]


@given(random_pair_lists())
def test_parse_serialize_round_trip(pairs):
    s = stream_from_pairs(pairs)
    again = parse_stream(serialize_stream(s))
    assert [e.pair for e in again.edges] == [e.pair for e in s.edges]


@pytest.mark.parametrize("comment", ["pi: 1\n5 6", "x\r7 8", "x\x0c7 8", "x\x1c7 8"])
def test_serialize_refuses_comment_with_line_break(comment):
    # parse_stream would end the comment at the break and read the rest as an edge
    with pytest.raises(PreconditionViolated):
        serialize_stream(stream_from_pairs([(1, 2)]), [comment])


def test_serialize_keeps_comment_with_unicode_line_separator():
    # parse_stream breaks lines only at ASCII breaks, so U+2028 stays inside
    s = stream_from_pairs([(1, 2)])
    text = serialize_stream(s, ["x\u20283 4"])
    assert [e.pair for e in parse_stream(text).edges] == [(1, 2)]


def test_graph_counts():
    g = graph(complete_pairs(4))
    assert g.n == 4 and g.m == 6 and g.max_degree == 3
    assert g.deg[0] == 3


def test_adjacency_lists_neighbor_indices_in_edge_order():
    # labels 2, 5, 7, 9 are indices 0..3; label 5 meets 9, 2, 7 in that order
    g = graph([(5, 9), (2, 5), (7, 5), (9, 2)])
    assert g.adj == [[1, 3], [3, 0, 2], [1], [1, 0]]
    assert g.deg == [len(a) for a in g.adj] == [2, 3, 1, 2]


def test_degeneracy_frozen_values():
    # K4 peels at 3; a star or any forest at 1; cycles at 2
    assert degeneracy(graph(complete_pairs(4)))[0] == 3
    assert degeneracy(graph(star_pairs(6)))[0] == 1
    assert degeneracy(graph(path_pairs(7)))[0] == 1
    assert degeneracy(graph(cycle_pairs(5)))[0] == 2
    assert degeneracy(graph(petersen_pairs()))[0] == 3


def test_degeneracy_accepts_empty():
    # a graph with no vertices is not refused: its degeneracy is 0
    assert degeneracy(Graph.from_stream(stream_from_pairs([]))) == (0, ())


@given(random_pair_lists())
def test_degeneracy_order_certifies_bound(pairs):
    if not pairs:
        return
    g = graph(pairs)
    d, order = degeneracy(g)
    pos = {v: k for k, v in enumerate(order)}
    backs = dict.fromkeys(g.vertices, 0)
    for e in g.edges:
        backs[max(e.u, e.v, key=pos.__getitem__)] += 1
    assert max(backs.values()) == d
    assert d <= g.max_degree
    assert sorted(order) == list(g.vertices)


def _quadratic_peel(g):
    """Reference peel: scan every alive vertex for the smallest
    (residual, label) at each step, O(n^2) in all."""
    nbrs = {v: [] for v in g.vertices}
    for e in g.edges:
        nbrs[e.u].append(e.v)
        nbrs[e.v].append(e.u)
    residual = {v: len(ws) for v, ws in nbrs.items()}
    alive = set(g.vertices)
    peeled = []
    d = 0
    while alive:
        v = min(alive, key=lambda x: (residual[x], x))
        d = max(d, residual[v])
        peeled.append(v)
        alive.remove(v)
        for w in nbrs[v]:
            if w in alive:
                residual[w] -= 1
    return d, tuple(reversed(peeled))


@st.composite
def tied_pair_lists(draw):
    """Stars, complete bipartite graphs and disjoint paths: many vertices
    share each residual, so the label tie-break decides the order."""
    kind = draw(st.sampled_from(["star", "biclique", "paths"]))
    if kind == "star":
        pairs = star_pairs(draw(st.integers(min_value=1, max_value=14)))
    elif kind == "biclique":
        a = draw(st.integers(min_value=1, max_value=5))
        pairs = biclique_pairs(a, draw(st.integers(min_value=1, max_value=5)))
    else:
        pairs, base = [], 0
        for length in draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5)):
            pairs += [(base + i, base + i + 1) for i in range(length)]
            base += length + 1
    n = 1 + max(max(p) for p in pairs)
    label = draw(st.permutations(range(n)))
    return draw(st.permutations([(label[u], label[v]) for u, v in pairs]))


@st.composite
def hub_pair_lists(draw):
    """Stars whose leaves are chained into paths, the centers joined in a
    path: each hub's residual falls one step per peeled leaf, so its stale
    queue entries span many residuals."""
    pairs, centers, base = [], [], 0
    for size in draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4)):
        leaves = range(base + 1, base + 1 + size)
        pairs += [(base, x) for x in leaves]
        pairs += [(x, x + 1) for x in leaves[:-1]]
        centers.append(base)
        base += size + 1
    pairs += list(zip(centers, centers[1:]))
    label = draw(st.permutations(range(base)))
    return draw(st.permutations([(label[u], label[v]) for u, v in pairs]))


@given(st.one_of(
    random_pair_lists(max_vertices=16, max_edges=40), tied_pair_lists(), hub_pair_lists()
))
@settings(max_examples=200)
def test_degeneracy_matches_quadratic_peel(pairs):
    if not pairs:
        return
    g = graph(pairs)
    assert degeneracy(g) == _quadratic_peel(g)


def test_bipartition_even_cycle():
    g = graph(cycle_pairs(6))
    side = two_color(g)
    assert len(side) == g.n and set(side) == {0, 1}
    for a, b in g.uv:
        assert side[a] != side[b]


def test_bipartition_odd_cycle_raises():
    with pytest.raises(NotBipartite):
        two_color(graph(cycle_pairs(5)))
    assert not is_bipartite(graph(cycle_pairs(5)))
    assert is_bipartite(graph(cycle_pairs(6)))


# labels far from the vertex indices 0..4, in an order unlike theirs
RELABELED_CYCLE = [10**12 + 17, 523, 10**12 + 4, 7, 250]


def _named(message: str) -> set[int]:
    return {int(t) for t in message.replace(",", " ").split() if t.isdigit()}


def test_odd_cycle_message_names_labels():
    k = len(RELABELED_CYCLE)
    pairs = [(RELABELED_CYCLE[i], RELABELED_CYCLE[(i + 1) % k]) for i in range(k)]
    g = graph(pairs)
    with pytest.raises(NotBipartite) as info:
        konig_color(g)
    v, w = sorted(_named(str(info.value)))
    assert (v, w) in {edge_pair(*p) for p in pairs}


def test_order_messages_name_labels():
    g = graph(list(zip(RELABELED_CYCLE, RELABELED_CYCLE[1:])))
    order = list(RELABELED_CYCLE)
    with pytest.raises(PreconditionViolated) as info:
        build_partition(g, 1, order[:2] + order[3:], range(g.m))
    assert _named(str(info.value)) == {order[2]}
    with pytest.raises(PreconditionViolated) as info:
        build_partition(g, 1, order + [order[3]], range(g.m))
    assert _named(str(info.value)) == {order[3]}
    with pytest.raises(PreconditionViolated) as info:
        build_partition(g, 1, order + [99, 99], range(g.m))  # a label outside g, listed twice
    assert _named(str(info.value)) == {99}


def test_is_proper_accepts_and_rejects():
    g = graph(path_pairs(2))
    assert is_proper(g, {(0, 1): 1, (1, 2): 2})
    assert not is_proper(g, {(0, 1): 1, (1, 2): 1})
    # partial colorings are judged on colored edges only
    assert is_proper(g, {(0, 1): 1})


def _union_find_forest(pairs) -> bool:
    """Acyclicity the plain way: an edge whose ends are already joined
    closes a cycle."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_is_forest():
    assert is_forest(graph(path_pairs(5)))
    assert not is_forest(graph(cycle_pairs(4)))
    assert is_forest(graph([]))


@given(random_pair_lists())
@settings(max_examples=200, deadline=None)
def test_is_forest_agrees_with_union_find(pairs):
    assert is_forest(graph(pairs)) == _union_find_forest(pairs)
