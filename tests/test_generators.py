import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecadvice import (
    Graph,
    PreconditionViolated,
    build_coupled_pair,
    degeneracy,
    gen_bipartite,
    gen_d_degenerate,
    gen_forest,
    gen_star,
    is_bipartite,
    is_forest,
    serialize_stream,
)


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=5000),
)
def test_gen_d_degenerate_respects_bound(n, d, seed):
    g = Graph.from_stream(gen_d_degenerate(n, d, seed))
    if g.m:
        assert degeneracy(g)[0] <= d


def test_gen_d_degenerate_deterministic():
    a = gen_d_degenerate(25, 3, 42)
    b = gen_d_degenerate(25, 3, 42)
    assert serialize_stream(a) == serialize_stream(b)
    c = gen_d_degenerate(25, 3, 43)
    assert serialize_stream(a) != serialize_stream(c)


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=5000))
def test_gen_forest_is_forest(n, seed):
    g = Graph.from_stream(gen_forest(n, seed))
    assert g.m >= 1
    assert is_forest(g)
    assert degeneracy(g)[0] == 1


def test_gen_bipartite_complete_when_p_one():
    g = Graph.from_stream(gen_bipartite(3, 4, 1.0, 0))
    assert g.m == 12
    assert is_bipartite(g)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=1000),
)
def test_gen_bipartite_sides_never_mix(a, b, seed):
    g = Graph.from_stream(gen_bipartite(a, b, 0.7, seed))
    for u, v in {e.pair for e in g.edges}:
        assert (u < a) != (v < a)


@pytest.mark.parametrize(
    "a,b,p", [(3, 3, 2.0), (3, 3, -0.1), (3, 3, float("nan")), (-1, 3, 0.5), (3, -2, 0.5)]
)
def test_gen_bipartite_rejects_bad_arguments(a, b, p):
    with pytest.raises(PreconditionViolated):
        gen_bipartite(a, b, p, 0)


def test_gen_bipartite_accepts_boundary_arguments():
    assert gen_bipartite(0, 3, 0.5, 0).m == 0
    assert gen_bipartite(2, 2, 0.0, 0).m == 0


def test_gen_star_shape():
    s = gen_star(5)
    g = Graph.from_stream(s)
    assert g.m == 5 and g.max_degree == 5
    assert all(e.u == 0 for e in s.edges)


def test_coupler_frozen_shape():
    # n=2: 4 core edges, 2 at each hub and a pendant edge at each hub; the
    # hubs and the core vertices have degree n+1 = 3, the pendant leaves 1
    s, e_l, e_r = build_coupled_pair(2)
    g = Graph.from_stream(s)
    left_hub, right_hub = e_l.v, e_r.v
    degree = dict(zip(g.vertices, g.deg))
    assert g.m == 10
    assert degree[left_hub] == 3 and degree[right_hub] == 3
    assert degree[e_l.u] == 1 and degree[e_r.u] == 1
    core = [v for v in g.vertices if v not in (left_hub, right_hub, e_l.u, e_r.u)]
    assert [degree[v] for v in core] == [3, 3, 3, 3]
    assert is_bipartite(g)


def test_forest_and_star_reject_negative_sizes():
    with pytest.raises(PreconditionViolated):
        gen_forest(-1, 0)
    with pytest.raises(PreconditionViolated):
        gen_star(-1)
    assert gen_forest(0, 0).m == 0 and gen_star(0).m == 0


def test_coupled_pair_rejects_negative_size():
    with pytest.raises(PreconditionViolated):
        build_coupled_pair(-1)


@pytest.mark.parametrize("n,m", [(1, 5), (2, 10), (3, 17), (4, 26)])
def test_coupled_pair_edge_count(n, m):
    s, e_l, e_r = build_coupled_pair(n)
    g = Graph.from_stream(s)
    assert g.m == m == n * n + 2 * n + 2
    assert g.max_degree == n + 1
    assert is_bipartite(g)
    pairs = {e.pair for e in g.edges}
    assert e_l.pair in pairs and e_r.pair in pairs
    # the marked edges are the pendants: one endpoint has degree 1
    degree = dict(zip(g.vertices, g.deg))
    assert min(degree[e_l.u], degree[e_l.v]) == 1
    assert min(degree[e_r.u], degree[e_r.v]) == 1
