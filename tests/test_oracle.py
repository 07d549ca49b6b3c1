import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecadvice.oracle
from ecadvice import (
    DuplicateEdge,
    Edge,
    EdgeStream,
    Graph,
    PreconditionViolated,
    SelfLoop,
    bits_per_edge,
    build_advice,
    build_partition,
    degeneracy,
    gen_d_degenerate,
    gen_forest,
    gen_star,
    is_proper,
    optimal_coloring,
    pad_degeneracy,
    run_advice,
    unpack_record,
)

from .conftest import (
    complete_pairs,
    cycle_pairs,
    degenerate_streams,
    graph,
    petersen_pairs,
    stream,
)


CENTER_FIRST = (0, 1, 2, 3, 4, 5)


def _views(g, plan):
    """build_partition's plan over g, keyed by pair: (subset, rank), front
    and color inside the subset."""
    pairs = [e.pair for e in g.edges]
    assert all(adv.mode == 1 for adv in plan)
    return (
        {p: (adv.subset, adv.rank) for p, adv in zip(pairs, plan)},
        {p: adv.front for p, adv in zip(pairs, plan)},
        {p: adv.color for p, adv in zip(pairs, plan)},
    )


def test_partition_star_frozen():
    # K_{1,4}, d=1, center first: arrivals fill subset 1 then subset 2,
    # and every rank is 0 because the center is the front of every edge
    g = Graph.from_stream(gen_star(4))
    plan, partition = build_partition(g, 1, CENTER_FIRST, range(g.m))
    assignments, _, colors = _views(g, plan)
    assert assignments == {
        (0, 1): (1, 0),
        (0, 2): (1, 0),
        (0, 3): (2, 0),
        (0, 4): (2, 0),
    }
    assert sorted(partition) == [1, 2]
    assert all(len(v) == 2 for v in partition.values())
    for members in partition.values():
        col = {e.pair: colors[e.pair] for e in members}
        assert is_proper(Graph(members), col)
        assert len(set(col.values())) <= 2


def test_partition_star_center_owns_every_front():
    # the center is first in this order, so it is the front of every edge
    g = Graph.from_stream(gen_star(4))
    plan, _ = build_partition(g, 1, CENTER_FIRST, range(g.m))
    assert [adv.front for adv in plan] == [0] * g.m


@given(
    st.one_of(
        degenerate_streams(max_n=30, max_d=3).map(lambda case: case[0]),
        st.integers(min_value=0, max_value=10_000).map(lambda seed: gen_forest(60, seed)),
        st.integers(min_value=2, max_value=12).map(gen_star),
    ),
    st.sampled_from(["strict", "robust"]),
)
@settings(max_examples=80, deadline=None)
def test_advice_fronts_come_first_in_degeneracy_order(s, mode):
    if s.m == 0:
        return
    res = build_advice(s, mode=mode)
    pos = {v: k for k, v in enumerate(degeneracy(Graph.from_stream(s))[1])}
    for e, adv in zip(s.edges, res.per_edge):
        if adv.mode == 1:
            assert adv.front == min(e.u, e.v, key=pos.__getitem__)


@pytest.mark.parametrize(
    "ids,named",
    [([0, 1, 7, 2], 7), ([0, 1, -1, 2], -1), ([0, 0, 1, 1, 2, 3], 0)],
    ids=["past-m", "negative", "repeated"],
)
def test_partition_rejects_bad_ids(ids, named):
    # once a raw IndexError, a silent stand-in for edge 3, and a misleading
    # degeneracy complaint from the subset coloring
    g = Graph.from_stream(gen_star(4))
    with pytest.raises(PreconditionViolated, match=rf"^edge id {named} "):
        build_partition(g, 1, CENTER_FIRST[:5], ids)


def test_partition_rejects_bad_order():
    s = gen_star(4)
    center_last = (1, 2, 3, 4, 0)
    g = Graph.from_stream(s)
    with pytest.raises(PreconditionViolated):
        build_partition(g, 1, center_last, range(g.m))  # back-degree 4 at the center


def test_partition_rejects_non_multiple_degree():
    g = Graph.from_stream(gen_star(4))
    with pytest.raises(PreconditionViolated):
        build_partition(g, 1, CENTER_FIRST, range(3))  # max degree 3 over the ids
    with pytest.raises(PreconditionViolated):
        build_partition(g, 1, CENTER_FIRST, [])


def test_partition_rejects_missing_vertex():
    g = Graph.from_stream(gen_star(2))
    with pytest.raises(PreconditionViolated):
        build_partition(g, 1, (0, 1), range(g.m))


def test_partition_rejects_repeated_vertex():
    # listing the center twice would otherwise put every edge in two subsets
    g = Graph.from_stream(gen_star(4))
    with pytest.raises(PreconditionViolated):
        build_partition(g, 1, (0, 0, 1, 2, 3, 4), range(g.m))


def _rescan_partition(g, d, order):
    """build_partition's subset choice as a rescan of every placed edge at
    the front endpoint for each front edge: O(deg^2) per vertex."""
    pos = {v: k for k, v in enumerate(order)}
    cap = 2 * d - 1
    front_edges = {}
    for e in g.edges:
        front_edges.setdefault(min(e.u, e.v, key=pos.__getitem__), []).append(e)
    for group in front_edges.values():
        group.sort(key=lambda e: e.arrival)
    incident = {v: [] for v in g.vertices}
    assignments, fronts, partition = {}, {}, {}
    for v in order:
        for e in front_edges.get(v, ()):
            total, prev = {}, {}
            for arrival, j in incident[v]:
                total[j] = total.get(j, 0) + 1
                if arrival < e.arrival:
                    prev[j] = prev.get(j, 0) + 1
            target = 1
            while total.get(target, 0) > cap:
                target += 1
            rank = sum(1 for j in range(1, target) if prev.get(j, 0) <= cap)
            assignments[e.pair] = (target, rank)
            fronts[e.pair] = v
            partition.setdefault(target, []).append(e)
            incident[v].append((e.arrival, target))
            incident[e.v if e.u == v else e.u].append((e.arrival, target))
    for members in partition.values():
        members.sort(key=lambda e: e.arrival)
    return assignments, fronts, partition


def _assert_partition_matches_rescan(g, d, order):
    plan, partition = build_partition(g, d, order, range(g.m))
    assignments, fronts, _ = _views(g, plan)
    assert (assignments, fronts, partition) == _rescan_partition(g, d, order)
    assert all(adv.rank <= d for adv in plan)
    return plan


@given(st.sampled_from(["forest", "2", "3"]), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_partition_matches_rescan_on_residual_subgraphs(kind, seed):
    # build_advice's own plan against a rescan of its residual subgraph in
    # the whole graph's degeneracy order
    if kind == "forest":
        s = gen_forest(40 + seed % 120, seed)
    else:
        s = gen_d_degenerate(20 + seed % 50, int(kind), seed)
    res = build_advice(s)
    if not res.partition:
        return
    members = sorted((e for part in res.partition.values() for e in part), key=lambda e: e.arrival)
    order = degeneracy(Graph.from_stream(s))[1]
    assignments, fronts, partition = _rescan_partition(Graph(members), res.d, order)
    plan = [res.per_edge[e.arrival] for e in members]
    assert (assignments, fronts, partition) == (
        {e.pair: (adv.subset, adv.rank) for e, adv in zip(members, plan)},
        {e.pair: adv.front for e, adv in zip(members, plan)},
        res.partition,
    )
    assert all(adv.rank <= res.d for adv in plan)


@pytest.mark.parametrize("seed,b", [(1, 1), (2, 0)], ids=["b-nonzero", "b-zero"])
def test_build_advice_builds_one_graph_and_one_order(monkeypatch, seed, b):
    # b colors ship literally, the rest form the residual subgraph: with
    # b > 0 it is a proper subgraph, and it still needs no Graph or order
    s = gen_forest(450, seed)
    calls = {"Graph": 0, "degeneracy": 0}
    init, peel = Graph.__init__, ecadvice.oracle.degeneracy

    def counted_init(self, edges):
        calls["Graph"] += 1
        init(self, edges)

    def counted_peel(g):
        calls["degeneracy"] += 1
        return peel(g)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(ecadvice.oracle, "degeneracy", counted_peel)
    res = build_advice(s, 1)
    assert res.partition and res.delta % (2 * res.d) == b
    assert calls == {"Graph": 1, "degeneracy": 1}


@given(
    st.sampled_from([1, 2]),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_partition_matches_rescan_on_stars(d, blocks, data):
    # the center sits at position <= d, so up to d leaves are back edges
    # at it; when they arrive late, earlier subsets look open and ranks rise
    g = Graph.from_stream(gen_star(2 * d * blocks))
    leaves = data.draw(st.permutations(range(1, g.n)))
    at = data.draw(st.integers(min_value=0, max_value=d))
    _assert_partition_matches_rescan(g, d, (*leaves[:at], 0, *leaves[at:]))
    _assert_partition_matches_rescan(g, d, degeneracy(g)[1])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_partition_matches_rescan_at_rank_d(d):
    # hub i (1..d) has 2d*i leaves first, so its edge to vertex 0 lands in
    # subset i+1 at the hub; those d back edges at 0 arrive last, so each of
    # subsets 2..d+1 looks open to 0's later front edges and ranks reach d
    pairs, leaf = [], d + 1
    for hub in range(1, d + 1):
        pairs += [(hub, x) for x in range(leaf, leaf + 2 * d * hub)]
        leaf += 2 * d * hub
    pairs += [(0, x) for x in range(leaf, leaf + 2 * d * (d + 2) - d)]
    pairs += [(hub, 0) for hub in range(1, d + 1)]
    g = graph(pairs)
    plan = _assert_partition_matches_rescan(g, d, (*range(1, d + 1), 0, *range(d + 1, g.n)))
    assert max(adv.rank for adv in plan) == d


def test_optimal_coloring_contiguous_palette():
    for pairs in (cycle_pairs(5), complete_pairs(4), petersen_pairs()):
        g = graph(pairs)
        chi, col = optimal_coloring(g)
        assert is_proper(g, col)
        assert col.palette == frozenset(range(1, chi + 1))


def test_overfull_graph_settles_without_search():
    # K5 has 10 edges > max degree 4 * (5 // 2), so it is class 2
    g = graph(complete_pairs(5))
    chi, col = optimal_coloring(g, budget=0)
    assert chi == 5 and is_proper(g, col)
    assert col.palette == frozenset(range(1, 6))


def test_build_advice_literal_regime():
    # triangle with d=2: max degree 2 < 2d, so every record is a literal color
    res = build_advice(stream(cycle_pairs(3)), 2)
    assert res.delta == 2 and res.chromatic_index == 3
    assert all(adv.mode == 0 for adv in res.per_edge)
    assert sorted(adv.color for adv in res.per_edge) == [1, 2, 3]
    assert res.partition == {}
    assert sum(adv.mode == 0 for adv in res.per_edge) == 3


def test_build_advice_subset_regime_no_remainder():
    # K_{1,4} with d=1: delta = 4 = 2*2d, nothing precolored
    res = build_advice(gen_star(4), 1)
    assert res.d == 1 and res.delta == 4
    assert not any(adv.mode == 0 for adv in res.per_edge)
    assert all(adv.mode == 1 for adv in res.per_edge)
    assert sorted(res.partition) == [1, 2]


def test_build_advice_subset_regime_with_remainder():
    # K_{1,5} with d=1: delta = 5 = 2*2 + 1, one color class precolored
    res = build_advice(gen_star(5), 1)
    assert res.chromatic_index == 5
    assert sum(adv.mode == 0 for adv in res.per_edge) == 1
    modes = [adv.mode for adv in res.per_edge]
    assert modes.count(0) == 1 and modes.count(1) == 4
    lit = next(adv for adv in res.per_edge if adv.mode == 0)
    assert lit.color == 1  # precolored edges use the low colors


def test_build_advice_pads_requested_bound():
    res = build_advice(stream(cycle_pairs(3)), 5)
    assert res.d == 7
    assert all(len(r) == bits_per_edge(7, "robust") for r in res.records)


def test_build_advice_rejects_underestimated_d():
    with pytest.raises(PreconditionViolated):
        build_advice(stream(complete_pairs(4)), 1)


def test_build_advice_rejects_unknown_mode():
    with pytest.raises(PreconditionViolated):
        build_advice(gen_star(2), 1, mode="loose")


def test_build_advice_empty_stream():
    res = build_advice(stream([]), 3)
    assert res.records == [] and res.delta == 0


def test_strict_mode_orients_subset_edges():
    res = build_advice(gen_star(4), 1, mode="strict")
    for e, adv in zip(res.stream.edges, res.per_edge):
        if adv.mode == 1:
            assert e.u == adv.front
        assert e.pair in {f.pair for f in gen_star(4).edges}


def test_robust_mode_keeps_stream():
    s = gen_star(4)
    res = build_advice(s, 1, mode="robust")
    assert res.stream is s


@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_records_decode_back_to_per_edge(mode):
    s = gen_d_degenerate(18, 2, 5)
    res = build_advice(s, 2, mode=mode)
    for e, adv, rec in zip(res.stream.edges, res.per_edge, res.records):
        fields = unpack_record(rec.bits, res.d, mode)
        assert fields.mode_flag == adv.mode
        assert fields.color == adv.color
        if adv.mode == 1:
            assert fields.rank == adv.rank
            if mode == "robust":
                assert fields.front_flag == (0 if adv.front == min(e.u, e.v) else 1)


@given(
    st.integers(min_value=2, max_value=26),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2000),
)
@settings(max_examples=60, deadline=None)
def test_partition_invariants_on_generated_streams(n, d, seed):
    s = gen_d_degenerate(n, d, seed)
    if s.m == 0:
        return
    res = build_advice(s, d)
    dd = res.d
    assert dd == pad_degeneracy(d)
    assert len(res.records) == s.m
    assert all(len(r) == bits_per_edge(dd, "robust") for r in res.records)
    if not res.partition:
        assert res.delta < 2 * dd
        return
    a, b = divmod(res.delta, 2 * dd)
    literal = sum(adv.mode == 0 for adv in res.per_edge)
    assert literal == sum(1 for e in s.edges if res.optimal[e.pair] <= b)
    covered = 0
    for j, members in res.partition.items():
        sub = Graph(members)
        assert sub.max_degree <= 2 * dd
        assert all(res.per_edge[e.arrival].subset == j for e in members)
        col = {e.pair: res.per_edge[e.arrival].color for e in members}
        assert is_proper(sub, col)
        assert set(col.values()) <= set(range(1, 2 * dd + 1))
        covered += len(members)
    assert covered + literal == s.m
    for adv in res.per_edge:
        if adv.mode == 1:
            assert 1 <= adv.subset
            assert 0 <= adv.rank <= dd


@given(degenerate_streams(max_n=30, max_d=3), st.sampled_from(["strict", "robust"]))
@example((gen_d_degenerate(80, 2, 3), 2), "strict")
@settings(max_examples=60, deadline=None)
def test_one_record_object_per_record_string(case, mode):
    # strict records do not write the front flag, so two subset edges that
    # differ only in it share one record
    s, d = case
    result = build_advice(s, d, mode=mode)
    assert len({id(r) for r in result.records}) == len({r.bits for r in result.records})


@pytest.mark.parametrize(
    "edges,error",
    [
        ((Edge(0, 1, 0), Edge(1, 0, 1), Edge(1, 2, 2)), DuplicateEdge),
        ((Edge(0, 0, 0), Edge(0, 1, 1)), SelfLoop),
    ],
    ids=["parallel", "loop"],
)
@pytest.mark.parametrize("stage", ["build_advice", "optimal_coloring", "run_advice"])
def test_oracle_refuses_multigraphs_and_loops(edges, error, stage):
    # once gave both parallel edges color 1 with chi 3, and a loop chi 3;
    # run_advice refused the repeat only in the consumer, after the oracle ran
    s = EdgeStream(edges)
    call = {
        "build_advice": lambda: build_advice(s),
        "optimal_coloring": lambda: optimal_coloring(Graph.from_stream(s)),
        "run_advice": lambda: run_advice(s),
    }[stage]
    with pytest.raises(error):
        call()
