"""Scale tier: the full pipeline on thousands of edges.

Every instance has max degree >= 2d, so it is class 1 and the optimum is
the max degree itself.  Each runs with a node budget of 0: a single exact
search node would raise ResourceLimit, so these runs pin that the oracle
reaches every coloring (konig_color or color_degenerate, whole graph and
per bundle) without search.  The three small d=2 and d=3 instances are the
ones whose per-bundle search used to exhaust a 500k-node budget, and the
5-degenerate one with 49,985 edges pins that the constructive coloring
stays near-linear.  The 20000-vertex forest pins that the degeneracy peel
is not quadratic in n, and the 3000-leaf star that the subset partition is
not quadratic in the degree of the center.
"""

import pytest

from ecadvice import (
    Graph,
    gen_d_degenerate,
    gen_forest,
    gen_star,
    header_bits,
    is_proper,
    run_advice,
    serialize_stream,
)
from ecadvice.advice import bits_per_edge
from ecadvice.cli import main

pytestmark = pytest.mark.scale

INSTANCES = {
    "forest-n5000": (lambda: gen_forest(5000, 1), 1, 4497),
    "forest-n20000": (lambda: gen_forest(20000, 1), 1, 17963),
    "star-3000": (lambda: gen_star(3000), 1, 3000),
    "deg5-n500": (lambda: gen_d_degenerate(500, 5, 1), 5, 2485),
    "deg2-n500": (lambda: gen_d_degenerate(500, 2, 1), 2, 997),
    "deg2-n200": (lambda: gen_d_degenerate(200, 2, 420499453), 2, 397),
    "deg3-n100": (lambda: gen_d_degenerate(100, 3, 2559624556), 3, 294),
    "deg5-n10000": (lambda: gen_d_degenerate(10000, 5, 1), 5, 49985),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def scaled(request):
    make, d, m = INSTANCES[request.param]
    stream = make()
    assert stream.m == m
    return stream, d, run_advice(stream, d, mode="robust", model="tape", budget=0)


def test_scale_coloring_is_optimal(scaled):
    stream, d, run = scaled
    g = Graph.from_stream(stream)
    report = run.report
    assert g.max_degree >= 2 * run.oracle.d
    assert is_proper(Graph.from_stream(run.oracle.stream), report.coloring)
    assert len(report.coloring) == g.m
    assert report.colors_used == report.chromatic_index == g.max_degree
    assert report.optimal


def test_scale_bit_count_is_exact(scaled):
    _, _, run = scaled
    report = run.report
    per = bits_per_edge(run.oracle.d, "robust")
    assert report.per_edge_bits == per
    assert report.advice_bits_read == report.m * per + header_bits(run.oracle.d)


def test_scale_bundles_and_decoder_agree(scaled):
    _, _, run = scaled
    oracle = run.oracle
    dd = oracle.d
    assert oracle.partition
    for members in oracle.partition.values():
        assert Graph(members).max_degree <= 2 * dd
    decoded = {s.arrival: (s.subset, s.rank) for s in run.algorithm.decoded if s.mode == 1}
    planned = {
        e.arrival: (adv.subset, adv.rank)
        for e, adv in zip(oracle.stream.edges, oracle.per_edge)
        if adv.mode == 1
    }
    assert all(rank <= dd for _, rank in planned.values())
    assert decoded == planned


def test_scale_cli_run_exits_zero(tmp_path, capsys):
    path = tmp_path / "deg5-n500.stream"
    path.write_text(serialize_stream(gen_d_degenerate(500, 5, 1)))
    assert main(["run", str(path), "--alg", "advice", "--d", "5", "--budget", "0"]) == 0
    assert '"optimal": true' in capsys.readouterr().out
