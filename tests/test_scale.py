"""Scale tier: the full pipeline on thousands of edges.

Every instance has max degree >= 2d, so it is class 1 and the optimum is
the max degree itself.  Each runs with a node budget of 0: a single exact
search node would raise ResourceLimit, so these runs pin that the oracle
reaches every coloring without search: konig_color, or the adjacency-lemma
peel, once on the whole graph and once, as _peel_color at threshold d and
floor 2d, on the bundles' union.  The three small d=2 and d=3 instances
are the ones whose per-bundle search used to exhaust a 500k-node budget,
and the 5-degenerate one with 49,985 edges pins that the constructive
coloring stays near-linear.  The 20000-vertex forest pins that
the degeneracy peel is not quadratic in n, and the 3000-leaf star that the
subset partition is not quadratic in the degree of the center; the memory
tests at the end bound that directly, since time alone does not.
"""

import tracemalloc

import pytest

import ecadvice.coloring
from ecadvice import (
    Graph,
    degeneracy,
    gen_d_degenerate,
    gen_forest,
    gen_star,
    konig_color,
    run_advice,
    serialize_stream,
    verify_run,
    vizing_plus_one,
)
from ecadvice.cli import main
from ecadvice.oracle import build_partition

from .conftest import about

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
    run = run_advice(stream, d, mode="robust", model="tape", budget=0)
    return stream, run, verify_run(run)


def test_scale_coloring_is_optimal(scaled):
    stream, run, problems = scaled
    delta = Graph.from_stream(stream).max_degree
    assert delta >= 2 * run.oracle.d
    assert run.report.colors_used == delta
    assert run.oracle.partition
    assert about(problems, "proper", "optimal") == []


def test_scale_bit_count_is_exact(scaled):
    _, _, problems = scaled
    assert about(problems, "bits") == []


def test_scale_bundles_and_decoder_agree(scaled):
    _, _, problems = scaled
    assert about(problems, "rank", "bundles", "decoder") == []


def test_scale_cli_run_exits_zero(tmp_path, capsys):
    path = tmp_path / "deg5-n500.stream"
    path.write_text(serialize_stream(gen_d_degenerate(500, 5, 1)))
    assert main(["run", str(path), "--alg", "advice", "--d", "5", "--budget", "0"]) == 0
    assert '"optimal": true' in capsys.readouterr().out


def traced_peak(f) -> int:
    """f()'s peak of traced allocations, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ledger_is_linear_on_a_wide_star():
    # König's ledger has k = max_degree, the Vizing peel's k = max_degree+1:
    # state with k+1 slots per vertex would take 10^8 slots (800 MB) here,
    # while the colors a star's vertices ever see number 2*10^4.  The slots
    # are linear but the masks are not: a leaf holding color c keeps a
    # (c+1)-bit int, about 5*10^7 bits (6 MiB) over the leaves here, and
    # four times that at twice the degree
    g = Graph.from_stream(gen_star(10_000))
    assert traced_peak(lambda: konig_color(g)) < 48 * 2**20
    assert traced_peak(lambda: vizing_plus_one(g)) < 48 * 2**20


def test_partition_state_is_sized_by_each_bundle(monkeypatch):
    # d = 1 splits the 3000-leaf star into 1500 bundles of two edges, all
    # colored by one peel: one ledger over 3000 edges and 4500 vertices
    # (the center once per bundle).  State sized by the whole graph would be
    # n per bundle, or n * delta/2d counts (4.5 million) for the subset
    # placement
    g = Graph.from_stream(gen_star(3000))
    _, order = degeneracy(g)
    sizes = []

    class Sized(ecadvice.coloring._Ledger):
        def __init__(self, ends, labels, k):
            super().__init__(ends, labels, k)
            sizes.append((len(ends), len(labels), len(self.used), len(self.at)))

    monkeypatch.setattr(ecadvice.coloring, "_Ledger", Sized)
    peak = traced_peak(lambda: build_partition(g, 1, order, range(g.m)))
    assert sizes == [(3000, 4500, 4500, 4500)]
    assert peak < 8 * 2**20
