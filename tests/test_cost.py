"""Work bounds measured in executed lines, not seconds.

`count_lines` counts the lines of `ecadvice` code a call executes, which
host load cannot move, so these tests bound how the work per edge grows
from a small instance to one four times larger.  A cost that grows with
the degree of a hub shows up as a ratio well above 1.
"""

import random
import sys

import pytest

from ecadvice import (
    EdgeStream,
    gen_bipartite,
    gen_d_degenerate,
    gen_forest,
    gen_star,
    run_advice,
    stream_from_pairs,
)

from .costmeter import count_lines

GROWTH = 1.25  # lines per edge may grow by this factor from the small size to 4x
FAMILY_GROWTH = 1.5  # the same, for the mean over seeds of a random family

# one stream per seed, long enough for a prefix of 4,000 edges
FAMILIES = {
    "forest": lambda seed: gen_forest(20000, seed),
    "d2": lambda seed: gen_d_degenerate(9000, 2, seed),
    "bipartite": lambda seed: gen_bipartite(200, 200, 0.5, seed),
}


def lines_per_edge(stream, *args, **kwargs) -> float:
    _, lines = count_lines(run_advice, stream, *args, **kwargs)
    return lines / stream.m


def test_count_lines_is_deterministic_and_restores_the_tracer():
    def sentinel(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(sentinel)
    try:
        first = count_lines(run_advice, gen_forest(2000, 1), 1)
        assert sys.gettrace() is sentinel
        second = count_lines(run_advice, gen_forest(2000, 1), 1)
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(previous)
    assert first[1] == second[1] > 0
    assert first[0].report.coloring.assignment == second[0].report.coloring.assignment


def d2_hub(n: int):
    """Vertex 1 joins 0, and each vertex i >= 2 joins the hub 0 and a
    vertex drawn from 1..i-1: 2-degenerate, with the hub of degree n - 1."""
    rng = random.Random(1)
    pairs = [(1, 0)]
    for i in range(2, n):
        pairs += [(i, 0), (i, rng.randint(1, i - 1))]
    rng.shuffle(pairs)
    return stream_from_pairs(pairs)


@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_consumer_work_per_edge_does_not_grow_with_the_star_degree(mode):
    small, large = (lines_per_edge(gen_star(delta), 1, mode=mode, model="tape")
                    for delta in (1000, 4000))
    assert large <= GROWTH * small, (small, large)


def test_consumer_work_per_edge_does_not_grow_with_a_d2_hub_degree():
    small, large = (lines_per_edge(d2_hub(n), mode="robust", model="tape") for n in (1000, 4000))
    assert large <= GROWTH * small, (small, large)


@pytest.mark.parametrize("family", FAMILIES)
def test_work_per_edge_grows_little_on_nested_prefixes(family):
    # each stream cut at 1,000 and at 4,000 edges; a single instance ranges
    # from about 120 to 256 lines per edge, so the bound holds for the mean
    # over seeds 1-3
    small = large = 0.0
    for seed in (1, 2, 3):
        edges = FAMILIES[family](seed).edges
        small += lines_per_edge(EdgeStream(edges[:1000]), mode="robust", model="tape")
        large += lines_per_edge(EdgeStream(edges[:4000]), mode="robust", model="tape")
    assert large <= FAMILY_GROWTH * small, (small / 3, large / 3)
