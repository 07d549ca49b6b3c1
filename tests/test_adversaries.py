import pytest

from ecadvice import (
    Coloring,
    Graph,
    Greedy,
    GreedyVariant,
    ImproperColoring,
    NoMonochromeFamily,
    PreconditionViolated,
    build_coupled_pair,
    build_permutation_instance,
    elimination_game,
    is_bipartite,
    is_forest,
    is_proper,
    konig_color,
    optimal_coloring,
    permutation_game,
    pigeonhole_thresholds,
    rigidity_check,
    rounds_to_extinction,
    run_advice,
    select_same_colored_stars,
    simulate,
    variant_family,
)
from ecadvice import adversaries
from ecadvice.runtime import OnlineAlgorithm

from .conftest import bit_strings


@pytest.mark.parametrize(
    "delta,alpha,beta",
    [(2, 3, 3), (3, 13, 286), (4, 61, 521855)],
)
def test_pigeonhole_thresholds_frozen(delta, alpha, beta):
    assert pigeonhole_thresholds(delta) == (alpha, beta)


def test_pigeonhole_thresholds_reject_small_delta():
    with pytest.raises(PreconditionViolated):
        pigeonhole_thresholds(1)


def test_elimination_game_rejects_negative_rounds():
    with pytest.raises(PreconditionViolated):
        elimination_game(2, [Greedy()], -1)
    assert elimination_game(2, [Greedy()], 0).rounds == []


def test_select_same_colored_stars_lex_first():
    sets = [frozenset({2}), frozenset({1}), frozenset({2}), frozenset({1})]
    assert select_same_colored_stars(sets, 2) == (0, 2)
    sets = [frozenset({1}), frozenset({2}), frozenset({2}), frozenset({1})]
    assert select_same_colored_stars(sets, 2) == (0, 3)


def test_select_same_colored_stars_needs_a_family():
    with pytest.raises(NoMonochromeFamily):
        select_same_colored_stars([frozenset({1}), frozenset({2})], 2)


def test_elimination_kills_greedy_delta_2():
    t = elimination_game(2, [Greedy()], rounds_to_extinction(1, 3))
    assert t.all_dead
    assert t.colors_used == [3]  # exactly 2*delta - 1
    g = Graph.from_stream(t.stream)
    assert is_forest(g)
    assert g.max_degree <= 2


def test_elimination_kills_greedy_delta_3():
    t = elimination_game(3, [Greedy()], rounds_to_extinction(1, 286))
    assert t.all_dead
    assert t.colors_used == [5]
    g = Graph.from_stream(t.stream)
    assert is_forest(g)
    assert g.max_degree <= 3


def test_elimination_variant_family_b4():
    family = variant_family(4)
    assert len(family) == 16
    budget = rounds_to_extinction(16, 3)
    t = elimination_game(2, family, budget)
    assert t.all_dead
    assert len(t.rounds) <= budget
    beta = pigeonhole_thresholds(2)[1]
    for r in t.rounds:
        # the pigeonhole decay, re-checked from the transcript
        assert r.alive_after <= r.alive_before - (-(-r.alive_before // beta))
    g = Graph.from_stream(t.stream)
    assert is_forest(g) and g.max_degree <= 2
    assert all(c >= 3 for c in t.colors_used)  # dead means above 2*delta - 2


def test_elimination_palettes_replay_on_the_whole_stream():
    # every member, dead or alive, colors every revealed edge, so a fresh
    # copy replaying the final stream ends on the palette the game reports
    def family():
        return variant_family(2) + [GreedyVariant(m.bits, cycle=False) for m in variant_family(2)]

    _, beta = pigeonhole_thresholds(3)
    t = elimination_game(3, family(), rounds_to_extinction(8, beta))
    assert len(t.rounds) == 2
    assert t.colors_used == [5, 6, 6, 5, 5, 5, 5, 5]
    for i, alg in enumerate(family()):
        assert simulate(t.stream, alg).colors_used == t.colors_used[i]


def test_elimination_stops_early_once_everyone_is_dead():
    t = elimination_game(2, [Greedy()], 5)
    assert t.all_dead
    assert len(t.rounds) == 1  # a lone greedy dies in the first round


def test_rounds_to_extinction_values():
    assert rounds_to_extinction(1, 3) == 1
    assert rounds_to_extinction(16, 3) == 8
    assert rounds_to_extinction(256, 3) == 15
    assert rounds_to_extinction(0, 3) == 0
    beta = pigeonhole_thresholds(7)[1]
    assert beta > 2**53 and rounds_to_extinction(1, beta) == 1


@pytest.mark.parametrize("delta,family_size", [(25, 1), (25, 2), (24, 2), (40, 8)])
def test_rounds_to_extinction_refuses_past_float_range(delta, family_size):
    # 1/beta underflows to 0.0 from delta 25 on; at delta 24 the count for
    # two or more members is past the float range
    with pytest.raises(PreconditionViolated):
        rounds_to_extinction(family_size, pigeonhole_thresholds(delta)[1])


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_permutation_instance_shape(delta):
    inst = build_permutation_instance(delta)
    g = Graph.from_stream(inst.stream)
    assert g.m == delta**3 + delta
    assert is_bipartite(g)
    assert set(g.deg) == {delta}
    col = konig_color(g)
    assert is_proper(g, col) and len(col.palette) == delta


def test_permutation_instance_rejects_non_permutation():
    with pytest.raises(PreconditionViolated):
        build_permutation_instance(3, (0, 0, 1))
    with pytest.raises(PreconditionViolated):
        build_permutation_instance(1)  # no permutation game below delta = 2


def test_permutation_game_forces_greedy():
    res = permutation_game(2, Greedy)
    assert res.forced and res.report.colors_used >= 3
    assert res.pi == (1, 0)  # greedy colors both stars identically
    res = permutation_game(3, Greedy)
    assert res.forced and res.report.colors_used >= 4


def test_permutation_game_forces_prefix_variants():
    for bits in bit_strings(3):
        res = permutation_game(3, lambda: GreedyVariant(bits, cycle=False))
        assert res.forced, f"variant {bits!r} stayed at delta colors"


def test_permutation_game_oracle_consumer_is_immune():
    res = permutation_game(
        3, Greedy, final_run=lambda s: run_advice(s).report
    )
    assert not res.forced
    assert res.report.colors_used == 3 and res.report.optimal


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rigidity_small(n):
    assert rigidity_check(n)


def proper_colorings(edges, k):
    """Every proper coloring of `edges` with colors 1..k, as color tuples in
    edge order, by plain backtracking in that order."""
    colors = []

    def extend(i):
        if i == len(edges):
            yield tuple(colors)
            return
        u, v = edges[i]
        taken = {c for (a, b), c in zip(edges, colors) if a in (u, v) or b in (u, v)}
        for c in range(1, k + 1):
            if c not in taken:
                colors.append(c)
                yield from extend(i + 1)
                colors.pop()

    return extend(0)


def gadget_edges(n):
    stream, e_l, e_r = build_coupled_pair(n)
    assert (e_l, e_r) == (stream.edges[0], stream.edges[-1])
    return [(e.u, e.v) for e in stream.edges]


@pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 12), (3, 576)])
def test_enumeration_shows_the_pendants_rigid(n, count):
    # the pendant edges are the first and the last edge of the gadget
    tight = list(proper_colorings(gadget_edges(n), n + 1))
    assert len(tight) == count
    assert all(c[0] == c[-1] for c in tight)
    if n <= 2:
        assert any(c[0] != c[-1] for c in proper_colorings(gadget_edges(n), n + 2))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_rigidity_decides_the_separating_colorings(n, monkeypatch):
    # Both halves of the check must run on one graph whose k-colorings are
    # as many as the gadget's k-colorings that separate the pendants.
    searched = {}
    for name in ("exact_color", "vizing_plus_one"):
        def spy(g, *args, real=getattr(adversaries, name), name=name, **kwargs):
            searched[name] = [(e.u, e.v) for e in g.edges]
            return real(g, *args, **kwargs)

        monkeypatch.setattr(adversaries, name, spy)
    assert rigidity_check(n)
    assert searched["exact_color"] == searched["vizing_plus_one"]
    for k in (n + 1, n + 2):
        separating = sum(c[0] != c[-1] for c in proper_colorings(gadget_edges(n), k))
        assert sum(1 for _ in proper_colorings(searched["exact_color"], k)) == separating


def _wide(g, *args, **kwargs):
    return Coloring({(0, i): i for i in range(1, 6)})


@pytest.mark.parametrize(
    "engine", ["konig_color", "exact_color", "vizing_plus_one"], ids=["konig", "exact", "wider"]
)
def test_rigidity_needs_the_wider_coloring(engine, monkeypatch):
    # at n = 2 each verdict alone leaves rigidity unproved: a gadget palette
    # other than n + 1 colors, an (n+1)-coloring of the joined graph, or a
    # coloring of it that overshot n + 2 colors
    monkeypatch.setattr(adversaries, engine, _wide)
    assert not rigidity_check(2)


def test_variant_family_sizes():
    assert len(variant_family(0)) == 1
    assert len(variant_family(3)) == 8
    assert len({m.bits for m in variant_family(3)}) == 8


def test_variant_family_rejects_negative_length():
    with pytest.raises(PreconditionViolated):
        variant_family(-1)


class _Constant(OnlineAlgorithm):
    def __init__(self, color):
        self.color = color

    def step(self, edge, advice=None):
        return self.color


@pytest.mark.parametrize("color", [0, "2", 1])
def test_elimination_rejects_misbehaving_member(color):
    # 0 and "2" fail on the first star edge; a constant 1 is fine on the
    # disjoint delta=2 stars and clashes on the first joining edge
    with pytest.raises(ImproperColoring):
        elimination_game(2, [Greedy(), _Constant(color)], 1)


class _Exploding(OnlineAlgorithm):
    def step(self, edge, advice=None):
        raise AssertionError(f"edge {edge.arrival} was revealed")


@pytest.mark.parametrize("delta, size", [(11, 1), (4, 4)])
def test_elimination_refuses_oversized_star_rows(delta, size):
    # delta 11 with one member, and delta 4 with four, would reveal 18 M
    # and 132 M star edges before round 1: refused before any is revealed
    rounds = rounds_to_extinction(size, pigeonhole_thresholds(delta)[1])
    with pytest.raises(PreconditionViolated):
        elimination_game(delta, [_Exploding() for _ in range(size)], rounds)


def test_elimination_plays_the_largest_fitting_game():
    # delta 10's 3,938,229 star edges fit under the limit with one member:
    # the game starts; two members would take twice the steps
    rounds = rounds_to_extinction(1, pigeonhole_thresholds(10)[1])
    assert rounds * pigeonhole_thresholds(10)[0] * 9 <= adversaries.MAX_STAR_STEPS
    with pytest.raises(AssertionError, match="edge 0 was revealed"):
        elimination_game(10, [_Exploding()], rounds)
    with pytest.raises(PreconditionViolated):
        elimination_game(10, [_Exploding(), _Exploding()], rounds)


def test_elimination_limit_counts_every_member_step():
    # at delta 3, 1,189 rounds reveal 30,914 star edges: 129 members take
    # 3,987,906 steps and start, 130 take 4,018,820 and are refused
    alpha, beta = pigeonhole_thresholds(3)
    rounds = rounds_to_extinction(64, beta)
    assert (rounds, rounds * alpha * 2) == (1189, 30_914)
    with pytest.raises(AssertionError, match="edge 0 was revealed"):
        elimination_game(3, [_Exploding() for _ in range(129)], rounds)
    with pytest.raises(PreconditionViolated):
        elimination_game(3, [_Exploding() for _ in range(130)], rounds)


def test_permutation_forced_verdict_consistency():
    # chromatic index of the completed instance stays delta, so "forced"
    # really is suboptimality, not an artifact of the instance
    inst = build_permutation_instance(3, (1, 0, 2))
    assert optimal_coloring(Graph.from_stream(inst.stream))[0] == 3
