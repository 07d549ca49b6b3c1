"""Acceptance gate: every shipped claim, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
The instance corpus is built once per module and shared by the criteria
that quantify over it.
"""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from ecadvice import (
    Graph,
    Greedy,
    GreedyVariant,
    build_permutation_instance,
    ceil_log2,
    elimination_game,
    exact_color,
    gen_d_degenerate,
    gen_forest,
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
    run_greedy,
    variant_family,
    verify_run,
)
from ecadvice.advice import bits_per_edge

from .test_coloring import CORPUS, product_colorable
from .conftest import (
    about,
    bit_strings,
    brute_force_chromatic_index,
    brute_force_colorable,
    checked_vizing,
    graph,
)

PER_CLASS = 200

CLASSES = [
    # (label, d bound, max delta filter, generator)
    ("forest-d1", 1, None, lambda s: gen_forest(40 + s % 61, s)),   # n <= 100
    ("deg-d2", 2, None, lambda s: gen_d_degenerate(8 + s % 53, 2, s)),   # n <= 60
    ("deg-d3", 3, None, lambda s: gen_d_degenerate(8 + s % 53, 3, s)),   # n <= 60
    ("deg-d5", 5, 12, lambda s: gen_d_degenerate(12 + s % 17, 5, s)),    # n <= 40
]


def _verdict(name: str, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail})")
    assert not failures, f"{name}: " + "; ".join(failures[:10])


@pytest.fixture(scope="module")
def corpus():
    instances = []
    for label, d, delta_cap, gen in CLASSES:
        done, seed = 0, 0
        while done < PER_CLASS:
            s = gen(seed)
            seed += 1
            g = Graph.from_stream(s)
            if g.m == 0:
                continue
            if delta_cap is not None and g.max_degree > delta_cap:
                continue
            mode = "strict" if done % 2 else "robust"
            model = "tape" if done % 4 >= 2 else "request"
            run = run_advice(s, d, mode=mode, model=model)
            instances.append(
                SimpleNamespace(
                    label=label,
                    d=d,
                    stream=s,
                    graph=g,
                    run=run,
                    problems=verify_run(run),
                    greedy=run_greedy(s),
                )
            )
            done += 1
    return instances


def _problems(corpus, *properties):
    return [f"{inst.label}: {p}" for inst in corpus for p in about(inst.problems, *properties)]


def test_criterion_1_optimality(corpus):
    failures = _problems(corpus, "proper", "optimal")
    counts = {label: sum(1 for i in corpus if i.label == label) for label, *_ in CLASSES}
    if any(c != PER_CLASS for c in counts.values()):
        failures.append(f"class sizes off: {counts}")
    _verdict(
        "1 optimality",
        failures,
        f"{len(corpus)} instances over {len(CLASSES)} classes, all at chromatic index",
    )


def test_criterion_2_advice_budget(corpus):
    failures = _problems(corpus, "bits")
    for d in range(1, 9):
        expected = 1 + ceil_log2(2 * d) + ceil_log2(d + 1)
        if bits_per_edge(d, "strict") != expected:
            failures.append(f"d={d}: {bits_per_edge(d, 'strict')} != {expected}")
    if bits_per_edge(5, "strict") != 8:
        failures.append("d=5 strict record is not 8 bits")
    tape_runs = sum(1 for inst in corpus if inst.run.report.model == "tape")
    _verdict(
        "2 advice budget",
        failures,
        f"per-edge formula for d=1..8; totals metered on {tape_runs} tape runs",
    )


def test_criterion_3_partition_invariants(corpus):
    failures = _problems(corpus, "rank", "bundles", "decoder")
    checked_edges = sum(adv.mode == 1 for inst in corpus for adv in inst.run.oracle.per_edge)
    if not checked_edges:
        failures.append("no subset edges in the corpus")
    _verdict(
        "3 partition invariants",
        failures,
        f"subset degree and rank bounds plus decoder agreement on {checked_edges} subset edges",
    )


def test_criterion_4_greedy_bound_and_tightness(corpus):
    failures = []
    for inst in corpus:
        bound = 2 * inst.graph.max_degree - 1
        if inst.greedy.colors_used > bound:
            failures.append(f"{inst.label}: greedy used {inst.greedy.colors_used} > {bound}")
    for delta in (2, 3):
        _, beta = pigeonhole_thresholds(delta)
        t = elimination_game(delta, [Greedy()], rounds_to_extinction(1, beta))
        if t.colors_used != [2 * delta - 1] or not t.all_dead:
            failures.append(f"delta={delta}: greedy shows {t.colors_used}")
    _verdict(
        "4 greedy bound",
        failures,
        f"<= 2*delta - 1 on {len(corpus)} instances; equality forced at delta in {{2,3}}",
    )


def test_criterion_5_elimination_dynamics():
    failures = []
    for b in (4, 6, 8):
        family = variant_family(b)
        if len(family) != 2**b:
            failures.append(f"b={b}: family size {len(family)}")
        budget = rounds_to_extinction(2**b, 3)
        if budget != math.ceil(math.log(2**b) / math.log(3 / 2)) + 1:
            failures.append(f"b={b}: round budget {budget}")
        t = elimination_game(2, family, budget)
        for r in t.rounds:
            if r.alive_after > r.alive_before - math.ceil(r.alive_before / 3):
                failures.append(f"b={b} round {r.row}: decay bound missed")
        if not t.all_dead or len(t.rounds) > budget:
            failures.append(f"b={b}: {len(t.rounds)} rounds, all_dead={t.all_dead}")
        g = Graph.from_stream(t.stream)
        if not is_forest(g) or g.max_degree > 2:
            failures.append(f"b={b}: final graph not a forest with delta <= 2")
    _verdict(
        "5 elimination dynamics",
        failures,
        "families 2^b for b in {4,6,8} all dead within the decay budget",
    )


def test_criterion_6_gadget_rigidity():
    failures = []
    for n in (1, 2, 3):
        if not rigidity_check(n):
            failures.append(f"n={n}: rigidity check failed")
    _verdict("6 gadget rigidity", failures, "full enumeration for n in {1,2,3}")


def test_criterion_7_permutation_instances():
    failures = []
    for delta in (2, 3, 4):
        inst = build_permutation_instance(delta)
        g = Graph.from_stream(inst.stream)
        if g.m != delta**3 + delta:
            failures.append(f"delta={delta}: {g.m} edges")
        if not is_bipartite(g) or set(g.deg) != {delta}:
            failures.append(f"delta={delta}: not bipartite delta-regular")
        col = konig_color(g)
        if not is_proper(g, col) or len(col.palette) != delta:
            failures.append(f"delta={delta}: konig used {len(col.palette)}")
        res = permutation_game(delta, Greedy)
        if not res.forced:
            failures.append(f"delta={delta}: greedy not forced past delta")
    members = 0
    for delta in (2, 3):
        for bits in bit_strings(ceil_log2(math.factorial(delta))):
            res = permutation_game(delta, lambda: GreedyVariant(bits, cycle=False))
            members += 1
            if not res.forced:
                failures.append(f"delta={delta}: variant {bits!r} not forced")
    _verdict(
        "7 permutation instances",
        failures,
        f"shape and konig at delta in {{2,3,4}}; greedy and {members} prefix members forced",
    )


def test_criterion_8_offline_cross_validation():
    failures = []
    literal_checks = 0
    for pairs in CORPUS:
        g = graph(pairs)
        if g.m > 14:
            failures.append(f"corpus graph with {g.m} > 14 edges")
            continue
        chi = brute_force_chromatic_index(g)
        for k in range(1, g.max_degree + 2):
            if (exact_color(g, k) is not None) != (k >= chi):
                failures.append(f"m={g.m}: exact_color({k}) disagrees with brute force")
            if g.m <= 6 and k <= 3:
                literal_checks += 1
                if brute_force_colorable(g, k) != product_colorable(g, k):
                    failures.append(f"m={g.m}: pruned recursion vs literal k^m scan at k={k}")
        viz = checked_vizing(g)
        if not is_proper(g, viz) or len(viz.palette) > g.max_degree + 1:
            failures.append(f"m={g.m}: vizing_plus_one broke the delta+1 bound")
        if is_bipartite(g):
            kc = konig_color(g)
            if not is_proper(g, kc) or len(kc.palette) != g.max_degree:
                failures.append(f"m={g.m}: konig missed delta")
    _verdict(
        "8 offline cross-validation",
        failures,
        f"{len(CORPUS)} corpus graphs, {literal_checks} literal product scans",
    )


def test_readme_library_tour_runs():
    # the README's library tour is the documented API: dropping an export it
    # imports, or breaking a call it makes, fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "## Quick tour (library)" in readme
    tour = readme.split("## Quick tour (library)", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    report, s = namespace["run"].report, namespace["s"]
    assert report.optimal
    assert report.advice_bits_read == s.m * bits_per_edge(2, "robust")
    assert report.colors_used == optimal_coloring(Graph.from_stream(s))[0]
