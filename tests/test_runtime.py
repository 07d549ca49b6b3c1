import copy
import gc
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecadvice import (
    AdviceAlgorithm,
    AdviceExhausted,
    Coloring,
    Edge,
    EdgeStream,
    Graph,
    Greedy,
    GreedyVariant,
    ImproperColoring,
    MalformedAdvice,
    MalformedTape,
    PreconditionViolated,
    RecoloringAttempt,
    RequestSource,
    SelfLoop,
    TapeSource,
    bits_per_edge,
    build_advice,
    encode_tape,
    gen_bipartite,
    gen_d_degenerate,
    gen_forest,
    gen_star,
    header_bits,
    is_proper,
    pack_record,
    pad_degeneracy,
    run_advice,
    run_greedy,
    serialize_stream,
    simulate,
    unpack_record,
    verify_run,
)
from ecadvice.adversaries import (
    elimination_game,
    permutation_game,
    pigeonhole_thresholds,
    rigidity_check,
    rounds_to_extinction,
    variant_family,
)
from ecadvice import advice
from ecadvice.advice import ceil_log2, degeneracy_from_length, encode_int
from ecadvice.cli import main
from ecadvice.oracle import EdgeAdvice
from ecadvice import runtime
from ecadvice.runtime import DecodedStep, OnlineAlgorithm, Referee

from .conftest import (
    complete_pairs,
    degenerate_streams,
    path_pairs,
    petersen_pairs,
    random_pair_lists,
    stream,
)


def test_greedy_path_colors():
    report = run_greedy(stream(path_pairs(3)))
    assert report.coloring.assignment == {(0, 1): 1, (1, 2): 2, (2, 3): 1}
    assert report.colors_used == 2


@given(random_pair_lists(max_vertices=14, max_edges=26))
@settings(max_examples=80)
def test_greedy_within_two_delta_minus_one(pairs):
    if not pairs:
        return
    s = stream(pairs)
    g = Graph.from_stream(s)
    report = run_greedy(s)
    assert is_proper(g, report.coloring)
    assert report.colors_used <= 2 * g.max_degree - 1


def test_variant_empty_bits_is_greedy():
    s = stream(path_pairs(5))
    a = simulate(s, Greedy())
    b = simulate(s, GreedyVariant(""))
    assert a.coloring.assignment == b.coloring.assignment


def test_variant_cycling_ones_skips_every_step():
    report = simulate(stream(path_pairs(2)), GreedyVariant("1"))
    # smallest legal is skipped each time: 2 on the first edge, then 3
    assert report.coloring.assignment == {(0, 1): 2, (1, 2): 3}


@pytest.mark.parametrize(
    "bits, cycle, colors",
    [("1", False, "2121"), ("01", True, "1313"), ("10", False, "2121"), ("110", False, "2312")],
)
def test_variant_prefix_reverts_to_greedy(bits, cycle, colors):
    pairs = path_pairs(4)
    report = simulate(stream(pairs), GreedyVariant(bits, cycle=cycle))
    assert [report.coloring[p] for p in pairs] == [int(c) for c in colors]


def _reference_greedy(pairs, bits, cycle):
    """Per-vertex color sets and a counting scan: the greedy family written
    the plain way, with a 1 in the string skipping to the second-smallest
    legal color."""
    used: dict[int, set[int]] = {}
    colors = []
    for i, (u, v) in enumerate(pairs):
        au, av = used.setdefault(u, set()), used.setdefault(v, set())
        legal = (c for c in count(1) if c not in au and c not in av)
        c = next(legal)
        if bits and (cycle or i < len(bits)) and bits[i % len(bits)] == "1":
            c = next(legal)
        au.add(c)
        av.add(c)
        colors.append(c)
    return colors


@given(
    random_pair_lists(max_vertices=14, max_edges=40),
    st.text(alphabet="01", max_size=8),
    st.booleans(),
)
@settings(max_examples=150)
@example(pairs=[], bits="", cycle=True)
def test_variant_matches_set_based_reference(pairs, bits, cycle):
    report = simulate(stream(pairs), GreedyVariant(bits, cycle=cycle))
    assert [report.coloring[p] for p in pairs] == _reference_greedy(pairs, bits, cycle)


def test_variant_rejects_junk():
    with pytest.raises(ValueError):
        GreedyVariant("10x")


def test_bad_arguments_raise_precondition(monkeypatch):
    def oracle_must_not_run(*args, **kwargs):
        raise AssertionError("build_advice ran before the model was checked")

    monkeypatch.setattr("ecadvice.oracle.build_advice", oracle_must_not_run)
    calls = [
        lambda: GreedyVariant("10x"),
        lambda: AdviceAlgorithm("loose"),
        lambda: run_advice(gen_star(2), 1, model="telepathy"),
    ]
    for call in calls:
        with pytest.raises(PreconditionViolated) as info:
            call()
        assert info.type is PreconditionViolated


class _Constant(OnlineAlgorithm):
    def step(self, edge, advice=None):
        return 1


class _Broken(OnlineAlgorithm):
    def step(self, edge, advice=None):
        return 0


class _Boolean(OnlineAlgorithm):
    def step(self, edge, advice=None):
        return True


def test_simulate_rejects_improper_step():
    with pytest.raises(ImproperColoring):
        simulate(gen_star(2), _Constant())


def test_simulate_rejects_non_positive_color():
    with pytest.raises(ImproperColoring):
        simulate(gen_star(1), _Broken())
    # bool is an int subclass: two disjoint edges both colored True once
    # passed as a proper coloring
    with pytest.raises(ImproperColoring, match="not a positive int"):
        simulate(stream([(0, 1), (2, 3)]), _Boolean())


def run_json(s: EdgeStream, *argv: str) -> dict:
    """The JSON line `ecadvice run` prints for the stream s."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.stream")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_stream(s))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["run", path, *argv]) == 0
    return json.loads(out.getvalue())


@given(random_pair_lists(max_vertices=12, max_edges=24))
@example([])
@settings(max_examples=60, deadline=None)
def test_simulate_shape_matches_graph(pairs):
    # `ecadvice run` counts n and delta from the stream's edge ends, not
    # from a Graph
    s = stream(pairs)
    g = Graph.from_stream(s)
    for argv in (["--alg", "greedy"], ["--mode", "strict", "--model", "tape"]):
        out = run_json(s, *argv)
        assert (out["n"], out["m"], out["delta"]) == (g.n, g.m, g.max_degree)


def test_simulate_rejects_recoloring():
    # EdgeStream does not deduplicate; the simulator must catch the repeat
    s = EdgeStream((Edge(0, 1, 0), Edge(1, 0, 1)))
    with pytest.raises(RecoloringAttempt):
        simulate(s, Greedy())


def test_simulate_rejects_self_loop():
    # EdgeStream does not reject loops either; the simulator must
    s = EdgeStream((Edge(0, 0, 0), Edge(0, 1, 1)))
    with pytest.raises(SelfLoop):
        simulate(s, Greedy())


class _VertexSetReferee:
    """Reference run ledger keyed by vertex: the set of colors at each."""

    def __init__(self):
        self.assignment = {}
        self.used = {}

    def record(self, edge, color):
        pair = edge.pair
        if type(color) is not int or color < 1:
            raise ImproperColoring(color)
        if pair in self.assignment:
            raise RecoloringAttempt(pair)
        if edge.u == edge.v:
            raise SelfLoop(pair)
        at_u = self.used.setdefault(edge.u, set())
        at_v = self.used.setdefault(edge.v, set())
        if color in at_u or color in at_v:
            raise ImproperColoring(color)
        self.assignment[pair] = color
        at_u.add(color)
        at_v.add(color)


_ODD_COLORS = st.sampled_from([True, False, 0, -1, -7, 10**30, 2.0, "2", None])
_STEPS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4) | _ODD_COLORS),
    max_size=40,
)


def _outcome(referee, edge, color):
    try:
        referee.record(edge, color)
    except (ImproperColoring, RecoloringAttempt, SelfLoop) as exc:
        return type(exc)
    return None


@given(_STEPS)
@example([(0, 1, True), (0, 0, 1), (0, 1, 1), (1, 0, 2), (1, 2, 1), (2, 3, 10**30)])
@settings(max_examples=300)
def test_referee_matches_a_vertex_set_ledger(steps):
    # loops, repeated pairs and colors that are not positive ints are drawn
    # often; every step must be accepted or refused alike, with one type
    referee, reference = Referee(), _VertexSetReferee()
    for i, (u, v, color) in enumerate(steps):
        edge = Edge(u, v, i)
        assert _outcome(referee, edge, color) is _outcome(reference, edge, color)
        assert referee.assignment == reference.assignment
    for w in range(6):
        on_edges = {c for pair, c in referee.assignment.items() if w in pair}
        assert referee.colors_at(w) == on_edges == reference.used.get(w, set())
    assert referee.colors_used == len(set(referee.assignment.values()))


def test_referee_holds_one_set_per_color(monkeypatch):
    # a bound on structure, not on time: one vertex set per color and one
    # entry per edge end, no container per vertex
    made = []

    class Kept(Referee):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(runtime, "Referee", Kept)
    r = simulate(gen_forest(5000, 3), Greedy())
    (referee,) = made
    assert sorted(vars(referee)) == ["assignment", "holders"]
    assert len(referee.holders) == referee.colors_used == r.colors_used
    assert sum(map(len, referee.holders.values())) == 2 * r.m


def test_request_source_meters_and_exhausts():
    src = RequestSource(["010", "111"])
    assert src.next_record() == "010"
    assert src.bits_read == 3
    assert src.next_record() == "111"
    with pytest.raises(AdviceExhausted):
        src.next_record()


def test_tape_source_meters_and_exhausts():
    src = TapeSource("0101")
    assert src.read(3) == "010"
    assert src.bits_read == 3
    with pytest.raises(AdviceExhausted):
        src.read(2)


def test_tape_source_reads_header():
    src = TapeSource("1110101" + "11")
    assert src.open("strict") == 5
    assert src.bits_read == 7
    assert src.read(2) == "11"


def test_request_source_open_meters_nothing():
    src = RequestSource(["011010", "111000"])  # six strict bits: d = 3
    assert src.open("strict") == 3
    assert src.bits_read == 0
    assert src.next_record() == "011010"
    with pytest.raises(AdviceExhausted, match="no record for edge 0"):
        RequestSource([]).open("strict")


@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_tape_source_next_record_reads_one_record_length(mode):
    d = 5
    per = bits_per_edge(d, mode)
    src = TapeSource(encode_tape([], d) + "1" * per + "0" * per)
    assert src.open(mode) == d
    assert src.next_record() == "1" * per
    assert src.next_record() == "0" * per
    assert src.bits_read == header_bits(d) + 2 * per
    src.finish()


def test_sources_are_defined_in_advice():
    assert runtime.RequestSource is advice.RequestSource
    assert runtime.TapeSource is advice.TapeSource


@pytest.mark.parametrize("mode", ["robust", "strict"])
@pytest.mark.parametrize("model", ["request", "tape"])
def test_pipeline_star(mode, model):
    run = run_advice(gen_star(4), 1, mode=mode, model=model)
    r = run.report
    assert r.colors_used == 4 and r.chromatic_index == 4 and r.optimal
    per = bits_per_edge(1, mode)
    expected = 4 * per + (header_bits(1) if model == "tape" else 0)
    assert r.advice_bits_read == expected
    assert r.per_edge_bits == per
    assert r.d == 1 and r.model == model and r.mode == mode


def test_pipeline_renames_colors_contiguously():
    run = run_advice(gen_d_degenerate(20, 2, 3), 2)
    values = set(run.report.coloring.assignment.values())
    assert values == set(range(1, run.report.colors_used + 1))


def test_decoder_infers_padded_d_from_record_length():
    run = run_advice(gen_d_degenerate(16, 2, 0), 5, model="request")
    assert run.algorithm.d == pad_degeneracy(5) == 7


def test_decoder_reads_d_from_tape_header():
    run = run_advice(gen_d_degenerate(16, 2, 0), 3, model="tape")
    assert run.algorithm.d == 3
    assert run.report.advice_bits_read == run.report.m * bits_per_edge(3, "robust") + header_bits(3)


@pytest.mark.parametrize("mode", ["robust", "strict"])
def test_decoder_matches_oracle_subsets(mode):
    run = run_advice(gen_d_degenerate(24, 2, 9), 2, mode=mode)
    assert run.oracle.partition
    assert verify_run(run) == []


@pytest.mark.parametrize("mode", ["robust", "strict"])
def test_run_colors_edges_in_arrival_order(mode):
    # the CLI's coloring file zips the input stream with the run's colors
    s = gen_d_degenerate(24, 2, 9)
    run = run_advice(s, 2, mode=mode)
    if mode == "strict":  # some subset edge is replayed front end first
        assert [(e.u, e.v) for e in run.oracle.stream.edges] != [(e.u, e.v) for e in s.edges]
    pairs = [e.pair for e in s.edges]
    assert list(run.report.coloring.assignment) == pairs
    assert list(run_greedy(s).coloring.assignment) == pairs


class _ReferenceDecoder:
    """The decode rule written plainly: a rename keyed by (mode, value)
    tuples, per-vertex subset counts built with setdefault, and a scan for
    the rank-th open subset at the front endpoint even where it has no
    counts yet."""

    def __init__(self, d, mode):
        self.d, self.mode = d, mode
        self.counts = {}
        self.rename = {}
        self.decoded = []

    def step(self, edge, fields):
        if fields.mode_flag == 0:
            key = (0, fields.color)
            self.decoded.append((edge.arrival, 0, None, None, fields.color))
        else:
            if self.mode == "strict":
                front = edge.u
            elif fields.front_flag == 0:
                front = min(edge.u, edge.v)
            else:
                front = max(edge.u, edge.v)
            counts = self.counts.get(front, {})
            j, seen = 1, 0
            while True:
                if counts.get(j, 0) <= 2 * self.d - 1:
                    if seen == fields.rank:
                        break
                    seen += 1
                j += 1
            for v in (edge.u, edge.v):
                per = self.counts.setdefault(v, {})
                per[j] = per.get(j, 0) + 1
            key = (1, (j - 1) * 2 * self.d + fields.color)
            self.decoded.append((edge.arrival, 1, j, fields.rank, fields.color))
        return self.rename.setdefault(key, len(self.rename) + 1)


@given(
    random_pair_lists(max_vertices=8, max_edges=24),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["robust", "strict"]),
    st.sampled_from(["request", "tape"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_decoder_matches_reference_rule_on_any_valid_records(pairs, k, mode, model, data):
    # records the oracle never emits too: any flags, colors 1..2d and ranks
    # 0..d, such as a nonzero rank at a front endpoint seen for the first time
    d = pad_degeneracy(k)
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    s = stream([(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)])
    record = st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=2 * d),
        st.integers(min_value=0, max_value=d),
        st.integers(min_value=0, max_value=1),
    )
    keys = data.draw(st.lists(record, min_size=s.m, max_size=s.m), label="records")
    records = [pack_record(d, mode, *key) for key in keys]
    src = RequestSource(records) if model == "request" else TapeSource(encode_tape(records, d))
    alg, ref = AdviceAlgorithm(mode), _ReferenceDecoder(d, mode)
    for e, rec in zip(s.edges, records):
        assert alg.step(e, src) == ref.step(e, unpack_record(rec.bits, d, mode))
    assert alg.decoded == ref.decoded


def test_truncated_request_records_exhaust():
    oracle = build_advice(gen_star(4), 1)
    src = RequestSource(oracle.records[:-1])
    with pytest.raises(AdviceExhausted):
        simulate(oracle.stream, AdviceAlgorithm("robust"), src)


def test_truncated_tape_exhausts():
    oracle = build_advice(gen_star(4), 1)
    tape = encode_tape(oracle.records, oracle.d)
    src = TapeSource(tape[:-1])
    with pytest.raises(AdviceExhausted):
        simulate(oracle.stream, AdviceAlgorithm("robust"), src)


@pytest.mark.parametrize("mode", ["robust", "strict"])
def test_non_bit_header_is_malformed_tape(mode):
    oracle = build_advice(gen_d_degenerate(12, 2, 18), 2, mode=mode)
    assert oracle.d == 2  # header "100": a unary prefix and a value field
    tape = encode_tape(oracle.records, oracle.d)
    # a '2' read as a 1 in the prefix would still decode d = 2
    for at in (0, header_bits(oracle.d) - 1):
        src = TapeSource(tape[:at] + "2" + tape[at + 1 :])
        with pytest.raises(MalformedTape):
            simulate(oracle.stream, AdviceAlgorithm(mode), src)


def test_leftover_advice_raises():
    oracle = build_advice(gen_d_degenerate(12, 2, 18), 2)
    records = [r.bits for r in oracle.records]
    # one bit slipped in before the last record: every record still reads
    # in full and the shifted last one yields another proper coloring, so
    # only the bit left over shows the fault.  That premise depends on the
    # oracle's colorings, so it is checked first.
    shifted = records[:-1] + ["0" + records[-1]]
    read = records[:-1] + [shifted[-1][: len(records[-1])]]
    assert read[-1] != records[-1]
    premise = simulate(oracle.stream, AdviceAlgorithm("robust"), RequestSource(read))
    assert is_proper(Graph.from_stream(oracle.stream), premise.coloring)
    tape = encode_tape([], oracle.d) + "".join(shifted)
    with pytest.raises(MalformedTape):
        simulate(oracle.stream, AdviceAlgorithm("robust"), TapeSource(tape))
    with pytest.raises(MalformedAdvice):
        simulate(oracle.stream, AdviceAlgorithm("robust"), RequestSource(records + records[:1]))


def test_empty_stream_reads_no_advice():
    for model in ("request", "tape"):
        run = run_advice(EdgeStream(()), 1, model=model)
        assert run.report.advice_bits_read == 0
        assert verify_run(run) == []
    # a tape nothing reads may hold one header, and nothing more
    for source in (RequestSource([]), TapeSource(""), TapeSource("0"), TapeSource("11000")):
        assert simulate(EdgeStream(()), AdviceAlgorithm(), source).advice_bits_read == 0
    with pytest.raises(MalformedAdvice):
        simulate(EdgeStream(()), AdviceAlgorithm(), RequestSource(["010"]))
    with pytest.raises(MalformedTape):
        simulate(EdgeStream(()), AdviceAlgorithm(), TapeSource("0111000"))


@pytest.mark.parametrize("length", [44, 100, 200])
@pytest.mark.parametrize("model", ["request", "tape"])
def test_large_claimed_rank_fails_fast(length, model):
    # two subset records at rank d on edges sharing the front endpoint 0:
    # both land in subset d + 1 with color 1, so the second edge clashes;
    # finding subset d + 1 costs nothing, however large d is
    d = degeneracy_from_length(length, "strict")
    records = [pack_record(d, "strict", 1, 1, d)] * 2
    assert len(records[0]) == length
    src = RequestSource(records) if model == "request" else TapeSource(encode_tape(records, d))
    with pytest.raises(ImproperColoring):
        simulate(stream([(0, 1), (0, 2)]), AdviceAlgorithm("strict"), src)


def test_corrupt_record_raises_malformed():
    # six strict bits imply d=3; color field 111 decodes to 8 > 2d
    src = RequestSource(["0" + "111" + "00"])
    with pytest.raises(MalformedAdvice):
        simulate(gen_star(1), AdviceAlgorithm("strict"), src)


def test_advice_algorithm_requires_source():
    with pytest.raises(AdviceExhausted):
        simulate(gen_star(1), AdviceAlgorithm("robust"), None)


def test_report_summary_keys():
    assert set(run_json(gen_star(2), "--d", "1")) == {
        "config",
        "per_edge_bits",
        "colors_used",
        "chromatic_index",
        "optimal",
        "advice_bits_read",
        "m",
        "n",
        "delta",
        "d",
        "mode",
    }


@given(
    st.integers(min_value=2, max_value=22),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1500),
    st.sampled_from(["robust", "strict"]),
    st.sampled_from(["request", "tape"]),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_random_instances(n, d, seed, mode, model):
    s = gen_d_degenerate(n, d, seed)
    if s.m == 0:
        return
    assert verify_run(run_advice(s, d, mode=mode, model=model)) == []


@pytest.fixture(scope="module")
def bundled_run():
    # max degree 4 >= 2d = 2: every record is a subset record, two bundles
    run = run_advice(gen_d_degenerate(14, 1, 3), 1, mode="robust", model="tape")
    assert run.oracle.partition and verify_run(run) == []
    return run


@pytest.fixture(scope="module")
def triangle_run():
    # max degree 2 < 2d = 4: class 2, every record literal
    run = run_advice(stream([(0, 1), (1, 2), (2, 0)]), 2)
    assert run.oracle.chromatic_index == 3 and verify_run(run) == []
    return run


@pytest.fixture(scope="module")
def k4_run():
    # K4: max degree 3 < 2d = 6 and class 1, every record literal
    run = run_advice(stream(complete_pairs(4)), 3)
    assert run.oracle.chromatic_index == 3 and verify_run(run) == []
    return run


@pytest.fixture(scope="module")
def peel_run():
    # 3-degenerate with max degree 5 < 2d = 6: class 1, and 12 edges are
    # not overfull, so only a search can refute a class-2 claim
    run = run_advice(gen_d_degenerate(6, 3, 0), 3)
    assert (run.oracle.delta, run.oracle.chromatic_index, run.oracle.stream.m) == (5, 5, 12)
    assert verify_run(run) == []
    return run


def test_class2_claim_verifies_on_petersen():
    # 3-regular and 15 = 3*(10//2) edges, not overfull: the search must
    # refute every 3-coloring before the honest chi = 4 passes
    run = run_advice(stream(petersen_pairs()), 3)
    assert (run.oracle.delta, run.oracle.chromatic_index) == (3, 4)
    assert verify_run(run) == []


def _share_color(run):
    edges = run.oracle.stream.edges
    a, b = next((e, f) for e in edges for f in edges if e != f and {e.u, e.v} & {f.u, f.v})
    colors = dict(run.report.coloring.assignment)
    colors[b.pair] = colors[a.pair]
    run.report.coloring = Coloring(colors)


def _uncolor_one(run):
    colors = dict(run.report.coloring.assignment)
    colors.popitem()
    run.report.coloring = Coloring(colors)


def _set_chi(run, chi):
    # consistent everywhere, so only the bounds on chi can object
    run.oracle.chromatic_index = run.report.chromatic_index = run.report.colors_used = chi


def _rank_above_d(run):
    i = next(i for i, adv in enumerate(run.oracle.per_edge) if adv.mode == 1)
    rank = run.oracle.d + 1
    run.oracle.per_edge[i] = run.oracle.per_edge[i]._replace(rank=rank)
    run.algorithm.decoded[i] = run.algorithm.decoded[i]._replace(rank=rank)


def _dense_bundle(run):
    members = run.oracle.partition[1]
    g = Graph(members)
    v = g.vertices[g.deg.index(g.max_degree)]
    fresh = max(w for e in run.oracle.stream.edges for w in (e.u, e.v)) + 1
    members.append(Edge(v, fresh, len(members)))


def _bump(obj, name):
    setattr(obj, name, getattr(obj, name) + 1)


def _move_decoded_subset(run):
    decoded = run.algorithm.decoded
    i = next(i for i, step in enumerate(decoded) if step.mode == 1)
    decoded[i] = decoded[i]._replace(subset=decoded[i].subset + 1)


TAMPERED = {
    "adjacent-edges-share-a-color": ("bundled_run", _share_color, "proper"),
    "an-edge-left-uncolored": ("bundled_run", _uncolor_one, "proper"),
    "colors-used-plus-one": ("bundled_run", lambda r: _bump(r.report, "colors_used"), "optimal"),
    "not-reported-optimal": (
        "bundled_run", lambda r: setattr(r.report, "optimal", False), "optimal"
    ),
    "chi-above-delta-plus-one": ("triangle_run", lambda r: _set_chi(r, 4), "optimal"),
    "chi-delta-plus-one-on-class-1": ("bundled_run", lambda r: _set_chi(r, 5), "optimal"),
    "chi-delta-plus-one-on-k4": ("k4_run", lambda r: _set_chi(r, 4), "optimal"),
    "chi-delta-plus-one-below-2d": ("peel_run", lambda r: _set_chi(r, 6), "optimal"),
    "bits-read-plus-one": ("bundled_run", lambda r: _bump(r.report, "advice_bits_read"), "bits"),
    "record-length-plus-one": ("bundled_run", lambda r: _bump(r.report, "per_edge_bits"), "bits"),
    "rank-above-d": ("bundled_run", _rank_above_d, "rank"),
    "bundle-with-an-extra-edge": ("bundled_run", _dense_bundle, "bundles"),
    "decoded-subset-changed": ("bundled_run", _move_decoded_subset, "decoder"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_verify_run_reports_each_tampered_property(request, case):
    fixture, tamper, prop = TAMPERED[case]
    run = copy.deepcopy(request.getfixturevalue(fixture))
    tamper(run)
    problems = verify_run(run)
    assert [p.split(":", 1)[0] for p in problems] == [prop], problems


def test_plan_and_decoded_steps_are_immutable(bundled_run):
    # checks and benchmarks read these fields by name
    assert EdgeAdvice._fields == ("mode", "color", "subset", "rank", "front")
    assert EdgeAdvice(0, 3) == EdgeAdvice(0, 3, None, None, None)
    assert DecodedStep._fields == ("arrival", "mode", "subset", "rank", "color")
    adv = next(a for a in bundled_run.oracle.per_edge if a.mode == 1)
    step = bundled_run.algorithm.decoded[0]
    for obj, name in ((adv, "subset"), (adv, "rank"), (step, "subset"), (step, "color")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)


def _corrupt(bits, d, mode, kind, data):
    """A corrupted copy of `bits`, or None when `kind` cannot apply at this d."""
    start = 2 if mode == "robust" else 1  # where the color field begins
    cw, rw = ceil_log2(2 * d), ceil_log2(d + 1)
    if kind == "color":
        if 2 * d >= 1 << cw:
            return None
        raw = data.draw(st.integers(min_value=2 * d, max_value=(1 << cw) - 1))
        return bits[:start] + encode_int(raw, cw) + bits[start + cw :]
    if kind == "rank":
        if d + 1 >= 1 << rw:
            return None
        rank = data.draw(st.integers(min_value=d + 1, max_value=(1 << rw) - 1))
        return "1" + bits[1 : start + cw] + encode_int(rank, rw)
    if kind == "length":
        if data.draw(st.booleans()):
            return bits[:-1]
        at = data.draw(st.integers(min_value=0, max_value=len(bits)))
        return bits[:at] + data.draw(st.sampled_from("01")) + bits[at:]
    at = data.draw(st.integers(min_value=0, max_value=len(bits) - 1))
    return bits[:at] + data.draw(st.sampled_from("2x ")) + bits[at + 1 :]


_CONSUMER_ERRORS = (
    MalformedAdvice,
    MalformedTape,
    AdviceExhausted,
    ImproperColoring,
    RecoloringAttempt,
)


@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from(["robust", "strict"]),
    st.sampled_from(["request", "tape"]),
    st.sampled_from(["color", "rank", "length", "char"]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_consumer_fuzz_corrupt_records(n, k, extra, seed, mode, model, kind, data):
    s = gen_d_degenerate(n, k, seed)
    if s.m == 0:
        return
    run = run_advice(s, k + extra - 1, mode=mode, model=model)
    oracle, expected = run.oracle, run.report.coloring
    records = [r.bits for r in oracle.records]
    at = data.draw(st.integers(min_value=0, max_value=len(records) - 1), label="at")
    bad = _corrupt(records[at], oracle.d, mode, kind, data)
    if bad is None:
        return
    records[at] = bad
    repeats = data.draw(
        st.lists(st.integers(min_value=at + 1, max_value=len(records) - 1), max_size=3)
        if at + 1 < len(records)
        else st.just([]),
        label="repeats",
    )
    for j in repeats:
        records[j] = bad

    def source():
        if model == "request":
            return RequestSource(records)
        return TapeSource(encode_tape([], oracle.d) + "".join(records))

    # a whole run reproduces the oracle's coloring or fails in a defined way
    try:
        report = simulate(oracle.stream, AdviceAlgorithm(mode), source())
    except _CONSUMER_ERRORS:
        pass
    else:
        assert report.coloring.assignment == expected.assignment

    # a corrupted record fails on every appearance, not just the first; a
    # wrong length realigns the whole tape, so only the request model is
    # stepped record by record for it, and only after d is known
    if kind == "length" and (model == "tape" or at == 0):
        return
    alg, src = AdviceAlgorithm(mode), source()
    for i, edge in enumerate(oracle.stream.edges):
        if records[i] == bad:
            with pytest.raises(MalformedAdvice):
                alg.step(edge, src)
        else:
            alg.step(edge, src)


@given(
    degenerate_streams(max_n=22, max_d=3),
    st.sampled_from(["robust", "strict"]),
    st.sampled_from(["request", "tape"]),
)
@settings(max_examples=40, deadline=None)
def test_codec_runs_once_per_distinct_record(case, mode, model):
    s, d = case
    packed, parsed = [], []

    def counted_pack(dd, mode_, mode_flag, color, rank, front_flag=0):
        packed.append((mode_flag, color, rank, front_flag))
        return pack_record(dd, mode_, mode_flag, color, rank, front_flag)

    def counted_unpack(bits, dd, mode_):
        parsed.append(bits)
        return unpack_record(bits, dd, mode_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("ecadvice.oracle.pack_record", counted_pack)
        mp.setattr("ecadvice.runtime.unpack_record", counted_unpack)
        run = run_advice(s, d, mode=mode, model=model)
    oracle = run.oracle

    # reference: pack every edge afresh from the oracle's plan; a strict
    # record does not write the front flag, so its key holds it as 0
    keys = []
    for e, adv in zip(s.edges, oracle.per_edge):
        if adv.mode == 0:
            keys.append((0, adv.color, 0, 0))
        else:
            front = 0 if mode == "strict" or adv.front == min(e.u, e.v) else 1
            keys.append((1, adv.color, adv.rank, front))
    assert oracle.records == [pack_record(oracle.d, mode, *key) for key in keys]
    assert sorted(packed) == sorted(set(keys))
    # edges with equal keys share one record value
    shared = {key: oracle.records[i] for i, key in enumerate(keys)}
    assert all(oracle.records[i] is shared[key] for i, key in enumerate(keys))

    bits = [r.bits for r in oracle.records]
    assert sorted(parsed) == sorted(set(bits))
    decoded = []
    for i, b in enumerate(bits):
        f = unpack_record(b, oracle.d, mode)
        decoded.append((i, f.mode_flag, f.rank if f.mode_flag else None, f.color))
    assert [(x.arrival, x.mode, x.rank, x.color) for x in run.algorithm.decoded] == decoded


def unreachable_after(call) -> int:
    """What gc.collect() finds after call() with the collector paused; the
    collector's state is restored even when call raises."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        kept = call()  # noqa: F841 - held, so only garbage is counted
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


GC_STREAMS = {
    "forest": gen_forest(300, 1),
    "d3": gen_d_degenerate(60, 3, 1),
    "bipartite-dense": gen_bipartite(20, 20, 0.5, 1),
    "star": gen_star(50),
    "empty": stream([]),
}


@pytest.mark.parametrize("name", GC_STREAMS)
def test_pipeline_leaves_no_cyclic_garbage(name):
    # pausing the collector over a run is safe only if a run makes no
    # reference cycles for it to find
    s = GC_STREAMS[name]
    for mode in ("robust", "strict"):
        for model in ("request", "tape"):
            def advice_run():
                run = run_advice(s, mode=mode, model=model)
                return run, verify_run(run)

            assert unreachable_after(advice_run) == 0, (mode, model)
    assert unreachable_after(lambda: run_greedy(s)) == 0


def test_adversary_games_leave_no_cyclic_garbage():
    beta = pigeonhole_thresholds(3)[1]
    calls = [
        lambda: elimination_game(3, variant_family(3), rounds_to_extinction(8, beta)),
        lambda: permutation_game(8, Greedy),
        lambda: permutation_game(8, Greedy, final_run=lambda s: run_advice(s).report),
        lambda: rigidity_check(24, budget=0),
    ]
    assert [unreachable_after(call) for call in calls] == [0, 0, 0, 0]
