import json
import os
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecadvice import Graph, parse_stream, run_advice
from ecadvice import cli
from ecadvice.cli import main

from .conftest import cycle_pairs, stream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_stream(tmp_path, pairs, name="g.txt"):
    from ecadvice import serialize_stream

    path = tmp_path / name
    path.write_text(serialize_stream(stream(pairs)))
    return str(path)


def test_gen_writes_parseable_stream(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code, stdout, stderr = run_cli(
        capsys, "gen", "d-degenerate", "--n", "15", "--d", "2", "--seed", "7", "-o", str(out)
    )
    assert code == 0
    s = parse_stream(out.read_text())
    assert s.m > 0
    assert "degeneracy=" in stderr


def test_gen_stdout_when_no_output_path(capsys):
    code, stdout, _ = run_cli(capsys, "gen", "star", "--delta", "3")
    assert code == 0
    assert parse_stream(stdout).m == 3


def test_gen_coupled_pair_comments_mark_pendants(tmp_path, capsys):
    out = tmp_path / "cp.txt"
    code, _, _ = run_cli(capsys, "gen", "coupled-pair", "--n", "2", "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert "pendant left" in text and "pendant right" in text
    assert parse_stream(text).m == 10


@pytest.mark.parametrize("pi,expected", [(None, "0,1,2,3"), ("1,0,2,3", "1,0,2,3")])
def test_gen_permutation_comment_names_pi(capsys, pi, expected):
    argv = ["gen", "permutation", "--delta", "4"] + (["--pi", pi] if pi else [])
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 0
    assert stdout.splitlines()[0] == f"# pi: {expected}"
    g = Graph.from_stream(parse_stream(stdout))
    assert (g.n, g.m, g.max_degree) == (34, 68, 4)
    assert "n=34 m=68 delta=4" in stderr


@pytest.mark.parametrize("pi", ["1,1,2,3", "a,b"])
def test_gen_permutation_rejects_bad_pi(capsys, pi):
    code, stdout, stderr = run_cli(capsys, "gen", "permutation", "--delta", "4", "--pi", pi)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ")


def test_run_advice_reports_optimal(tmp_path, capsys):
    path = write_stream(tmp_path, [(0, i) for i in range(1, 5)])
    code, stdout, _ = run_cli(capsys, "run", path, "--alg", "advice", "--d", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["optimal"] is True
    assert doc["colors_used"] == 4 == doc["chromatic_index"]
    assert doc["config"]["stream_sha256"]
    assert doc["per_edge_bits"] == 4


def test_run_greedy_exits_zero_without_optimality(tmp_path, capsys):
    path = write_stream(tmp_path, cycle_pairs(5))
    code, stdout, _ = run_cli(capsys, "run", path, "--alg", "greedy")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["optimal"] is None
    assert doc["colors_used"] <= 3


def test_run_output_is_byte_identical_across_invocations(tmp_path, capsys):
    path = write_stream(tmp_path, cycle_pairs(6))
    code1, out1, _ = run_cli(capsys, "run", path, "--alg", "advice")
    code2, out2, _ = run_cli(capsys, "run", path, "--alg", "advice")
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_writes_coloring_file(tmp_path, capsys):
    path = write_stream(tmp_path, cycle_pairs(4))
    out = tmp_path / "col.txt"
    code, _, _ = run_cli(
        capsys, "run", path, "--alg", "advice", "--coloring-out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    colors = {}
    for line in lines:
        u, v, c = map(int, line.split())
        colors[(min(u, v), max(u, v))] = c
    from ecadvice import is_proper

    assert is_proper(Graph.from_stream(stream(cycle_pairs(4))), colors)


@pytest.mark.parametrize("alg", ["advice", "greedy"])
def test_run_unwritable_coloring_out_prints_no_report(tmp_path, capsys, alg):
    path = write_stream(tmp_path, cycle_pairs(4))
    target = str(tmp_path / "missing" / "x.colors")
    code, stdout, stderr = run_cli(capsys, "run", path, "--alg", alg, "--coloring-out", target)
    assert code == 2
    assert stdout == ""
    assert "error" in stderr


def test_run_rejects_missing_file(capsys):
    code, _, stderr = run_cli(capsys, "run", "/nonexistent/stream.txt")
    assert code == 2
    assert "error" in stderr


def test_run_rejects_malformed_stream(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 x\n")
    code, _, _ = run_cli(capsys, "run", str(path))
    assert code == 2


def test_run_rejects_underestimated_d(tmp_path, capsys):
    path = write_stream(tmp_path, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    code, _, _ = run_cli(capsys, "run", path, "--alg", "advice", "--d", "1")
    assert code == 2


@pytest.mark.parametrize("d", ["0", "-1"])
def test_run_rejects_d_below_one(tmp_path, capsys, d):
    # d is refused before the stream's degeneracy is compared with it
    path = write_stream(tmp_path, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    code, stdout, stderr = run_cli(capsys, "run", path, "--d", d)
    assert (code, stdout) == (2, "")
    assert "d must be >= 1" in stderr and "degeneracy" not in stderr


def test_run_budget_exhaustion_exits_three(tmp_path, capsys):
    from .conftest import petersen_pairs

    path = write_stream(tmp_path, petersen_pairs())
    code, _, stderr = run_cli(capsys, "run", path, "--alg", "advice", "--budget", "5")
    assert code == 3
    assert "resource limit" in stderr


def test_run_property_violation_exits_one(tmp_path, capsys, monkeypatch):
    from ecadvice.runtime import AdviceAlgorithm

    # a decoder that gives every edge color 1 repeats it at vertex 1
    monkeypatch.setattr(AdviceAlgorithm, "step", lambda self, edge, advice: 1)
    path = write_stream(tmp_path, [(0, 1), (1, 2)])
    code, stdout, stderr = run_cli(capsys, "run", path, "--alg", "advice")
    assert code == 1
    assert stdout == ""
    assert "property violation: ImproperColoring" in stderr


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    from .conftest import star_pairs

    # a star needs no search at all, so only the budget check can refuse it
    path = write_stream(tmp_path, star_pairs(4))
    code, stdout, stderr = run_cli(capsys, "run", path, "--alg", "advice", "--budget", "-1")
    assert code == 2
    assert stdout == ""
    assert "budget" in stderr
    for argv in (["run", path, "--alg", "greedy", "--budget", "-1"],
                 ["check", "invariants", "--count", "1", "--budget", "-1"],
                 ["check", "rigidity", "--budget", "-1"]):
        assert run_cli(capsys, *argv)[0] == 2


def test_zero_budget_runs_without_search(tmp_path, capsys):
    from .conftest import star_pairs

    path = write_stream(tmp_path, star_pairs(4))
    code, stdout, _ = run_cli(capsys, "run", path, "--alg", "advice", "--budget", "0")
    assert code == 0
    assert json.loads(stdout)["optimal"] is True


def test_zero_budget_overfull_and_even_order_class_2(tmp_path, capsys):
    from .conftest import petersen_pairs

    # K5 is overfull, so no search decides its class; Petersen (n = 10) is
    # not, so it still needs the search and runs out of a zero budget
    code, stdout, _ = run_cli(capsys, "gen", "d-degenerate", "--n", "5", "--d", "4")
    assert code == 0
    k5 = tmp_path / "k5.stream"
    k5.write_text(stdout)
    code, stdout, _ = run_cli(capsys, "run", str(k5), "--budget", "0")
    assert code == 0
    assert json.loads(stdout)["chromatic_index"] == 5
    path = write_stream(tmp_path, petersen_pairs())
    assert run_cli(capsys, "run", path, "--alg", "advice", "--budget", "0")[0] == 3


@pytest.mark.parametrize("argv", [
    ["gen", "bipartite", "--p", "2"],
    ["gen", "bipartite", "--a", "-1"],
    ["gen", "coupled-pair", "--n", "-1"],
    ["check", "rigidity", "--n", "-1"],
    ["gen", "forest", "--n", "-1"],
    ["gen", "star", "--delta", "-1"],
    ["adversary", "elimination", "--delta", "2", "--rounds", "-1"],
    ["adversary", "permutation", "--delta", "3", "--alg", "bogus"],
])
def test_bad_generator_arguments_exit_two(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert "PreconditionViolated" in stderr


def test_adversary_elimination_greedy(capsys):
    code, stdout, _ = run_cli(
        capsys, "adversary", "elimination", "--delta", "2", "--family", "greedy"
    )
    assert code == 0
    lines = [json.loads(line) for line in stdout.splitlines()]
    summary = lines[-1]
    assert summary["all_dead"] is True
    assert summary["forest"] is True
    assert summary["colors_used"] == [3]
    assert summary["max_degree"] <= 2


def test_adversary_elimination_variants(capsys):
    code, stdout, _ = run_cli(
        capsys, "adversary", "elimination", "--delta", "2", "--family", "variants:4"
    )
    assert code == 0
    summary = json.loads(stdout.splitlines()[-1])
    assert summary["family_size"] == 16
    assert summary["all_dead"] is True


def test_adversary_elimination_past_float_precision(capsys):
    # beta(7) is above 2**53, where beta / (beta - 1) rounds to 1.0
    code, stdout, _ = run_cli(capsys, "adversary", "elimination", "--delta", "7")
    assert code == 0
    summary = json.loads(stdout.splitlines()[-1])
    assert (summary["rounds_played"], summary["m"]) == (1, 33_277)


@pytest.mark.parametrize("argv", [["--delta", "25"], ["--delta", "24", "--family", "variants:1"]])
def test_adversary_elimination_past_float_range_is_usage_error(capsys, argv):
    # 1/beta(25) underflows to 0.0, and beta(24) puts two members' round
    # count past the float range: refused before any game starts
    code, stdout, stderr = run_cli(capsys, "adversary", "elimination", *argv)
    assert code == 2
    assert stdout == ""
    assert "PreconditionViolated" in stderr


class _Exploding:
    def step(self, edge, advice=None):
        raise AssertionError(f"edge {edge.arrival} was revealed")


@pytest.mark.parametrize("argv", [["--delta", "11"], ["--delta", "4", "--family", "variants:2"]])
def test_adversary_elimination_oversized_game_is_usage_error(capsys, monkeypatch, argv):
    # their star rows hold 18 M and 132 M edges: refused before any is revealed
    monkeypatch.setattr(cli, "Greedy", _Exploding)
    monkeypatch.setattr(cli, "variant_family", lambda k: [_Exploding() for _ in range(2**k)])
    code, stdout, stderr = run_cli(capsys, "adversary", "elimination", *argv)
    assert code == 2
    assert stdout == ""
    assert "PreconditionViolated" in stderr


@pytest.mark.parametrize("bits", ["10", "40"])
def test_adversary_elimination_refuses_a_large_family_before_building_it(capsys, monkeypatch, bits):
    # at delta 3, 2**10 members would take 53 M steps on the star rows; no
    # member is built, and 2**40 would not fit in memory
    def family(k):
        raise AssertionError(f"a family of 2**{k} members was built")

    monkeypatch.setattr(cli, "variant_family", family)
    code, stdout, stderr = run_cli(
        capsys, "adversary", "elimination", "--delta", "3", "--family", f"variants:{bits}"
    )
    assert code == 2
    assert stdout == ""
    assert "PreconditionViolated" in stderr


def test_adversary_elimination_plays_the_largest_fitting_family(capsys, monkeypatch):
    # at delta 3, 2**6 members take 1,978,496 steps on the star rows and
    # start; 2**7 take 4,615,936 and are refused before one is built
    monkeypatch.setattr(cli, "variant_family", lambda k: [_Exploding() for _ in range(2**k)])
    with pytest.raises(AssertionError, match="edge 0 was revealed"):
        cli.main(["adversary", "elimination", "--delta", "3", "--family", "variants:6"])
    code, stdout, stderr = run_cli(
        capsys, "adversary", "elimination", "--delta", "3", "--family", "variants:7"
    )
    assert code == 2
    assert stdout == ""
    assert "PreconditionViolated" in stderr


def test_adversary_elimination_zero_rounds_fails(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "adversary", "elimination", "--delta", "2", "--family", "greedy", "--rounds", "0",
    )
    assert code == 1
    summary = json.loads(stdout.splitlines()[-1])
    assert summary["all_dead"] is False


def test_adversary_elimination_negative_variant_length_is_usage_error(capsys):
    code, stdout, stderr = run_cli(
        capsys, "adversary", "elimination", "--delta", "2", "--family", "variants:-1"
    )
    assert code == 2
    assert stdout == ""
    assert "PreconditionViolated" in stderr


def test_adversary_permutation_forces_greedy(capsys):
    code, stdout, _ = run_cli(
        capsys, "adversary", "permutation", "--delta", "3", "--alg", "greedy"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["forced"] is True
    assert doc["colors_used"] >= 4


def test_adversary_permutation_oracle_immune(capsys):
    code, stdout, _ = run_cli(
        capsys, "adversary", "permutation", "--delta", "3", "--oracle"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["forced"] is False
    assert doc["colors_used"] == 3


def test_adversary_permutation_variant(capsys):
    code, stdout, _ = run_cli(
        capsys, "adversary", "permutation", "--delta", "2", "--alg", "variant:1"
    )
    assert code == 0
    assert json.loads(stdout)["forced"] is True


def test_check_rigidity(capsys):
    code, stdout, _ = run_cli(capsys, "check", "rigidity", "--n", "2")
    assert code == 0
    assert json.loads(stdout)["passed"] is True


def test_check_rigidity_needs_no_search_budget(capsys):
    # the joined gadget is overfull, so a zero budget proves rigidity
    code, stdout, _ = run_cli(capsys, "check", "rigidity", "--n", "5", "--budget", "0")
    assert code == 0
    assert json.loads(stdout) == {"check": "rigidity", "n": 5, "passed": True}
    assert run_cli(capsys, "check", "rigidity", "--n", "5", "--budget", "-1")[0] == 2


def test_check_rigidity_failure_exits_one(capsys, monkeypatch):
    import ecadvice.cli

    monkeypatch.setattr(ecadvice.cli, "rigidity_check", lambda n, budget=None: False)
    code, stdout, _ = run_cli(capsys, "check", "rigidity", "--n", "2")
    assert code == 1
    assert json.loads(stdout) == {"check": "rigidity", "n": 2, "passed": False}


@pytest.mark.parametrize("model", ["request", "tape"])
def test_check_invariants_batch(capsys, model):
    code, stdout, _ = run_cli(
        capsys,
        "check", "invariants", "--kind", "d-degenerate",
        "--n", "18", "--d", "2", "--count", "8", "--model", model,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["passed"] is True and doc["count"] == 8 and doc["failures"] == []


def test_check_invariants_reports_each_violation_by_seed(capsys, monkeypatch):
    import ecadvice.cli

    def short_read(*args, **kwargs):
        run = run_advice(*args, **kwargs)
        run.report.advice_bits_read -= 1
        return run

    monkeypatch.setattr(ecadvice.cli, "run_advice", short_read)
    code, stdout, _ = run_cli(capsys, "check", "invariants", "--n", "12", "--count", "2")
    assert code == 1
    doc = json.loads(stdout)
    assert doc["passed"] is False
    assert [f.split(": bits: read ")[0] for f in doc["failures"]] == ["seed=0", "seed=1"]


@pytest.mark.parametrize("count", ["0", "-2"])
def test_check_invariants_needs_an_instance(capsys, count):
    code, stdout, stderr = run_cli(capsys, "check", "invariants", "--count", count)
    assert code == 2
    assert stdout == ""
    assert "PreconditionViolated" in stderr


def test_check_invariants_forest(capsys):
    code, stdout, _ = run_cli(
        capsys, "check", "invariants", "--kind", "forest", "--n", "30", "--count", "5"
    )
    assert code == 0
    assert json.loads(stdout)["passed"] is True


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_dispatches_to_the_current_cmd_run(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args.stream) or 0)
    path = write_stream(tmp_path, cycle_pairs(4))
    code, stdout, _ = run_cli(capsys, "run", path)
    assert (code, stdout, seen) == (0, "", [path])


def test_consecutive_runs_print_their_own_config(tmp_path, capsys):
    # the cached parser carries nothing from one call into the next
    path = write_stream(tmp_path, cycle_pairs(4))
    configs = []
    for argv in (["--mode", "strict", "--d", "2"], ["--mode", "robust"]):
        code, stdout, _ = run_cli(capsys, "run", path, *argv)
        assert code == 0
        configs.append(json.loads(stdout)["config"])
    assert [(c["mode"], c["d"]) for c in configs] == [("strict", 2), ("robust", None)]


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ecadvice", "check", "rigidity", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def _ints(hi):
    # every integer option is drawn from -2 upward, to hit the range checks
    return st.integers(min_value=-2, max_value=hi).map(str)


_LABELS = st.one_of(
    _ints(12),
    st.integers(min_value=10**18, max_value=10**40).map(str),
    st.sampled_from(["9" * 5000, "1_0", "+3", "٣", "००१", "0x1", "1.5", "x"]),
)
_STREAM_TEXT = st.one_of(
    # a valid simple graph, so the advice pipeline itself runs
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]),
        max_size=16,
        unique_by=frozenset,
    ).map(lambda pairs: "".join(f"{u} {v}\n" for u, v in pairs)),
    st.lists(
        st.one_of(st.tuples(_LABELS, _LABELS).map(" ".join), st.text(max_size=8)),
        max_size=12,
    ).map("\n".join),
)


@st.composite
def _argvs(draw):
    """Every subcommand with option values drawn at bounded sizes.

    `adversary elimination --delta 10` fits under the game's size limit but
    takes most of a minute, so elimination stays at Δ <= 3 with families
    of at most 2^3.
    """
    opt = lambda flag, values: [flag, draw(values)] if draw(st.booleans()) else []  # noqa: E731
    mode_model = opt("--mode", st.sampled_from(["robust", "strict"])) + opt(
        "--model", st.sampled_from(["request", "tape"])
    )
    budget = opt("--budget", _ints(200))
    command = draw(st.sampled_from(["gen", "run", "elimination", "permutation", "rigidity",
                                    "invariants"]))
    if command == "gen":
        kind = draw(st.sampled_from(["d-degenerate", "forest", "bipartite", "star",
                                     "coupled-pair", "permutation"]))
        argv = ["gen", kind, *opt("--n", _ints(4 if kind == "coupled-pair" else 30)),
                *opt("--d", _ints(6)), *opt("--a", _ints(8)), *opt("--b", _ints(8)),
                *opt("--p", st.floats(-0.5, 1.5).map(str)), *opt("--delta", _ints(4)),
                *opt("--seed", _ints(10**6)),
                *opt("--pi", st.one_of(st.text(max_size=6),
                                       st.permutations(range(4)).map(
                                           lambda p: ",".join(map(str, p)))))]
    elif command == "run":
        argv = ["run", "{stream}", *opt("--alg", st.sampled_from(["advice", "greedy"])),
                *mode_model, *opt("--d", _ints(6)), *budget,
                *(["--coloring-out", "{colors}"] if draw(st.booleans()) else [])]
    elif command == "elimination":
        family = st.one_of(st.just("greedy"), _ints(3).map("variants:{}".format),
                           st.text(max_size=6))
        argv = ["adversary", "elimination", "--delta", draw(_ints(3)),
                *opt("--family", family), *opt("--rounds", _ints(40))]
    elif command == "permutation":
        alg = st.one_of(st.just("greedy"), st.text(max_size=6).map("variant:{}".format),
                        st.text("01", max_size=6).map("variant:{}".format))
        argv = ["adversary", "permutation", "--delta", draw(_ints(4)), *opt("--alg", alg),
                *opt("--mode", st.sampled_from(["robust", "strict"])),
                *(["--oracle"] if draw(st.booleans()) else [])]
    elif command == "rigidity":
        argv = ["check", "rigidity", *opt("--n", _ints(24)), *budget]
    else:
        argv = ["check", "invariants",
                *opt("--kind", st.sampled_from(["d-degenerate", "forest"])),
                *opt("--d", _ints(4)), *opt("--n", _ints(25)), *opt("--count", _ints(3)),
                *opt("--seed", _ints(10**6)), *mode_model, *budget]
    if draw(st.integers(0, 19)) == 0:  # now and then a flag argparse refuses
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@given(_argvs(), _STREAM_TEXT)
@settings(max_examples=150, deadline=timedelta(seconds=10))
def test_cli_fuzz_exits_inside_the_contract(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        colors = os.path.join(tmp, "c.txt")
        argv = [{"{stream}": path, "{colors}": colors}.get(a, a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            assert exc.code == 2
        else:
            assert code in (0, 1, 2, 3)
