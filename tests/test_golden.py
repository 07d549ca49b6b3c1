"""Golden outputs: records, colorings, game transcripts and CLI stdout
pinned by digest.

The constructive engines' peel orders decide which optimal coloring is
found, so any drift in those orders shows up here as a changed digest.
The greedy family's colors decide every adversary game, so a change to
how greedy finds a free color shows up in the game pins.
"""

import hashlib
import json

import pytest

from ecadvice import (
    Graph,
    Greedy,
    GreedyVariant,
    gen_bipartite,
    gen_d_degenerate,
    gen_forest,
    optimal_coloring,
    run_advice,
    run_greedy,
    serialize_stream,
    stream_from_pairs,
)
from ecadvice.adversaries import elimination_game, permutation_game, variant_family
from ecadvice.cli import main

from .conftest import petersen_pairs


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _items(coloring) -> list:
    return sorted([list(pair), c] for pair, c in coloring.assignment.items())


def _bundles(oracle) -> list:
    """Each bundle's coloring, from the subset and color of its mode-1 edges."""
    bundles: dict[int, list] = {}
    for e, adv in zip(oracle.stream.edges, oracle.per_edge):
        if adv.mode == 1:
            bundles.setdefault(adv.subset, []).append([list(e.pair), adv.color])
    return [[j, sorted(items)] for j, items in sorted(bundles.items())]


def _witness(stream):
    """The optimal coloring the oracle reads its literal colors from."""
    return optimal_coloring(Graph.from_stream(stream))[1]


def run_digest(stream, d: int, mode: str, model: str) -> str:
    run = run_advice(stream, d, mode=mode, model=model)
    return _sha(
        {
            "records": [r.bits for r in run.oracle.records],
            "optimal": _items(_witness(stream)),
            "bundles": _bundles(run.oracle),
            "coloring": _items(run.report.coloring),
        }
    )


GOLDEN_RUNS = [
    # (generator, d, mode, model, digest)
    (
        lambda: gen_d_degenerate(45, 5, 1), 5, "robust", "request",
        "9514fb02e82af5d4b6e8cb98a28f814c7b90d51d29a399263d23af56829f6963",
    ),
    (
        lambda: gen_d_degenerate(55, 5, 2), 5, "strict", "tape",
        "d9ed4aee93b53d7b220842f933c0441819c4b3f37d550d993a02efb530423f2e",
    ),
    (
        lambda: gen_d_degenerate(65, 5, 3), 5, "robust", "tape",
        "baf7ab0a248f0e272d9000852fa90a123d8320bafef52216f8849126bc465bfd",
    ),
    (
        lambda: gen_d_degenerate(75, 5, 4), 5, "strict", "request",
        "b61aa0291318307bc871b549839d820c12f8dcf11d6f85a780fa3e0921cff8ff",
    ),
    (
        lambda: gen_d_degenerate(85, 5, 5), 5, "robust", "request",
        "0104da50926c6a655fd02c75de0b1cf5d0448a1372c53a962630094d6454d83b",
    ),
    (
        lambda: gen_forest(450, 1), 1, "strict", "tape",
        "a5c8d54d5ed50f75a3ab8894d93e38775bbeffa71c0eae6cb9d98eeca05f2c90",
    ),
    # max degree 8 = 4*2d: no color ships literally, the residual is the graph
    (
        lambda: gen_forest(450, 2), 1, "robust", "request",
        "4ced5de1b22780b11f9ef0631ce3a3fc0c9e869358da062938beacba8a27240e",
    ),
    # Konig, every record literal: max degree 15 < 2*8
    (
        lambda: gen_bipartite(20, 20, 0.5, 1), 8, "robust", "request",
        "f8de4e2edb04fc88ca727d794d1fd49d56f981bacd022ef55114ec798d137f70",
    ),
    # the max degree peel settles chi
    (
        lambda: gen_d_degenerate(6, 3, 0), 3, "strict", "tape",
        "1e749031f96dd0f73a1c4be719413e764dfc349b2aa8d3fc0945cbf56c87a054",
    ),
    # the max degree + 1 coloring lands on max degree colors and settles chi
    (
        lambda: gen_d_degenerate(8, 5, 0), 5, "robust", "tape",
        "0a17e4a241b1fbac2fb40085a6e7582666cd6feff7325294ffe56a739b5d81c7",
    ),
    # the exact search finds the class 1 witness
    (
        lambda: gen_d_degenerate(6, 4, 0), 4, "robust", "request",
        "17abf95aa80cc39c478b29b3fbf8b8979a4a66a919067aedbd3483e0a603be51",
    ),
    # the exact search proves class 2: 3-regular, so the peel cannot start,
    # and 15 = 3*(10//2) edges is not overfull
    (
        lambda: stream_from_pairs(petersen_pairs()), 3, "strict", "tape",
        "b71f48358ef51341df86b6fcb7e355333b06b3f7e5954721a60bf19a451fcaf0",
    ),
    # d = 2 and d = 3 bundles
    (
        lambda: gen_d_degenerate(150, 2, 1), 2, "strict", "request",
        "17eb2bbeb6d63502bccd9b4fa3db5752db2a228cea049c44ab82cc822fb85587",
    ),
    (
        lambda: gen_d_degenerate(150, 3, 1), 3, "robust", "tape",
        "81c2838477c393ea49da666f7c9651676d5aaf095cd4a1345d02bb22fe1d6025",
    ),
    # d = 4: max degree 20 = 2*2d + 4, so 4 colors ship literally and 2
    # bundles take the rest; color and rank fields are 3 bits each
    (
        lambda: gen_d_degenerate(150, 4, 1), 4, "strict", "request",
        "9531572e8eebf3bee27c0631c40f60bf19ae11036436446ddb1cfd6c4b6b66b2",
    ),
]


@pytest.mark.parametrize(
    "make,d,mode,model,digest",
    GOLDEN_RUNS,
    ids=[
        "deg5-n45", "deg5-n55", "deg5-n65", "deg5-n75", "deg5-n85", "forest-n450",
        "forest-n450-b0",
        "bipartite-20x20", "deg3-n6-peel", "deg5-n8-lands", "deg4-n6-exact",
        "petersen-class2", "deg2-n150", "deg3-n150", "deg4-n150",
    ],
)
def test_records_and_colorings_are_pinned(make, d, mode, model, digest):
    assert run_digest(make(), d, mode, model) == digest


@pytest.mark.parametrize(
    "make_family,digest",
    [
        (
            lambda: variant_family(2),
            "9de56e61a5d83cc3c07be0b5e9eb2e4a64498749fb3d73cecb487d6c63b27e9b",
        ),
        # the one-shot strings survive the first round: two rounds are played
        (
            lambda: variant_family(2) + [GreedyVariant(m.bits, cycle=False) for m in variant_family(2)],
            "e7577acfa47427a238306704d425d6db55344245dbac820af7f64ac5c93ee37f",
        ),
    ],
    ids=["variants2", "variants2-cycle-and-once"],
)
def test_elimination_transcript_is_pinned(make_family, digest):
    t = elimination_game(3, make_family(), 60)
    assert _sha(
        {
            "colors_used": t.colors_used,
            "selected": [list(r.selected) for r in t.rounds],
            "pairs": [list(e.pair) for e in t.stream.edges],
        }
    ) == digest


def test_permutation_games_are_pinned():
    games = []
    for delta in range(3, 7):
        for make in (Greedy, lambda: GreedyVariant("10"), lambda: GreedyVariant("011", cycle=False)):
            result = permutation_game(delta, make)
            arrivals = result.report.coloring.assignment.items()  # in arrival order
            games.append([delta, list(result.pi), [[list(p), c] for p, c in arrivals]])
    assert _sha(games) == "b51ab3b19f047a6b64d6f90bde6f5edda3e262b58aa0b984a56e89908ad86ede"


def test_greedy_forest_coloring_is_pinned():
    report = run_greedy(gen_forest(10000, 1))
    assert _sha(_items(report.coloring)) == (
        "5a2f30245523fbadbb766000f55f35539f0e3db6a39707d2a75ab57d4efd6339"
    )


GOLDEN_STDOUT = (
    '{"advice_bits_read": 2572, "chromatic_index": 21, "colors_used": 21, "config": '
    '{"algorithm": "advice", "budget": null, "command": "run", "d": 5, "mode": "robust", '
    '"model": "tape", "stream": "d5.stream", "stream_sha256": '
    '"d8e2447da443d2b2949bdd635d33b0202d039201e8fe70f5648eea7af1f7b228"}, "d": 7, '
    '"delta": 21, "m": 285, "mode": "robust", "n": 60, "optimal": true, "per_edge_bits": 9}\n'
)
GOLDEN_COLORS_SHA256 = "977672b7785da6a1a037106aae15ff26e1b2af5d0cb3e43345db77b1776700b6"


def relabel(stream):
    """The stream with every label v moved to (v * 7919) % 1009 + 10**12.

    The map is one-to-one below 1009 and not monotone, so the sorted order
    of the labels is not their order as generated, and no label is a small
    integer: a vertex index taken for a label, or a label for an index,
    shows up as a changed digest.
    """
    f = lambda v: (v * 7919) % 1009 + 10**12
    return stream_from_pairs((f(e.u), f(e.v)) for e in stream.edges)


def relabeled_digest(stream, d: int, mode: str, model: str) -> str:
    """Records, chi, the optimal coloring (its pairs in id order, that is
    in arrival order), the replay stream as oriented and the consumer's
    coloring."""
    run = run_advice(stream, d, mode=mode, model=model)
    return _sha(
        {
            "records": [r.bits for r in run.oracle.records],
            "chi": run.oracle.chromatic_index,
            "stream": [[e.u, e.v] for e in run.oracle.stream.edges],
            "optimal": [[list(p), c] for p, c in _witness(stream).assignment.items()],
            "bundles": _bundles(run.oracle),
            "coloring": _items(run.report.coloring),
        }
    )


RELABELED_RUNS = [
    # (generator, d, mode, model, digest)
    (
        lambda: gen_forest(450, 3), 1, "strict", "tape",
        "0815078e6dab55accbc4a4d9fa80ef846e86324b08335da3989558c7447ac678",
    ),
    (
        lambda: gen_forest(450, 4), 1, "strict", "request",
        "05dd603bb74a0a6195e9b1d96f371c79afd6bb9df1ea68876962f0db871c1721",
    ),
    (
        lambda: gen_forest(450, 5), 1, "robust", "tape",
        "f42cedb702fe1656c44df895358b56d56dafa65597ecc95758ccc5deb551e045",
    ),
    (
        lambda: gen_forest(450, 6), 1, "robust", "request",
        "d48d3cfacdaa68a821f8bfed32183043aadd95fcdb24fdc466918c3fafe40985",
    ),
    (
        lambda: gen_d_degenerate(85, 5, 6), 5, "strict", "tape",
        "c1a937d043005678429353c36377875b81b136d7153601175c950a1d7d8d03cd",
    ),
    (
        lambda: gen_d_degenerate(85, 5, 7), 5, "strict", "request",
        "9e924d3917c6c94a82bb137f007fbb39ef280a034b1d32dbead50a43e56508d2",
    ),
    (
        lambda: gen_d_degenerate(85, 5, 8), 5, "robust", "tape",
        "4094456863de635ed6589fab81a7e7642a30ba23af9f2fea5979b35921e5cc08",
    ),
    (
        lambda: gen_d_degenerate(85, 5, 9), 5, "robust", "request",
        "8ba0cf3c3be8b79693b60888ed51f32e2be6d5bdddd7572316c10f0d8dba6ca4",
    ),
]


@pytest.mark.parametrize(
    "make,d,mode,model,digest",
    RELABELED_RUNS,
    ids=[
        f"{kind}-{mode}-{model}"
        for kind in ("forest-n450", "deg5-n85")
        for mode in ("strict", "robust")
        for model in ("tape", "request")
    ],
)
def test_relabeled_runs_are_pinned(make, d, mode, model, digest):
    assert relabeled_digest(relabel(make()), d, mode, model) == digest


def test_cli_run_stdout_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d5.stream").write_text(serialize_stream(gen_d_degenerate(60, 5, 7)))
    code = main([
        "run", "d5.stream", "--alg", "advice", "--d", "5", "--mode", "robust",
        "--model", "tape", "--coloring-out", "d5.colors",
    ])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_STDOUT
    assert hashlib.sha256((tmp_path / "d5.colors").read_bytes()).hexdigest() == GOLDEN_COLORS_SHA256


RELABELED_STDOUT = (
    '{"advice_bits_read": 1357, "chromatic_index": 8, "colors_used": 8, "config": '
    '{"algorithm": "advice", "budget": null, "command": "run", "d": 1, "mode": "strict", '
    '"model": "tape", "stream": "f.stream", "stream_sha256": '
    '"d2fa259af49b3c0b05e3c3ff574930ad254b78cb6b332858598dabf8443a0ff3"}, "d": 1, '
    '"delta": 8, "m": 452, "mode": "strict", "n": 477, "optimal": true, "per_edge_bits": 3}\n'
)
RELABELED_COLORS_SHA256 = "e465248239de09af892c9eea206e2ffec43c7626ca76bd97b24fbcbc14af3096"


def test_cli_run_stdout_on_relabeled_stream_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.stream").write_text(serialize_stream(relabel(gen_forest(500, 2))))
    code = main([
        "run", "f.stream", "--d", "1", "--mode", "strict", "--model", "tape",
        "--coloring-out", "f.colors",
    ])
    assert code == 0
    assert capsys.readouterr().out == RELABELED_STDOUT
    colors = (tmp_path / "f.colors").read_bytes()
    assert hashlib.sha256(colors).hexdigest() == RELABELED_COLORS_SHA256


BIPARTITE_STREAM_SHA256 = "1aa0ced06f74e23564d25a16abfcb32bbb4cbe51c719d7f4f82c1879e5fed296"
BIPARTITE_RUNS = [
    # (extra argv, colors file, stdout, colors sha256)
    (
        ["--mode", "strict", "--model", "tape"], "bip.colors",
        '{"advice_bits_read": 17051, "chromatic_index": 37, "colors_used": 37, "config": '
        '{"algorithm": "advice", "budget": null, "command": "run", "d": null, "mode": "strict", '
        '"model": "tape", "stream": "bip.stream", "stream_sha256": '
        f'"{BIPARTITE_STREAM_SHA256}"}}, "d": 31, "delta": 37, "m": 1420, "mode": "strict", '
        '"n": 108, "optimal": true, "per_edge_bits": 12}\n',
        "7dfcba0894830bf0fbd6e8d9ca36ac2fa8b29969c8f9d6521c25daa8d941dd8c",
    ),
    (
        ["--alg", "greedy"], "bip-greedy.colors",
        '{"advice_bits_read": 0, "chromatic_index": null, "colors_used": 37, "config": '
        '{"algorithm": "greedy", "budget": null, "command": "run", "d": null, "mode": null, '
        '"model": null, "stream": "bip.stream", "stream_sha256": '
        f'"{BIPARTITE_STREAM_SHA256}"}}, "d": null, "delta": 37, "m": 1420, "mode": null, '
        '"n": 108, "optimal": null, "per_edge_bits": 0}\n',
        "719d6a8fc88f26eb10c759ccd39fe9b9dd6bab4172296b80cdf6f3caa813bcd7",
    ),
]


@pytest.mark.parametrize(
    "extra,colors,stdout,digest", BIPARTITE_RUNS, ids=["strict-tape", "greedy"]
)
def test_cli_run_on_dense_bipartite_stream_is_pinned(
    tmp_path, monkeypatch, capsys, extra, colors, stdout, digest
):
    # max degree 37 < 2d = 62: every advice record is literal, and König
    # flips 350 alternating paths on the way to 37 colors
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bip.stream").write_text(serialize_stream(gen_bipartite(54, 54, 0.5, 1)))
    assert main(["run", "bip.stream", *extra, "--coloring-out", colors]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256((tmp_path / colors).read_bytes()).hexdigest() == digest


EMPTY_STREAM_SHA256 = "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"
EMPTY_RUNS = [
    # (extra argv, stdout): n 0 and delta 0 come from a stream with no edge ends
    (
        ["--mode", "robust", "--model", "request"],
        '{"advice_bits_read": 0, "chromatic_index": 0, "colors_used": 0, "config": '
        '{"algorithm": "advice", "budget": null, "command": "run", "d": null, "mode": "robust", '
        '"model": "request", "stream": "empty.stream", "stream_sha256": '
        f'"{EMPTY_STREAM_SHA256}"}}, "d": null, "delta": 0, "m": 0, "mode": "robust", '
        '"n": 0, "optimal": true, "per_edge_bits": 0}\n',
    ),
    (
        ["--mode", "strict", "--model", "tape"],
        '{"advice_bits_read": 0, "chromatic_index": 0, "colors_used": 0, "config": '
        '{"algorithm": "advice", "budget": null, "command": "run", "d": null, "mode": "strict", '
        '"model": "tape", "stream": "empty.stream", "stream_sha256": '
        f'"{EMPTY_STREAM_SHA256}"}}, "d": null, "delta": 0, "m": 0, "mode": "strict", '
        '"n": 0, "optimal": true, "per_edge_bits": 0}\n',
    ),
    (
        ["--alg", "greedy"],
        '{"advice_bits_read": 0, "chromatic_index": null, "colors_used": 0, "config": '
        '{"algorithm": "greedy", "budget": null, "command": "run", "d": null, "mode": null, '
        '"model": null, "stream": "empty.stream", "stream_sha256": '
        f'"{EMPTY_STREAM_SHA256}"}}, "d": null, "delta": 0, "m": 0, "mode": null, '
        '"n": 0, "optimal": null, "per_edge_bits": 0}\n',
    ),
]


@pytest.mark.parametrize(
    "extra,stdout", EMPTY_RUNS, ids=["robust-request", "strict-tape", "greedy"]
)
def test_cli_run_on_empty_stream_is_pinned(tmp_path, monkeypatch, capsys, extra, stdout):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.stream").write_text(serialize_stream(stream_from_pairs([])))
    assert main(["run", "empty.stream", *extra]) == 0
    assert capsys.readouterr().out == stdout
