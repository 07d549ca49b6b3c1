"""Golden outputs: records, colorings and CLI stdout pinned by digest.

The exact search's edge order decides which optimal coloring is found, so
any drift in that order shows up here as a changed digest.
"""

import hashlib
import json

import pytest

from ecadvice import gen_d_degenerate, gen_forest, run_advice, serialize_stream
from ecadvice.cli import main


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _items(coloring) -> list:
    return sorted([list(pair), c] for pair, c in coloring.assignment.items())


def run_digest(stream, d: int, mode: str, model: str) -> str:
    run = run_advice(stream, d, mode=mode, model=model)
    trace = run.oracle.partition_trace
    return _sha(
        {
            "records": [r.bits for r in run.oracle.records],
            "optimal": _items(run.oracle.optimal),
            "bundles": [] if trace is None else [
                [j, _items(c)] for j, c in sorted(trace.colorings.items())
            ],
            "coloring": _items(run.report.coloring),
        }
    )


GOLDEN_RUNS = [
    # (generator, d, mode, model, digest)
    (
        lambda: gen_d_degenerate(45, 5, 1), 5, "robust", "request",
        "0c0db020cc164cd5eda14fa44c2b5f800c87a601a7a57b80c0a3953b53b08661",
    ),
    (
        lambda: gen_d_degenerate(55, 5, 2), 5, "strict", "tape",
        "fdc6f997ae65fc874e2c2171be5125820775c83d778fe6eb2f1069c08a6a56f1",
    ),
    (
        lambda: gen_d_degenerate(65, 5, 3), 5, "robust", "tape",
        "5773ab99c13f0384a2145fb09fc8c0bde09428c56675ca6159a051e141bfdd30",
    ),
    (
        lambda: gen_d_degenerate(75, 5, 4), 5, "strict", "request",
        "7f0f646b206038c55763325229cd80100936c15f72fe537eddb25916f213ada1",
    ),
    (
        lambda: gen_d_degenerate(85, 5, 5), 5, "robust", "request",
        "f860c983d05dc59629069608dd7aefc309680602e811527295f5819c526d2e99",
    ),
    (
        lambda: gen_forest(450, 1), 1, "strict", "tape",
        "ee59d1bbc41accc985d60c5556d8604d10d36ca1abaf0ac33277d4db4b1a05d3",
    ),
]


@pytest.mark.parametrize(
    "make,d,mode,model,digest",
    GOLDEN_RUNS,
    ids=["deg5-n45", "deg5-n55", "deg5-n65", "deg5-n75", "deg5-n85", "forest-n450"],
)
def test_records_and_colorings_are_pinned(make, d, mode, model, digest):
    assert run_digest(make(), d, mode, model) == digest


GOLDEN_STDOUT = (
    '{"advice_bits_read": 2572, "chromatic_index": 21, "colors_used": 21, "config": '
    '{"algorithm": "advice", "budget": null, "command": "run", "d": 5, "mode": "robust", '
    '"model": "tape", "stream": "d5.stream", "stream_sha256": '
    '"d8e2447da443d2b2949bdd635d33b0202d039201e8fe70f5648eea7af1f7b228"}, "d": 7, '
    '"delta": 21, "m": 285, "mode": "robust", "n": 60, "optimal": true, "per_edge_bits": 9}\n'
)
GOLDEN_COLORS_SHA256 = "bf323d0c3a6f02cd52de14e9f0e00aee8bfcdd77ba114d7b5f771c3007a1561b"


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
