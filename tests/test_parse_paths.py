"""parse_stream, stream_from_pairs and EdgeStream against their
line-per-line reference.

`reference_parse_stream` and `reference_stream_from_pairs` are the
per-line, per-pair readers that parse_stream and stream_from_pairs were
before plain text was read in bulk.  Every input must give the same edges,
or the same exception type and message, on both; an EdgeStream built from
edges refuses loops and repeats as the pair reader does.
"""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecadvice import (
    DuplicateEdge,
    Edge,
    EdgeStream,
    ParseError,
    PreconditionViolated,
    SelfLoop,
    edge_pair,
    parse_stream,
    serialize_stream,
    stream_from_pairs,
)
from ecadvice import graphs

from .conftest import random_pair_lists

_REFERENCE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e]")


def reference_stream_from_pairs(pairs):
    edges = []
    seen = set()
    for i, (u, v) in enumerate(pairs):
        if u == v:
            raise SelfLoop(f"edge {i} joins {u} to itself")
        key = edge_pair(u, v)
        if key in seen:
            raise DuplicateEdge(f"edge {i} repeats pair {key}")
        seen.add(key)
        edges.append(Edge(u, v, i))
    return EdgeStream(tuple(edges))


def reference_parse_stream(text):
    pairs = []
    for lineno, raw in enumerate(_REFERENCE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0]
        if not line.isascii():
            raise ParseError(f"line {lineno}: a character outside a comment is not ASCII")
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {len(tokens)}")
        u, v = tokens
        if not (u.isdigit() and v.isdigit()):
            raise ParseError(f"line {lineno}: a label is not a run of ASCII digits")
        try:
            pairs.append((int(u), int(v)))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: label too long") from exc
    return reference_stream_from_pairs(pairs)


def outcome(read, arg):
    """The edges read, or the type and message of what was raised."""
    try:
        stream = read(arg)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return [(e.u, e.v, e.arrival) for e in stream.edges]


# digits and the plain separators, plus a character of each kind the line
# loop treats apart: CR, vertical tab, an ASCII break outside str.split's
# whitespace, a comment, a sign, a non-ASCII digit and a non-ASCII break
_ALPHABET = "0123456789 \t\n\r\x0b\x1f#-\u0660\u2028"
_NEAR = st.text(_ALPHABET.replace("\n", ""), min_size=1, max_size=2)
_LABEL = st.one_of(st.integers(0, 6).map(str), st.text("0123456789", min_size=1, max_size=4), _NEAR)
_SEP = st.one_of(st.text(" \t", min_size=1, max_size=3), _NEAR)
# lines of the plain grammar, which take the bulk path whole, now and then
# with a label or a separator drawn from the whole alphabet
_PLAIN_TEXT = st.lists(st.tuples(_LABEL, _SEP, _LABEL).map("".join), max_size=12).map(
    lambda lines: "".join(line + "\n" for line in lines)
)
_TEXT = st.one_of(st.text(_ALPHABET, max_size=40), _PLAIN_TEXT)


@given(_TEXT)
@settings(max_examples=400)
def test_parse_matches_line_loop(text):
    assert outcome(parse_stream, text) == outcome(reference_parse_stream, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 2\n",
        "1 2\n3 4\n2 1\n",
        "1\t 2\n3 3\n",
        "1 2\n3 4",  # no final newline
        "1 2\r\n3 4\r\n",
    ],
)
def test_parse_matches_line_loop_on_edge_cases(text):
    assert outcome(parse_stream, text) == outcome(reference_parse_stream, text)


def test_long_label_in_plain_text_names_its_line():
    text = "1 2\n3 4\n" + "9" * 5000 + " 5\n"
    assert graphs._PLAIN.fullmatch(text)  # so the bulk path reads it first
    expected = (ParseError, "line 3: label too long")
    assert outcome(parse_stream, text) == outcome(reference_parse_stream, text) == expected


@given(random_pair_lists())
def test_serialized_streams_take_the_bulk_path(pairs):
    text = serialize_stream(stream_from_pairs(pairs))
    # the empty stream is written as one empty line, which the loop reads
    assert bool(graphs._PLAIN.fullmatch(text)) == bool(pairs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: [(0, 1), (1, 0), (2, 2)],  # a loop after a repeat
        lambda: [(0, 1), (3, 3), (0, 1)],  # a repeat after a loop
        lambda: [(0, 1), (1, 2), (2, 1)],  # a reversed repeat
        lambda: [(5, 6), (6, 7), (7, 5), (7, 5), (8, 8)],
        lambda: ((u, u + 1) for u in [0, 1, 2, 1]),  # a generator
        lambda: [[0, 1], [1, 2], [1, 0]],  # lists, not tuples
        lambda: [[0, 1], [1, 2], [2, 3]],
        lambda: [],
        lambda: iter([]),
    ],
    ids=["loop-after-repeat", "repeat-after-loop", "reversed-repeat", "first-of-many",
         "generator", "list-of-lists", "list-of-lists-ok", "empty", "empty-iterator"],
)
def test_stream_from_pairs_raises_the_first_error(make):
    assert outcome(stream_from_pairs, make()) == outcome(reference_stream_from_pairs, make())


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12))
def test_stream_from_pairs_matches_pair_loop(pairs):
    assert outcome(stream_from_pairs, pairs) == outcome(reference_stream_from_pairs, pairs)


@settings(max_examples=400)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8), st.data())
def test_stream_refuses_loops_and_repeats_as_the_pair_loop_does(pairs, data):
    # four labels make loops and repeated pairs, reversed or not, common; an
    # edge whose arrival is not its position is refused first, whatever
    # comes before or after it
    arrivals = list(range(len(pairs)))
    if pairs and data.draw(st.booleans(), label="misplaced"):
        i = data.draw(st.integers(0, len(pairs) - 1), label="at")
        arrivals[i] = data.draw(st.integers(-1, len(pairs)).filter(i.__ne__), label="arrival")
    edges = [Edge(u, v, a) for (u, v), a in zip(pairs, arrivals)]
    expected = outcome(reference_stream_from_pairs, pairs)
    misplaced = [(a, i) for i, a in enumerate(arrivals) if a != i]
    if misplaced:
        expected = (PreconditionViolated, "arrival index %d at position %d" % misplaced[0])
    assert outcome(EdgeStream, edges) == expected
