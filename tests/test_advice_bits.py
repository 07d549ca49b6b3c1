import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecadvice import (
    MalformedAdvice,
    MalformedTape,
    PreconditionViolated,
    bits_per_edge,
    ceil_log2,
    degeneracy_from_length,
    encode_header,
    encode_tape,
    header_bits,
    pack_record,
    pad_degeneracy,
    read_header,
    unpack_record,
)
from ecadvice.advice import decode_int, encode_int


def test_ceil_log2_table():
    assert [ceil_log2(x) for x in range(1, 10)] == [0, 1, 2, 2, 3, 3, 3, 3, 4]
    with pytest.raises(PreconditionViolated):
        ceil_log2(0)


@given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=0, max_value=16))
def test_int_codec_round_trip(value, width):
    if value >= (1 << width):
        with pytest.raises(PreconditionViolated):
            encode_int(value, width)
        return
    bits = encode_int(value, width)
    assert len(bits) == width
    assert decode_int(bits) == value


@pytest.mark.parametrize(
    "d,strict",
    [(1, 3), (2, 5), (3, 6), (4, 7), (5, 8), (6, 8), (7, 8), (8, 9)],
)
def test_bits_per_edge_frozen(d, strict):
    assert bits_per_edge(d, "strict") == strict
    assert bits_per_edge(d, "robust") == strict + 1


@pytest.mark.parametrize("d,padded", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 7), (6, 7), (9, 15)])
def test_pad_degeneracy_frozen(d, padded):
    assert pad_degeneracy(d) == padded


@given(st.integers(min_value=1, max_value=200))
def test_pad_degeneracy_properties(d):
    p = pad_degeneracy(d)
    assert p >= d
    assert bits_per_edge(p) == bits_per_edge(d)
    assert pad_degeneracy(p) == p
    assert bits_per_edge(p + 1) > bits_per_edge(p)


@given(st.integers(min_value=1, max_value=200), st.sampled_from(["strict", "robust"]))
def test_length_inversion(d, mode):
    assert degeneracy_from_length(bits_per_edge(d, mode), mode) == pad_degeneracy(d)


def _pad_by_steps(d):
    # the stepping loop pad_degeneracy used before its closed form
    target = bits_per_edge(d)
    while bits_per_edge(d + 1) == target:
        d += 1
    return d


def _length_by_steps(length, mode):
    # the stepping loop degeneracy_from_length used before its binary search
    d = 1
    while bits_per_edge(d, mode) <= length:
        if bits_per_edge(d, mode) == length:
            return _pad_by_steps(d)
        d += 1
    return None


def test_pad_degeneracy_matches_stepping():
    for d in range(1, 5000):
        assert pad_degeneracy(d) == _pad_by_steps(d), d


@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_length_inversion_matches_stepping(mode):
    for length in range(-1, 41):
        expected = _length_by_steps(length, mode)
        if expected is None:
            with pytest.raises(MalformedAdvice):
                degeneracy_from_length(length, mode)
        else:
            assert degeneracy_from_length(length, mode) == expected, length


@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_length_inversion_long_records(mode):
    # 2**j and 2**j - 1 are padded bounds; their records are ~2j bits long
    j = 100_000
    for d in (1 << j, (1 << j) - 1):
        assert degeneracy_from_length(bits_per_edge(d, mode), mode) == d


def test_pad_degeneracy_rejects_nonpositive():
    # as do the other functions of a degeneracy bound
    for reject in (pad_degeneracy, bits_per_edge, encode_header):
        for d in (0, -3):
            with pytest.raises(PreconditionViolated):
                reject(d)


def test_codec_rejects_unknown_mode():
    with pytest.raises(PreconditionViolated):
        bits_per_edge(1, "lax")
    with pytest.raises(PreconditionViolated):
        pack_record(1, "lax", 0, 1, 0)


def test_length_inversion_rejects_gaps():
    with pytest.raises(MalformedAdvice):
        degeneracy_from_length(2, "strict")  # shortest strict record is 3 bits


@given(
    st.integers(min_value=1, max_value=64),
    st.sampled_from(["strict", "robust"]),
    st.integers(min_value=0, max_value=1),
    st.data(),
)
def test_record_round_trip(d, mode, mode_flag, data):
    color = data.draw(st.integers(min_value=1, max_value=2 * d))
    rank = data.draw(st.integers(min_value=0, max_value=d))
    front = data.draw(st.integers(min_value=0, max_value=1))
    rec = pack_record(d, mode, mode_flag, color, rank, front_flag=front)
    assert len(rec) == bits_per_edge(d, mode)
    fields = unpack_record(rec.bits, d, mode)
    assert fields.mode_flag == mode_flag
    assert fields.color == color
    assert fields.rank == rank
    if mode == "robust":
        assert fields.front_flag == front
    else:
        assert fields.front_flag is None


@pytest.mark.parametrize(
    "mode, mode_flag, front_flag",
    [
        ("strict", 2, 0),
        ("strict", -1, 0),
        ("strict", True, 0),
        ("robust", 1, 5),
        ("robust", 1, True),
        ("robust", 0, "1"),
        ("strict", 0, 2),
    ],
)
def test_pack_rejects_non_bit_flags(mode, mode_flag, front_flag):
    # str() of these once landed in the record: "200", "1500", "1True00"
    with pytest.raises(PreconditionViolated):
        pack_record(1, mode, mode_flag, 1, 0, front_flag=front_flag)


@pytest.mark.parametrize(
    "d, mode_flag, color, rank",
    [(3, 0, 7, 0), (3, 1, 8, 0), (3, 0, 0, 0), (2, 1, 1, 3), (4, 1, 1, 7)],
)
def test_pack_rejects_fields_unpack_rejects(d, mode_flag, color, rank):
    # each of these fits its field's width, so only the range check stops it
    with pytest.raises(PreconditionViolated):
        pack_record(d, "strict", mode_flag, color, rank)


def test_unpack_rejects_bad_length():
    rec = pack_record(3, "strict", 0, 1, 0)
    with pytest.raises(MalformedAdvice):
        unpack_record(rec.bits + "0", 3, "strict")


def test_unpack_rejects_out_of_range_fields():
    # d=3: color field is 3 bits, so raw value 7 means color 8 > 2d = 6
    with pytest.raises(MalformedAdvice):
        unpack_record("0" + "111" + "00", 3, "strict")
    # d=3 rank field is 2 bits, so every value is in range; d=4 has 3 bits
    assert unpack_record("1" + "000" + "11", 3, "strict").rank == 3
    with pytest.raises(MalformedAdvice):
        unpack_record("1" + "000" + "111", 4, "strict")
    # rank field is filler for literal records, so no range check there
    assert unpack_record("0" + "000" + "111", 4, "strict").rank == 7


def test_unpack_rejects_non_bits():
    with pytest.raises(MalformedAdvice):
        unpack_record("0x1", 1, "strict")


def test_header_frozen_examples():
    assert encode_header(1) == "0"
    assert encode_header(5) == "1110101"
    assert header_bits(1) == 1
    assert header_bits(5) == 7


@given(st.integers(min_value=1, max_value=4096))
def test_header_round_trip(d):
    bits = encode_header(d)
    assert len(bits) == header_bits(d)
    assert read_header(bits) == (d, len(bits))
    # trailing content is left untouched
    assert read_header(bits + "10110") == (d, len(bits))


@pytest.mark.parametrize("bits", ["", "1", "11", "1110", "111001"])
def test_header_truncation_raises(bits):
    with pytest.raises(MalformedTape):
        read_header(bits)


@pytest.mark.parametrize("bits", ["102", "x0", "1x0", "2"])
def test_header_non_bit_raises(bits):
    with pytest.raises(MalformedTape):
        read_header(bits)


def test_tape_layout():
    recs = [pack_record(5, "strict", 0, c, 0) for c in (1, 2, 3)]
    tape = encode_tape(recs, 7)
    assert tape.startswith(encode_header(7))
    assert len(tape) == header_bits(7) + 3 * bits_per_edge(5, "strict")
    d, pos = read_header(tape)
    assert d == 7
    first = unpack_record(tape[pos : pos + bits_per_edge(7)], 7, "strict")
    assert first.color == 1
