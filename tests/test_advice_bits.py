import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecadvice import (
    AdviceAlgorithm,
    MalformedAdvice,
    MalformedTape,
    PreconditionViolated,
    RequestSource,
    TapeSource,
    bits_per_edge,
    ceil_log2,
    degeneracy_from_length,
    encode_header,
    encode_tape,
    header_bits,
    pack_record,
    pad_degeneracy,
    read_header,
    simulate,
    stream_from_pairs,
    unpack_record,
)
from ecadvice.advice import AdviceRecord, RecordFields, decode_int, encode_int


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


def test_record_is_its_string():
    rec = pack_record(3, "strict", 1, 2, 3)
    assert isinstance(rec, str)
    assert rec == "100111" and rec.bits == "100111"
    assert "".join([rec, rec]) == "100111" * 2
    assert encode_tape([rec], 3) == encode_header(3) + "100111"


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


def _reference_flag(name, value):
    if type(value) is not int or value not in (0, 1):
        raise PreconditionViolated(f"{name} must be 0 or 1, got {value!r}")
    return "1" if value else "0"


def _reference_pack(d, mode, mode_flag, color, rank, front_flag=0):
    # the string codec pack_record used before records were packed as integers
    bits = _reference_flag("mode_flag", mode_flag)
    front = _reference_flag("front_flag", front_flag)
    if mode == "robust":
        bits += front
    elif mode != "strict":
        raise PreconditionViolated(f"unknown mode {mode!r}")
    if not 1 <= color <= 2 * d:
        raise PreconditionViolated(f"color {color} is outside 1..{2 * d}")
    if mode_flag == 1 and rank > d:
        raise PreconditionViolated(f"rank {rank} exceeds d = {d}")
    bits += encode_int(color - 1, ceil_log2(2 * d))
    bits += encode_int(rank, ceil_log2(d + 1))
    return bits


def _reference_unpack(bits, d, mode):
    # the slicing parser unpack_record used before records were parsed as integers
    if len(bits) != bits_per_edge(d, mode):
        raise MalformedAdvice(f"record length {len(bits)} != {bits_per_edge(d, mode)} for d={d}")
    if any(b not in "01" for b in bits):
        raise MalformedAdvice("record contains non-bit characters")
    pos = 0
    mode_flag = int(bits[pos])
    pos += 1
    front_flag = None
    if mode == "robust":
        front_flag = int(bits[pos])
        pos += 1
    cw = ceil_log2(2 * d)
    rw = ceil_log2(d + 1)
    color = decode_int(bits[pos : pos + cw]) + 1
    pos += cw
    rank = decode_int(bits[pos : pos + rw])
    if color > 2 * d:
        raise MalformedAdvice(f"color {color} exceeds 2d = {2 * d}")
    if mode_flag == 1 and rank > d:
        raise MalformedAdvice(f"rank {rank} exceeds d = {d}")
    return RecordFields(mode_flag, front_flag, color, rank)


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (PreconditionViolated, MalformedAdvice) as exc:
        return type(exc), str(exc)


REFERENCE_DS = [*range(1, 10), 15, 16, 31, 32]


@pytest.mark.parametrize("d", REFERENCE_DS)
@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_pack_matches_the_string_codec(d, mode):
    rank_field = 1 << ceil_log2(d + 1)
    for mode_flag in (0, 1):
        for front_flag in (0, 1):
            # every color, every rank that fits its field, and one past each end
            for color in range(0, 2 * d + 2):
                for rank in range(-1, rank_field + 1):
                    args = (d, mode, mode_flag, color, rank, front_flag)
                    expected = _outcome(_reference_pack, *args)
                    got = _outcome(pack_record, *args)
                    assert got == expected, args
                    if isinstance(got, str):
                        assert type(got) is AdviceRecord
                        assert _outcome(unpack_record, got, d, mode) == _reference_unpack(
                            expected, d, mode), args
    for args in [(d, mode, bad, 1, 0, 0) for bad in (2, -1, True, "1")] + [
            (d, mode, 0, 1, 0, bad) for bad in (2, -1, True, "1")] + [(d, "lax", 0, 1, 0, 0)]:
        assert _outcome(pack_record, *args) == _outcome(_reference_pack, *args), args


@pytest.mark.parametrize("d", REFERENCE_DS)
@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_unpack_matches_the_string_codec(d, mode):
    # every record of the right length: the valid ones decode to the same
    # fields, and the rest raise the same MalformedAdvice
    length = bits_per_edge(d, mode)
    for value in range(1 << length):
        bits = format(value, f"0{length}b")
        expected = _outcome(_reference_unpack, bits, d, mode)
        assert _outcome(unpack_record, bits, d, mode) == expected, bits
    for args in [("0" * (length - 1), d, mode), ("0" * (length + 1), d, mode), ("0" * length, d, "lax")]:
        assert _outcome(unpack_record, *args) == _outcome(_reference_unpack, *args), args


def _int_accepted_variants(record):
    """Records of the same length that int(s, 2) reads (all but the inner
    space) but the layout forbids."""
    return [
        record[:1] + "_" + record[2:],
        " " + record[1:],
        record[:-1] + " ",
        record[:1] + " " + record[2:],
        "+" + record[1:],
        "-" + record[1:],
        "0b" + record[2:],
        record[:-1] + "\u0661",  # ARABIC-INDIC DIGIT ONE
        record[:-1] + "\uff11",  # FULLWIDTH DIGIT ONE
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("mode", ["strict", "robust"])
def test_records_that_int_accepts_are_malformed(d, mode):
    # a literal record of color 1 is all zeros, so each variant, read by
    # int() alone, would decode to a proper coloring of one edge
    record = pack_record(d, mode, 0, 1, 0)
    assert record == "0" * bits_per_edge(d, mode)
    for bad in _int_accepted_variants(record):
        assert len(bad) == len(record)
        if bad[1] != " ":
            int(bad, 2)  # the premise: int() alone takes it
        with pytest.raises(MalformedAdvice, match="non-bit"):
            unpack_record(bad, d, mode)
        for source in (RequestSource([bad]), TapeSource(encode_header(d) + bad)):
            with pytest.raises(MalformedAdvice, match="non-bit"):
                simulate(stream_from_pairs([(0, 1)]), AdviceAlgorithm(mode), source)


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
