"""Advice record layout, the self-delimiting tape codec, and the sources.

A record carries, per edge: a mode flag, optionally a front flag (robust
layout only), a color field of ceil(log2(2d)) bits storing color-1, and a
rank field of ceil(log2(d+1)) bits.  Filler bits are zero.  Read in that
order, the fields are the digits of one integer, mode flag first, and the
record is that integer written big-endian in exactly bits_per_edge bits:
packing is a few shifts and one format() call, parsing one int() call and
a mask per field, with no slicing.  A record is a string of '0'/'1', so
dumps stay greppable.

A record is an immutable value, and a record length admits at most
2**bits_per_edge distinct records however many edges there are, so the
oracle packs, and the consumer parses, each distinct record once per run
and reuses the result for every edge that carries it.

A source frames the records for the consumer: `open(mode)` gives d, from the
first record's length (`RequestSource`) or the header (`TapeSource`), and
`next_record()` one record per edge.  `bits_read` is derived from the
source's cursor when it is read, not counted per edge.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple, Optional

from .errors import AdviceExhausted, MalformedAdvice, MalformedTape, PreconditionViolated


def ceil_log2(x: int) -> int:
    """Smallest w with 2**w >= x, for x >= 1.

    >>> [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)]
    [0, 1, 2, 2, 3, 3, 4]
    """
    if x < 1:
        raise PreconditionViolated("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


def encode_int(value: int, width: int) -> str:
    """Big-endian fixed-width bits.

    >>> encode_int(5, 4)
    '0101'
    """
    if value < 0 or value >= (1 << width):
        raise PreconditionViolated(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


def decode_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


def bits_per_edge(d: int, mode: str = "strict") -> int:
    """Record length for degeneracy bound d.

    Strict layout: 1 + ceil(log2(2d)) + ceil(log2(d+1)).  The robust layout
    spends one extra bit naming the front endpoint.

    >>> [bits_per_edge(d) for d in (1, 3, 5)]
    [3, 6, 8]
    """
    if d < 1:
        raise PreconditionViolated("d must be >= 1")
    base = 1 + (2 * d - 1).bit_length() + d.bit_length()  # ceil_log2(2d), ceil_log2(d+1)
    if mode == "strict":
        return base
    if mode == "robust":
        return base + 1
    raise PreconditionViolated(f"unknown mode {mode!r}")


def pad_degeneracy(d: int) -> int:
    """Largest d' >= d whose record length equals that of d.

    Encoding for the padded value is free, and it makes the record length
    an injective function of the padded d, so the consumer can recover d
    from the length alone.

    Both field widths only grow with d, so d' is the last d before either
    grows: the color width once d passes the first power of two at or
    above it, the rank width once d+1 does.

    >>> [pad_degeneracy(d) for d in (1, 2, 3, 5)]
    [1, 2, 3, 7]
    >>> pad_degeneracy(10**9)
    1073741823
    """
    if d < 1:
        raise PreconditionViolated("d must be >= 1")
    return min(2 ** ceil_log2(2 * d) // 2, 2 ** ceil_log2(d + 1) - 1)


def degeneracy_from_length(length: int, mode: str = "strict") -> int:
    """Invert bits_per_edge, returning the padded representative.

    For d >= 2 write k = ceil(log2 d): the color field takes k + 1 bits,
    and the rank field k bits, or k + 1 when d = 2**k.  So a strict length
    L is 2k + 3 for d = 2**k and 2k + 2 for 2**(k-1) < d < 2**k, which is
    nonempty once k >= 2; d = 1 alone has L = 3.  Raises MalformedAdvice
    when no d maps to `length`.

    >>> degeneracy_from_length(60, "strict")
    536870911
    """
    strict = length - bits_per_edge(1, mode) + 3  # raises on an unknown mode
    if strict == 3:
        return 1
    if strict >= 5 and strict % 2:
        return 1 << (strict - 3) // 2
    if strict >= 6:  # even
        return (1 << (strict - 2) // 2) - 1
    raise MalformedAdvice(f"no degeneracy bound has {length}-bit records")


class RecordFields(NamedTuple):
    mode_flag: int          # 0: take the color field literally; 1: subset route
    front_flag: Optional[int]  # robust layout only; 0 means min-label endpoint is front
    color: int              # 1..2d
    rank: int               # 0..d for subset records, filler 0 otherwise


class AdviceRecord(str):
    """One packed record: the string of its bits."""

    __slots__ = ()

    @property
    def bits(self) -> str:
        """str(self), kept only as the benchmark builds AdviceRecord(...) and reads .bits."""
        return str(self)


def _check_flag(name: str, value: int) -> None:
    # bool is an int subclass, but True is not a bit
    if type(value) is not int or value not in (0, 1):
        raise PreconditionViolated(f"{name} must be 0 or 1, got {value!r}")


def pack_record(
    d: int,
    mode: str,
    mode_flag: int,
    color: int,
    rank: int,
    front_flag: int = 0,
) -> AdviceRecord:
    """Serialize one record; color is stored as color-1.

    Raises PreconditionViolated for anything unpack_record would reject:
    a flag other than the int 0 or 1, a color outside 1..2d, or a subset
    record's rank above d; and for a rank that does not fit its field.

    >>> pack_record(3, "strict", 1, 2, 3), pack_record(3, "robust", 0, 6, 0, 1)
    ('100111', '0110100')
    """
    _check_flag("mode_flag", mode_flag)
    _check_flag("front_flag", front_flag)
    if mode == "robust":
        value, length = mode_flag << 1 | front_flag, 2
    elif mode == "strict":
        value, length = mode_flag, 1
    else:
        raise PreconditionViolated(f"unknown mode {mode!r}")
    if not 1 <= color <= 2 * d:
        raise PreconditionViolated(f"color {color} is outside 1..{2 * d}")
    if mode_flag == 1 and rank > d:
        raise PreconditionViolated(f"rank {rank} exceeds d = {d}")
    cw, rw = (2 * d - 1).bit_length(), d.bit_length()
    if not 0 <= rank < 1 << rw:
        raise PreconditionViolated(f"{rank} does not fit in {rw} bits")
    value = (value << cw | color - 1) << rw | rank
    return AdviceRecord(format(value, f"0{length + cw + rw}b"))


def unpack_record(bits: str, d: int, mode: str) -> RecordFields:
    """Parse one record; range checks raise MalformedAdvice.

    Only ASCII '0' and '1' are bits: int(bits, 2) alone would also take an
    underscore, spaces around the digits, a sign, a "0b" prefix and
    non-ASCII digits, so they are refused before it reads the record.
    """
    length = bits_per_edge(d, mode)
    if len(bits) != length:
        raise MalformedAdvice(f"record length {len(bits)} != {length} for d={d}")
    if bits.strip("01"):  # what is left holds the first and last non-bit
        raise MalformedAdvice("record contains non-bit characters")
    value = int(bits, 2)
    cw, rw = (2 * d - 1).bit_length(), d.bit_length()
    rank = value & ((1 << rw) - 1)
    color = (value >> rw & ((1 << cw) - 1)) + 1
    flags = value >> (cw + rw)
    if mode == "robust":
        mode_flag, front_flag = flags >> 1, flags & 1
    else:
        mode_flag, front_flag = flags, None
    if color > 2 * d:
        raise MalformedAdvice(f"color {color} exceeds 2d = {2 * d}")
    if mode_flag == 1 and rank > d:
        raise MalformedAdvice(f"rank {rank} exceeds d = {d}")
    return RecordFields(mode_flag, front_flag, color, rank)


def encode_header(d: int) -> str:
    """Self-delimiting d: ceil(log2(d)) ones, a zero, then d in that many bits.

    d itself is written modulo 2**width, so the top value of each width
    class wraps to zero; the reader knows the width and undoes the wrap.

    >>> encode_header(1), encode_header(5)
    ('0', '1110101')
    """
    if d < 1:
        raise PreconditionViolated("d must be >= 1")
    width = ceil_log2(d)
    return "1" * width + "0" + encode_int(d % (1 << width) if width else 0, width)


def read_header(bits: str, pos: int = 0) -> tuple[int, int]:
    """Decode the header at `pos`; returns (d, next position).

    Raises MalformedTape when the tape ends inside the header or the header
    holds a character other than '0' and '1'.
    """
    width = 0
    while True:
        if pos >= len(bits):
            raise MalformedTape("tape ended inside the unary width prefix")
        bit = bits[pos]
        pos += 1
        if bit != "1":
            break
        width += 1
    field = bits[pos : pos + width]
    if bit != "0" or any(b not in "01" for b in field):
        raise MalformedTape("header contains a non-bit character")
    if len(field) < width:
        raise MalformedTape("tape ended inside the binary value field")
    value = decode_int(field)
    d = value if value else 1 << width  # width 0 gives d = 1
    return d, pos + width


def encode_tape(records: Iterable[str], d: int) -> str:
    """The tape's bit string: the header for d, then the records in
    arrival order."""
    return encode_header(d) + "".join(records)


def header_bits(d: int) -> int:
    return 2 * ceil_log2(d) + 1


class RequestSource:
    """Hands out one whole record per edge; bits count as read once handed
    out."""

    model = "request"

    def __init__(self, records: Iterable[str]):
        self._records = list(records)
        self._next = 0

    @property
    def bits_read(self) -> int:
        """The summed length of the records handed out."""
        return sum(map(len, islice(self._records, self._next)))

    def open(self, mode: str) -> int:
        """d, from the length of the next record, which stays unread."""
        if self._next >= len(self._records):
            raise AdviceExhausted(f"no record for edge {self._next}")
        return degeneracy_from_length(len(self._records[self._next]), mode)

    def next_record(self) -> str:
        if self._next >= len(self._records):
            raise AdviceExhausted(f"no record for edge {self._next}")
        bits = self._records[self._next]
        self._next += 1
        return bits

    def finish(self) -> None:
        """Raise when records are left over after the last edge."""
        left = len(self._records) - self._next
        if left:
            raise MalformedAdvice(f"{left} records left unread after the last edge")


class TapeSource:
    """Cursor over a single bit string; reads past the end raise."""

    model = "tape"

    def __init__(self, tape: str):
        self._bits = tape
        self._pos = 0
        self._length = 0

    @property
    def bits_read(self) -> int:
        """The cursor: every bit before it was read."""
        return self._pos

    def open(self, mode: str) -> int:
        """d, from the header, read and metered; it fixes the record length."""
        d, self._pos = read_header(self._bits, self._pos)
        self._length = bits_per_edge(d, mode)
        return d

    def next_record(self) -> str:
        pos, k = self._pos, self._length
        end = pos + k
        if end > len(self._bits):
            raise AdviceExhausted(f"requested {k} bits at {pos} of {len(self._bits)}")
        self._pos = end
        return self._bits[pos:end]

    def finish(self) -> None:
        """Raise when bits are left over after the last edge: a tape one bit
        too long otherwise decodes, shifted, into some other coloring.  An
        empty stream reads nothing, and its tape may hold one header."""
        pos = self._pos
        if not pos and self._bits:
            pos = read_header(self._bits)[1]  # not metered: the cursor stays
        left = len(self._bits) - pos
        if left:
            raise MalformedTape(f"{left} bits left unread after the last edge")
