"""Advice record layout, the self-delimiting tape codec, and the sources.

A record carries, per edge: a mode flag, optionally a front flag (robust
layout only), a color field of ceil(log2(2d)) bits storing color-1, and a
rank field of ceil(log2(d+1)) bits.  Fields are big-endian, filler bits
zero.  A record is a string of '0'/'1', so dumps stay greppable.

A record is an immutable value, and a record length admits at most
2**bits_per_edge distinct records however many edges there are, so the
oracle packs, and the consumer parses, each distinct record once per run
and reuses the result for every edge that carries it.

A source frames the records for the consumer: `open(mode)` gives d, from the
first record's length (`RequestSource`) or the header (`TapeSource`), and
`next_record()` one record per edge, metered in `bits_read`.
"""
from __future__ import annotations

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
    base = 1 + ceil_log2(2 * d) + ceil_log2(d + 1)
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


def _flag(name: str, value: int) -> str:
    # bool is an int subclass, but str(True) would write "True" into the record
    if type(value) is not int or value not in (0, 1):
        raise PreconditionViolated(f"{name} must be 0 or 1, got {value!r}")
    return "1" if value else "0"


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
    record's rank above d.
    """
    bits = _flag("mode_flag", mode_flag)
    front = _flag("front_flag", front_flag)
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
    return AdviceRecord(bits)


def unpack_record(bits: str, d: int, mode: str) -> RecordFields:
    """Parse one record; range checks raise MalformedAdvice."""
    if len(bits) != bits_per_edge(d, mode):
        raise MalformedAdvice(
            f"record length {len(bits)} != {bits_per_edge(d, mode)} for d={d}"
        )
    if any(b not in "01" for b in bits):
        raise MalformedAdvice("record contains non-bit characters")
    pos = 0
    mode_flag = int(bits[pos])
    pos += 1
    front_flag: Optional[int] = None
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
    """Hands out one whole record per edge; bits are counted as delivered."""

    model = "request"

    def __init__(self, records: Iterable[str]):
        self._records = list(records)
        self._next = 0
        self.bits_read = 0

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
        self.bits_read += len(bits)
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
        self.bits_read = 0

    def read(self, k: int) -> str:
        if self._pos + k > len(self._bits):
            raise AdviceExhausted(f"requested {k} bits at {self._pos} of {len(self._bits)}")
        out = self._bits[self._pos : self._pos + k]
        self._pos += k
        self.bits_read += k
        return out

    def open(self, mode: str) -> int:
        """d, from the header, read and metered; it fixes the record length."""
        d, pos = read_header(self._bits, self._pos)
        self.bits_read += pos - self._pos
        self._pos = pos
        self._length = bits_per_edge(d, mode)
        return d

    def next_record(self) -> str:
        return self.read(self._length)

    def finish(self) -> None:
        """Raise when bits are left over after the last edge: a tape one bit
        too long otherwise decodes, shifted, into some other coloring.  An
        empty stream reads nothing, and its tape may hold one header."""
        if not self._pos and self._bits:
            self._pos = read_header(self._bits)[1]  # not metered
        left = len(self._bits) - self._pos
        if left:
            raise MalformedTape(f"{left} bits left unread after the last edge")
