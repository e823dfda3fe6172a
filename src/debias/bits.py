"""Bit-string and Q-ary string containers plus bit-exact file I/O.

A :class:`BitString` is immutable: it holds one ``bytes`` object with one
byte (0 or 1) per bit, which numpy reads in place through ``to_array``.

Two on-disk formats are supported:

* ``ascii``  -- the characters '0' and '1'; whitespace is ignored.
* ``packed`` -- an 8-byte little-endian bit count followed by the bits
  packed MSB-first, pad bits in the final byte zeroed and nothing after it.
  The length prefix makes lengths that are not a multiple of 8 unambiguous.

Every bit file the package writes goes through :func:`_write_bits`, a
piece at a time.  Every text file goes through :func:`_write_rows`, which
lays a block of lines out as one buffer of NUL-padded 4-byte groups, drops
the padding with one ``translate`` and writes ASCII bytes (``str`` only to
an open text file).  It prints every float field as ``repr`` does, the
shortest decimal that reads back to the same float, through
:func:`_field`, whatever the number of rows: the digits come from
:mod:`debias.shortest`, and each block keeps only the groups its values
print.
"""

from __future__ import annotations

import io
import re
import struct
from collections.abc import Iterable
from itertools import repeat
from numbers import Real

import numpy as np

from .errors import BitFormatError, ValidationError, _integer
from .params import FORMATS
from .shortest import _E2, _POW10, _shortest

_ASCII_WS = b" \t\n\r\x0b\x0c"

# '0' -> 0 and '1' -> 1; every other byte -> 2, which is no bit
_DECODE = b"\x02" * 0x30 + b"\x00\x01" + b"\x02" * (256 - 0x32)
_ENCODE = bytes.maketrans(b"\x00\x01", b"01")

# bytes of padded lines per write, a %r field counted at _FIELD bytes and a
# key with the 32 unpacked bits of its rank: 8192 lines of a drift trace
_CHUNK = 49 << 13


def format_bits(value: int, length: int) -> str:
    """The length-``length`` 0/1 string with MSB-first integer value ``value``."""
    return format(value, f"0{length}b") if length else ""


def rank_bits(start: int, stop: int, length: int) -> np.ndarray:
    """The MSB-first ``length``-bit strings of ranks ``start .. stop - 1`` as
    one uint8 row each; ``length <= 32``."""
    ranks = np.arange(start, stop, dtype=">u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(ranks, axis=1)[:, 32 - length:]


def _key_rank(key, length: int) -> int:
    """The MSB-first rank of ``key`` if it is a str of exactly ``length``
    characters '0' and '1', else -1; ``int(key, 2)`` alone would also take
    "0_1", " 01 ", "+1" and "١٠"."""
    if isinstance(key, str) and len(key) == length and not key.strip("01"):
        return int(key, 2) if length else 0
    return -1


def _keyed_array(table, length: int, name: str, bad_keys: str) -> np.ndarray:
    """The values of ``table``, keyed by every ``length``-bit string, as a
    float64 array in rank order.  Else ValidationError: ``bad_keys`` with the
    first key that is no such string (or None) for its ``{}``, or a message
    naming, as ``name[key]``, the lowest-rank value that is not a real number."""
    ranks = [_key_rank(h, length) for h in table]
    if len(ranks) != 1 << length or -1 in ranks:
        bad = next((h for h, r in zip(table, ranks) if r < 0), None)
        raise ValidationError(bad_keys.format(bad))
    values = list(table.values())
    if not all(issubclass(t, Real) for t in set(map(type, values))):  # per type, not value
        h = format_bits(min(r for r, v in zip(ranks, values) if not isinstance(v, Real)), length)
        raise ValidationError(f"{name}[{h!r}] = {table[h]!r} is not a real number")
    out = np.empty(len(values))
    out[ranks] = values
    return out


# A %r field is 12 groups of 4 bytes, each an entry of _TEXT: the sign, 16
# integer digits, the point, 20 fraction digits and the exponent.  _MASK
# blanks the leading integer and fraction places a value does not print.
# A block of rows keeps only the groups some value of it prints (_field).
_TEXT = np.zeros((10103, 4), np.uint8)
_digit = np.arange(48, 58, dtype=np.uint8)
_TEXT[:10000].reshape(10, 10, 10, 10, 4)[...] = np.stack(np.broadcast_arrays(
    _digit[:, None, None, None], _digit[:, None, None], _digit[:, None], _digit), -1)
_NUL, _DOT, _MINUS, _EXP = np.uint16([10000, 10001, 10002, 10003])  # _EXP + j: "e-%02d" % j
_TEXT[_DOT, 0], _TEXT[_MINUS, 0] = ord("."), ord("-")
_TEXT[_EXP:, :2] = ord("e"), ord("-")
_TEXT[_EXP:, 2:] = _TEXT[:100, 2:]
_TEXT = _TEXT.view(np.uint32).ravel()
_FIELD = 48
_ROWS = 512  # rows per block of the last step of _lay, which casts its indices to 8 bytes
_MASK = np.frombuffer(b"".join(  # row 21 a + b blanks a integer and b fraction places
    b"\xff" * 4 + bytes(a) + b"\xff" * (20 - a) + bytes(b) + b"\xff" * (24 - b)
    for a in range(17) for b in range(21)), np.uint32).reshape(-1, _FIELD // 4)


def _groups(v: np.ndarray, out: np.ndarray) -> None:
    """Write the uint64 values ``v``, which it uses up, as 4-digit groups
    into the columns of ``out``, the last group in the last column; each
    value has at most as many groups as ``out`` has columns (none for a
    block of e forms with one digit)."""
    q, t = np.empty_like(v), np.empty_like(v)
    for i in range(out.shape[1] - 1, 0, -1):
        np.floor_divide(v, np.uint64(10000), out=q)
        v -= np.multiply(q, np.uint64(10000), out=t)
        out[:, i] = v
        v, q = q, v
    if out.shape[1]:
        out[:, 0] = v


def _field(x: np.ndarray):
    """The ``repr`` field of each value of the float64 array ``x``, cropped
    to the 4-byte groups some value of ``x`` prints:
    ``(size, fill, mask, row, slow, text)``.  ``fill(out)`` writes the
    ``_TEXT`` index of each of the ``size`` groups into the columns of
    ``out``, ``mask.take(row)`` blanks the places a value does not print,
    and each row of ``slow`` holds the ``repr`` in ``text`` instead."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    e = x.view(np.int64) >> 52
    e &= 0x7FF
    e -= 1023 + _E2[0]
    fast = e.view(np.uintp) < len(_E2)  # 0 <= e < len(_E2)
    if not fast.any():
        slow = np.arange(len(x))
    elif fast.all():
        c, digits, point, ok = _shortest(x, e)
        slow = np.flatnonzero(~ok)
    else:
        # values outside the integer route are stood in by 1.0 and go to repr
        c, digits, point, ok = _shortest(np.where(fast, x, 1.0), np.where(fast, e, -_E2[0]))
        slow = np.flatnonzero(~(ok & fast))
    del e, fast
    text = [repr(v) for v in x[slow].tolist()]
    longest = max(map(len, text), default=0)
    if len(slow) == len(x):  # every row is a repr, so any index and mask do
        size = -(-longest // 4)
        return (size, lambda out: out.fill(_NUL), _MASK[:, :size], np.zeros(len(x), np.intp),
                slow, np.array(text, f"S{4 * size}"))
    # repr's layout of x = 0.(the digits of c) 10^point
    sci = point <= -4  # x < 2^51 is below 10^16, so never large enough for e+
    lead = np.where(sci, 1, point)  # digits before the point
    frac = digits - lead  # digits after it, if positive
    del digits
    shown = np.where(sci, frac, np.maximum(frac, 1))
    np.maximum(lead, 1, out=lead)
    # the groups kept: the sign, the integer groups up to the longest integer
    # part (its top group is the sign's), the point, the fraction groups up to
    # the longest fraction (fraction digits end at the last group), and the
    # exponent if some value prints one; all 12 if a repr would not fit
    ints, fracs, exp = -(-int(lead.max()) // 4), -(-int(shown.max()) // 4), bool(sci.any())
    if 4 * (2 + ints + fracs + exp) < longest:
        ints, fracs, exp = 4, 5, True
    keep = [0, *range(5 - ints, 5), 5, *range(11 - fracs, 11)] + [11] * exp
    p = _POW10.take(frac, mode="clip")  # 10^frac, or 1 for frac < 0
    v = c // p  # the integer digits
    c -= v * p  # the fraction digits
    np.negative(frac, out=frac)
    v *= _POW10.take(frac, mode="clip")
    del p, frac
    row = (16 - lead) * 21 + 20 - shown  # of _MASK
    del lead

    def fill(out):
        out[:, 0] = np.where(x < 0, _MINUS, _NUL)
        _groups(v, out[:, 1:1 + ints])
        out[:, 1 + ints] = np.where(shown > 0, _DOT, _NUL)
        _groups(c, out[:, 2 + ints:2 + ints + fracs])
        if exp:
            out[:, -1] = np.where(sci, _EXP + 1 - point, _NUL)

    return len(keep), fill, _MASK[:, keep], row, slow, np.array(text, f"S{4 * len(keep)}")


def _lay(cells, rows: int) -> bytearray:
    """``rows`` lines of text, each as the same number of NUL-padded 4-byte
    groups, the ``%r`` fields looked up in ``_TEXT`` by one ``take`` per
    ``_ROWS`` rows.  A cell is a float64 column (a ``%r`` field, through
    :func:`_field`), the bytes of literal text as a 1-d uint8 array, or a
    2-d uint8 array of text, one row per line."""
    laid, width = [], 0
    for cell in cells:
        if cell.dtype == np.float64:
            cell = _field(cell)
            size = cell[0]
        else:
            size = -(-cell.shape[-1] // 4)
        laid.append((width, size, cell))
        width += size
    index = np.empty((rows, width), np.uint16)
    fields, texts = [], []  # per field: its place, a mask of the whole row, and the rest
    for at, size, cell in laid:
        if isinstance(cell, tuple):
            cell[1](index[:, at:at + size])
            mask = np.full((len(cell[2]), width), 0xFFFFFFFF, np.uint32)
            mask[:, at:at + size] = cell[2]
            fields.append((at, size, mask, *cell[3:]))
        else:
            index[:, at:at + size] = _NUL
            texts.append((at, cell))
    del laid, cell  # and with them each fill, which holds its field's digits
    buf = bytearray(4 * rows * width)  # translate reads it in place
    out = np.frombuffer(buf, np.uint32).reshape(rows, width)
    for lo in range(0, rows, _ROWS):
        block = out[lo:lo + _ROWS]
        _TEXT.take(index[lo:lo + _ROWS], out=block, mode="clip")
        for _, _, mask, row, _, _ in fields:
            block &= mask.take(row[lo:lo + _ROWS], axis=0)
    del index
    out = out.view(np.uint8)
    for at, size, _, _, slow, text in fields:
        out[slow, 4 * at:4 * (at + size)] = text.view(np.uint8).reshape(len(slow), 4 * size)
    for at, text in texts:
        out[:, 4 * at:4 * at + text.shape[-1]] = text
    return buf


_SPEC = re.compile(r"(\{\}|%[^a-z]*[a-z])")


def _write_rows(file, header: str, blocks) -> None:
    """Write ``header``, then one line per entry of each ``(row, columns,
    length)`` block: ``row`` with its ``%`` fields filled, in order, with the
    entry's value in each of the equal-length ``columns``, and its ``{}``
    with the entry's rank as a ``length``-bit key; the rest of ``row`` holds
    no ``%``.  ``file`` is a path (opened with ``"wb"``), an open binary file
    or an open text file; only a text file gets ``str``, the others get the
    ASCII bytes.  A ``%r`` field holds a float64 column and prints ``repr``
    through :func:`_field`; any other field is ``%``-formatted one value at a
    time.  Each write is the lines of about ``_CHUNK`` bytes of
    ``_FIELD``-wide fields, laid out by :func:`_lay` as one row buffer of
    4-byte groups, each ``%r`` field cropped to the groups its block prints,
    from which one ``translate`` drops the padding."""
    if not hasattr(file, "write"):
        with open(file, "wb") as f:
            return _write_rows(f, header, blocks)
    put = (lambda b: file.write(b.decode("ascii"))) if isinstance(file, io.TextIOBase) \
        else file.write
    put(header.encode("ascii"))
    for row, columns, length in blocks:
        rows = len(columns[0]) if columns else 0
        if not rows:
            continue
        cells, values = [], iter(columns)  # per part: text bytes, None for the key, or a field
        for i, part in enumerate(_SPEC.split(row)):
            if i % 2 == 0:
                cells.append(np.frombuffer(part.encode("ascii"), np.uint8))
            elif part == "{}":
                cells.append(None)
            else:
                dtype = np.float64 if part == "%r" else None
                cells.append((part, np.asarray(next(values), dtype)))
        width = sum(32 + length if c is None else len(c) if isinstance(c, np.ndarray) else _FIELD
                    for c in cells)
        step = max(1, _CHUNK // width)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            put(_lay([_cut(c, lo, hi, length) for c in cells], hi - lo).translate(None, b"\0"))


def _cut(cell, lo: int, hi: int, length: int) -> np.ndarray:
    """Rows ``lo .. hi - 1`` of one cell of a :func:`_write_rows` row, as
    :func:`_lay` takes it."""
    if cell is None:
        return rank_bits(lo, hi, length) + np.uint8(48)
    if isinstance(cell, np.ndarray):
        return cell
    fmt, values = cell
    if fmt == "%r":
        return values[lo:hi]
    text = np.array([fmt % v for v in values[lo:hi].tolist()], "S")
    return text.view(np.uint8).reshape(hi - lo, -1)


def _decode_ascii(data: bytes, skip: bytes = b"") -> bytes:
    """The '0'/'1' bytes of ``data`` as 0/1 bytes, with the bytes in ``skip``
    dropped.  Raises BitFormatError at the first byte that is neither."""
    bits = data.translate(_DECODE, skip)
    if 2 in bits:
        # the first byte left once the legal ones are deleted is the first
        # bad one, so no earlier byte equals it
        off = data.index(data.translate(None, b"01" + skip)[:1])
        raise BitFormatError(f"illegal character {chr(data[off])!r}", off)
    return bits


class BitString:
    """Immutable sequence of bits, one byte (0 or 1) per bit.

    ``+`` and slicing return new strings; :meth:`to_array` is a zero-copy,
    read-only numpy view of the same bytes.  An ndarray or bytes-like
    argument is read whole by :meth:`from_array`; any other iterable is
    listed first.
    """

    __slots__ = ("_b",)

    def __init__(self, bits: "str | Iterable[int] | BitString" = ""):
        if isinstance(bits, BitString):
            self._b = bits._b
        elif isinstance(bits, str):
            try:
                self._b = _decode_ascii(bits.encode("latin-1", "replace"))
            except BitFormatError as exc:
                i = exc.offset
                raise ValidationError(
                    f"illegal bit character {bits[i]!r} at position {i}") from None
        elif isinstance(bits, (bytes, bytearray)):
            self._b = BitString.from_array(np.frombuffer(bits, dtype=np.uint8))._b
        elif isinstance(bits, (np.ndarray, memoryview)) and bits.ndim:
            self._b = BitString.from_array(bits)._b
        else:  # a 0-d array, like any non-iterable, fails in list()
            self._b = BitString.from_array(np.asarray(list(bits)))._b

    @classmethod
    def _of(cls, b: bytes) -> "BitString":
        out = cls.__new__(cls)
        out._b = b
        return out

    @classmethod
    def _many(cls, rows: list) -> "list[BitString]":
        """One instance per ``bytes`` of ``rows``, made and filled by C-level
        maps with no Python frame per member."""
        out = list(map(object.__new__, repeat(cls, len(rows))))
        any(map(cls._b.__set__, out, rows))  # each set returns None
        return out

    @classmethod
    def from_array(cls, arr) -> "BitString":
        """Build from a numpy array of 0/1 values (copies once)."""
        arr = np.asarray(arr)
        with np.errstate(invalid="ignore"):  # a NaN is reported below
            bits = arr.astype(np.uint8, copy=False)
        if (bits is not arr and not np.array_equal(bits, arr)) or \
                (bits.size and bits.max() > 1):
            i = int(np.flatnonzero((arr != 0) & (arr != 1))[0])
            bad = arr.flat[i:i + 1].item()  # a Python scalar for every dtype
            raise ValidationError(f"illegal bit value {bad!r} at position {i}")
        return cls._of(bits.tobytes())

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """The ``length``-bit string whose MSB-first value is ``value``."""
        length = _integer("length", length, 0)
        value = _integer("value", value, 0, (1 << length) - 1)
        return cls._of(_decode_ascii(format_bits(value, length).encode("ascii")))

    def to_array(self) -> np.ndarray:
        """Read-only uint8 view of the bits; shares memory, copies nothing."""
        return np.frombuffer(self._b, dtype=np.uint8)

    def to_int(self) -> int:
        """MSB-first integer value (lexicographic rank within its length)."""
        return int(self.to01() or "0", 2)

    def to01(self) -> str:
        return self._b.translate(_ENCODE).decode("ascii")

    def count(self, bit: int) -> int:
        return self._b.count(_integer("bit", bit, 0, 1))

    def __len__(self) -> int:
        return len(self._b)

    def __iter__(self):
        return iter(self._b)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BitString._of(self._b[i])
        return self._b[i]

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString._of(self._b + other._b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._b == other._b

    def __hash__(self) -> int:
        return hash(self._b)

    def __str__(self) -> str:
        return self.to01()

    def __repr__(self) -> str:
        if len(self) <= 64:
            return f"BitString({self.to01()!r})"
        return f"BitString({self.to01()[:61]!r}..., length={len(self)})"


class QaryString:
    """Sequence over a Q-letter alphabet, held as a read-only copy of codes 0..Q-1."""

    __slots__ = ("symbols", "q")

    def __init__(self, symbols, q: int):
        q = _integer("alphabet size", q, 2)
        arr = np.asarray(symbols if isinstance(symbols, np.ndarray) else list(symbols))
        if arr.size and arr.dtype.kind not in "biu":  # a float code, NaN too, is no symbol
            raise ValidationError(f"symbol codes must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)  # a copy, whatever the input's dtype
        if arr.size and (arr.min() < 0 or arr.max() >= q):
            raise ValidationError(f"symbol code out of range for alphabet size {q}")
        arr.flags.writeable = False
        self.symbols = arr
        self.q = q

    @classmethod
    def from_letters(cls, text: str, alphabet: str) -> "QaryString":
        codes = {ch: i for i, ch in enumerate(alphabet)}
        try:
            return cls([codes[ch] for ch in text], q=len(alphabet))
        except KeyError as exc:
            raise ValidationError(f"letter {exc.args[0]!r} not in alphabet {alphabet!r}") from None

    def to_letters(self, alphabet: str) -> str:
        if len(alphabet) < self.q:
            raise ValidationError("alphabet shorter than symbol range")
        return "".join(alphabet[c] for c in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols.tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return QaryString(self.symbols[i], self.q)
        return int(self.symbols[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QaryString):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.symbols, other.symbols)

    def __repr__(self) -> str:
        return f"QaryString({self.symbols.tolist()!r}, q={self.q})"


def parse_bits(data: bytes, fmt: str) -> BitString:
    """Decode ``data`` in the given format ('ascii' or 'packed') to a BitString.

    Raises BitFormatError with the offending byte offset on malformed input.
    """
    if fmt == "ascii":
        return BitString._of(_decode_ascii(data, _ASCII_WS))
    if fmt == "packed":
        if len(data) < 8:
            raise BitFormatError("truncated header: need 8 length bytes", 0)
        (n,) = struct.unpack("<Q", data[:8])
        end = 8 + (n + 7) // 8
        if len(data) < end:
            raise BitFormatError(
                f"declared bit count {n} exceeds payload capacity {8 * (len(data) - 8)}", 0)
        if len(data) > end:
            raise BitFormatError(f"data past the {n}-bit payload", end)
        if n % 8 and data[-1] & (0xFF >> n % 8):
            raise BitFormatError("nonzero pad bits", end - 1)
        raw = np.frombuffer(data, np.uint8, offset=8)
        return BitString._of(np.unpackbits(raw, count=n, bitorder="big").tobytes())
    raise ValidationError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def serialize_bits(x: BitString, fmt: str) -> bytes:
    """Encode ``x`` in the given format; inverse of :func:`parse_bits`."""
    out = io.BytesIO()
    _write_bits(out, len(x), [x.to_array()], fmt)
    return out.getvalue()


def _write_bits(file, n: int, pieces, fmt: str) -> None:
    """Write a file of n bits in ``fmt`` to the open binary ``file``: the
    packed length, if any, then the 0/1 ``uint8`` arrays ``pieces``, n bits
    in all, encoded as they come.  A packed byte takes 8 bits, so a piece's
    last ``len % 8`` bits wait for the next piece, as a copy (a producer may
    reuse its buffer); the last byte's pad bits are zero."""
    if fmt not in FORMATS:
        raise ValidationError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "ascii":
        for p in pieces:
            file.write(p + np.uint8(ord("0")))
        return
    file.write(struct.pack("<Q", n))
    carry = np.empty(0, np.uint8)
    for p in pieces:
        if len(carry):
            p = np.concatenate([carry, p])
        cut = len(p) & ~7
        file.write(np.packbits(p[:cut], bitorder="big"))
        carry = p[cut:].copy()
    file.write(np.packbits(carry, bitorder="big"))
