"""Bit-string and Q-ary string containers plus bit-exact file I/O.

A :class:`BitString` is immutable: it holds one ``bytes`` object with one
byte (0 or 1) per bit, which numpy reads in place through ``to_array``.

Two on-disk formats are supported:

* ``ascii``  -- the characters '0' and '1'; whitespace is ignored.
* ``packed`` -- an 8-byte little-endian bit count followed by the bits
  packed MSB-first, pad bits in the final byte zeroed.  The length prefix
  makes lengths that are not a multiple of 8 unambiguous.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable

import numpy as np

from .errors import BitFormatError, ValidationError

FORMATS = ("ascii", "packed")

_ASCII_WS = b" \t\n\r\x0b\x0c"

# '0' -> 0 and '1' -> 1; every other byte -> 2, which is no bit
_DECODE = b"\x02" * 0x30 + b"\x00\x01" + b"\x02" * (256 - 0x32)
_ENCODE = bytes.maketrans(b"\x00\x01", b"01")

_ROWS = 1 << 8  # rows per % in _write_rows; 2^12 wrote traces faster but raised peak RSS


def format_bits(value: int, length: int) -> str:
    """The length-``length`` 0/1 string with MSB-first integer value ``value``."""
    return format(value, f"0{length}b") if length else ""


def rank_bits(start: int, stop: int, length: int) -> np.ndarray:
    """The MSB-first ``length``-bit strings of ranks ``start .. stop - 1`` as
    one uint8 row each; ``length <= 32``."""
    ranks = np.arange(start, stop, dtype=">u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(ranks, axis=1)[:, 32 - length:]


def _write_rows(file, header: str, blocks) -> None:
    """Write ``header``, then one ``row % values`` line per entry of each
    ``(row, columns, length)`` block, ``values`` being the entry's value in
    each of the equal-length ``columns``; ``file`` is a path (opened with
    ``newline=""``) or an open text file.  One ``%`` fills ``_ROWS`` rows of
    ``tolist()`` values, so ``%r`` prints ``repr(float)``.  A ``{}`` in ``row``
    is the entry's rank as a ``length``-bit key, set into the chunk's format
    string laid out as uint8 rows; text baked into ``row`` holds no ``%``."""
    if not hasattr(file, "write"):
        with open(file, "w", newline="") as f:
            return _write_rows(f, header, blocks)
    file.write(header)
    for row, columns, length in blocks:
        columns = [np.asarray(c) for c in columns]
        at = row.find("{}")
        layout = np.frombuffer(row.replace("{}", "0" * length).encode("ascii"), np.uint8)
        for lo in range(0, len(columns[0]) if columns else 0, _ROWS):
            values = [c[lo:lo + _ROWS].tolist() for c in columns]
            k = len(values[0])
            if at < 0:
                fmt = row * k
            else:
                text = np.tile(layout, (k, 1))
                text[:, at:at + length] += rank_bits(lo, lo + k, length)
                fmt = text.tobytes().decode("ascii")
            flat = values[0] if len(values) == 1 else [v for e in zip(*values) for v in e]
            file.write(fmt % tuple(flat))


def _decode_ascii(data: bytes, skip: bytes = b"") -> bytes:
    """The '0'/'1' bytes of ``data`` as 0/1 bytes, with the bytes in ``skip``
    dropped.  Raises BitFormatError at the first byte that is neither."""
    bits = data.translate(_DECODE, skip)
    if 2 in bits:
        off = next(i for i, c in enumerate(data) if c not in b"01" + skip)
        raise BitFormatError(f"illegal character {chr(data[off])!r}", off)
    return bits


class BitString:
    """Immutable sequence of bits, one byte (0 or 1) per bit.

    ``+`` and slicing return new strings; :meth:`to_array` is a zero-copy,
    read-only numpy view of the same bytes.
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
        else:
            self._b = BitString.from_array(np.asarray(list(bits)))._b

    @classmethod
    def _of(cls, b: bytes) -> "BitString":
        out = cls.__new__(cls)
        out._b = b
        return out

    @classmethod
    def from_array(cls, arr) -> "BitString":
        """Build from a numpy array of 0/1 values (copies once)."""
        arr = np.asarray(arr)
        bits = arr.astype(np.uint8, copy=False)
        if (bits is not arr and not np.array_equal(bits, arr)) or \
                (bits.size and bits.max() > 1):
            i = int(np.flatnonzero((arr != 0) & (arr != 1))[0])
            bad = arr.flat[i].item()
            raise ValidationError(f"illegal bit value {bad!r} at position {i}")
        return cls._of(bits.tobytes())

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """The ``length``-bit string whose MSB-first value is ``value``."""
        if length < 0 or value < 0 or value >= 1 << length:
            raise ValidationError(f"value {value} does not fit in {length} bits")
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
        if bit not in (0, 1):
            raise ValidationError(f"illegal bit value {bit!r}")
        return self._b.count(bit)

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
    """In-memory sequence over a Q-letter alphabet, symbols stored as codes 0..Q-1."""

    __slots__ = ("symbols", "q")

    def __init__(self, symbols, q: int):
        if q < 2:
            raise ValidationError(f"alphabet size must be >= 2, got {q}")
        arr = np.asarray(list(symbols) if not isinstance(symbols, np.ndarray) else symbols,
                         dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= q):
            raise ValidationError(f"symbol code out of range for alphabet size {q}")
        self.symbols = arr
        self.symbols.flags.writeable = False
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
        payload = data[8:]
        if n > len(payload) * 8:
            raise BitFormatError(
                f"declared bit count {n} exceeds payload capacity {len(payload) * 8}", 0)
        raw = np.frombuffer(payload[: (n + 7) // 8], dtype=np.uint8)
        return BitString._of(np.unpackbits(raw, count=n, bitorder="big").tobytes())
    raise ValidationError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def serialize_bits(x: BitString, fmt: str) -> bytes:
    """Encode ``x`` in the given format; inverse of :func:`parse_bits`."""
    if fmt == "ascii":
        return x._b.translate(_ENCODE)
    if fmt == "packed":
        header = struct.pack("<Q", len(x))
        if len(x) == 0:
            return header
        return header + np.packbits(x.to_array(), bitorder="big").tobytes()
    raise ValidationError(f"unknown format {fmt!r}; expected one of {FORMATS}")
