"""Bit-string and Q-ary string containers plus bit-exact file I/O.

A :class:`BitString` is immutable: it holds one ``bytes`` object with one
byte (0 or 1) per bit, which numpy reads in place through ``to_array``.

Two on-disk formats are supported:

* ``ascii``  -- the characters '0' and '1'; whitespace is ignored.
* ``packed`` -- an 8-byte little-endian bit count followed by the bits
  packed MSB-first, pad bits in the final byte zeroed and nothing after it.
  The length prefix makes lengths that are not a multiple of 8 unambiguous.

Every text file the package writes goes through :func:`_write_rows`, which
lays a chunk of lines out as NUL-padded ``uint8`` columns and prints every
float field as ``repr`` does, the shortest decimal that reads back to the
same float, with :func:`_repr_floats`, whatever the number of rows.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterable
from numbers import Real

import numpy as np

from .errors import BitFormatError, ValidationError, _integer

FORMATS = ("ascii", "packed")

_ASCII_WS = b" \t\n\r\x0b\x0c"

# '0' -> 0 and '1' -> 1; every other byte -> 2, which is no bit
_DECODE = b"\x02" * 0x30 + b"\x00\x01" + b"\x02" * (256 - 0x32)
_ENCODE = bytes.maketrans(b"\x00\x01", b"01")

_CHUNK = 1 << 18  # bytes of padded row text that _write_rows lays out per write


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


# Shortest round-trip decimals.  A float64 of binary exponent e2 (2^e2 <= |x|
# < 2^(e2+1)) and 53-bit integer significand M is x = M 2^(e2-52).  With
# q = 17 - floor(e2 log10 2), X = |x| 10^q lies in [10^17, 2 10^18) and is
# M 5^q / 2^s, s = 52 - e2 - q; for -40 <= e2 <= 50, s is 0..62, so
# M * (5^q 2^(64-s)) is X exactly as 64 integer and 64 fraction bits, and
# half the gap to a neighbouring float, 5^q / 2^(s+1), is G / 2^64 with
# G = 5^q 2^(63-s) (half of that below a power of two).  Other values,
# among them 0, subnormals, inf and nan, are left to repr.
_E2 = range(-40, 51)
_Q = np.array([17 - ((e2 * 78913) >> 18) for e2 in _E2])  # floor(e2 log10 2) for |e2| < 1650
_WIDE = [5 ** int(q) << (12 + e2 + int(q)) for e2, q in zip(_E2, _Q)]  # 5^q 2^(64-s)
_W0, _W1, _W2 = (np.array([w >> k & 0xFFFFFFFF for w in _WIDE], np.uint64) for k in (0, 32, 64))
_GI, _GF = (np.array([w >> k & (1 << 64) - 1 for w in _WIDE], np.uint64) for k in (65, 1))
_POW10 = np.array([10 ** i for i in range(20)], np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_MANT = np.uint64((1 << 52) - 1)

# A %r field is 12 groups of 4 bytes, each an entry of _TEXT: the sign, 16
# integer digits, the point, 20 fraction digits and the exponent.  _MASK
# blanks the leading integer and fraction places a value does not print.
_TEXT = np.zeros((10103, 4), np.uint8)
_digit = np.arange(48, 58, dtype=np.uint8)
_TEXT[:10000].reshape(10, 10, 10, 10, 4)[...] = np.stack(np.broadcast_arrays(
    _digit[:, None, None, None], _digit[:, None, None], _digit[:, None], _digit), -1)
_NUL, _DOT, _MINUS, _EXP = 10000, 10001, 10002, 10003  # _EXP + j: "e-%02d" % j
_TEXT[_DOT, 0], _TEXT[_MINUS, 0] = ord("."), ord("-")
_TEXT[_EXP:, :2] = ord("e"), ord("-")
_TEXT[_EXP:, 2:] = _TEXT[:100, 2:]
_TEXT = _TEXT.view(np.uint32).ravel()
_FIELD = 48
_ROWS = 512  # fields per block of the last, 12-index-per-field step of _shortest
_MASK = np.frombuffer(b"".join(  # row 21 a + b blanks a integer and b fraction places
    b"\xff" * 4 + bytes(a) + b"\xff" * (20 - a) + bytes(b) + b"\xff" * (24 - b)
    for a in range(17) for b in range(21)), np.uint32).reshape(-1, _FIELD // 4)


def _shortest(x: np.ndarray, e: np.ndarray):
    """The ``repr`` fields of the finite floats ``x`` whose exponents ``e2``
    are ``_E2[e]``, and which of them are certain: an exact tie between two
    shortest decimals is left to ``repr``.  Each 8-byte temporary is freed,
    or written over in place, once it is used up."""
    u32 = np.uint64(32)
    m0 = x.view(np.uint64) & _MANT
    pow2 = np.flatnonzero(m0 == 0)
    m0 |= np.uint64(1 << 52)
    # X = d + phi / 2^64: the 53 x 73-bit product M * _WIDE[e] in 32-bit
    # columns, summed mod 2^64 in any order
    m1 = m0 >> u32
    m0 &= _LO32
    w = _W0.take(e)
    p10 = m1 * w
    phi = m0 * w  # p00
    _W1.take(e, out=w)
    p01 = m0 * w
    mid = phi >> u32
    phi &= _LO32
    mid += p01 & _LO32
    mid += p10 & _LO32
    phi |= mid << u32
    d = mid
    d >>= u32
    p01 >>= u32
    d += p01
    p10 >>= u32
    d += p10
    del p01, p10
    np.multiply(m1, w, out=w)  # m1 * w1
    d += w
    _W2.take(e, out=w)
    m0 *= w
    d += m0
    m1 *= w
    m1 <<= u32
    d += m1
    del m0, m1, w
    # hi and lo: the integers just below the ends of the round-trip interval,
    # X plus and minus half the gap to a neighbour.  An end is an integer
    # only if 53 - e2 <= q, that is for e2 > 50, so whether the interval
    # holds its ends (it does for even M) never matters here.
    gi, gf = _GI.take(e), _GF.take(e)
    carry = phi + gf < phi
    hi = d + gi
    hi += carry
    gf[pow2] = (gf[pow2] >> np.uint64(1)) | (gi[pow2] << np.uint64(63))
    gi[pow2] >>= np.uint64(1)
    lo = d - gi
    lo -= phi < gf
    exact = phi == 0
    del gi, gf, phi, pow2, carry
    # k: the most places a multiple of 10^k inside the interval drops; at
    # least 1, as the interval is wider than 10, and a multiple of 10^(k+1)
    # inside is a multiple of 10^k
    k = np.ones(len(x), np.intp)
    for j in range(2, 19):
        more = hi // _POW10[j] != lo // _POW10[j]
        if not more.any():
            break
        k += more
    del more
    # of the two multiples of 10^k around X, the one inside, or else the nearer
    p = _POW10.take(k)
    t = d // p
    tp = t * p
    r = d
    r -= tp
    del d
    down = tp > lo
    tp += p
    up = tp <= hi
    del tp, hi, lo
    half = p >> np.uint64(1)
    eq = r == half
    above = r > half
    del r, half
    tie = down & up & eq & exact
    up &= ~down | above | (eq & ~exact)
    del down, eq, above, exact
    c = t
    c += up
    del up
    # repr's layout: x = 0.(the digits of c) 10^point
    p *= c
    digits = (p >= _POW10[18]) - k
    digits += 18
    del p
    point = digits + k
    point -= _Q.take(e)
    del k
    sci = point <= -4  # x < 2^51 is below 10^16, so never large enough for e+
    lead = np.where(sci, 1, point)  # digits before the point
    frac = digits - lead  # digits after it, if positive
    del digits
    shown = np.where(sci, frac, np.maximum(frac, 1))
    # the integer and fraction digits, 4 to a group; the integer part is
    # below 10^16, so its top group is the sign's
    v = np.empty((len(x), 2), np.uint64)
    p = _POW10[np.clip(frac, 0, 19)]
    v[:, 0] = c // p
    v[:, 1] = c - v[:, 0] * p
    v[:, 0] *= _POW10[np.clip(-frac, 0, 19)]
    del c, p, frac
    g = np.empty((len(x), 2, 6), np.uint16)
    q = np.empty_like(v)
    for i in range(4, 0, -1):
        np.floor_divide(v, np.uint64(10000), out=q)
        v -= q * np.uint64(10000)
        g[:, :, i] = v
        v, q = q, v
    g[:, 1, 0] = v[:, 1]
    del v, q
    g[:, 0, 0] = np.where(x < 0, _MINUS, _NUL)
    g[:, 0, 5] = np.where(shown > 0, _DOT, _NUL)
    g[:, 1, 5] = np.where(sci, _EXP + 1 - point, _NUL)
    del point, sci
    np.maximum(lead, 1, out=lead)
    row = (16 - lead) * 21 + 20 - shown  # of _MASK
    del lead, shown
    # _ROWS rows at a time: take casts its indices to 8 bytes each
    text = np.empty((len(x), 12), np.uint32)
    for lo in range(0, len(x), _ROWS):
        block = text[lo:lo + _ROWS]
        _TEXT.take(g[lo:lo + _ROWS], out=block.reshape(-1, 2, 6), mode="clip")
        block &= _MASK.take(row[lo:lo + _ROWS], axis=0)
    return text.view(np.uint8), ~tie


def _repr_floats(x) -> np.ndarray:
    """``repr(float(v))`` of each value of the float64 array ``x``, as one
    NUL-padded row of ``_FIELD`` bytes each."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    e = (x.view(np.uint64) >> np.uint64(52)).astype(np.intp) & 0x7FF
    e -= 1023 + _E2[0]
    fast = (e >= 0) & (e < len(_E2))
    if fast.any():
        # values outside the integer route are stood in by 1.0 and go to repr
        out, ok = _shortest(np.where(fast, x, 1.0), np.where(fast, e, -_E2[0]))
        slow = np.flatnonzero(~(ok & fast))
    else:
        out, slow = np.empty((len(x), _FIELD), np.uint8), np.arange(len(x))
    if len(slow):
        text = np.array([repr(v) for v in x[slow].tolist()], f"S{_FIELD}")
        out[slow] = text.view(np.uint8).reshape(-1, _FIELD)
    return out


_SPEC = re.compile(r"(\{\}|%[^a-z]*[a-z])")


def _write_rows(file, header: str, blocks) -> None:
    """Write ``header``, then one line per entry of each ``(row, columns,
    length)`` block: ``row`` with its ``%`` fields filled, in order, with the
    entry's value in each of the equal-length ``columns``, and its ``{}``
    with the entry's rank as a ``length``-bit key; the rest of ``row`` holds
    no ``%``.  ``file`` is a path (opened with ``newline=""``) or an open
    text file.  A ``%r`` field holds a float64 column and prints ``repr``
    through :func:`_repr_floats`; any other field is ``%``-formatted one
    value at a time.  Each write is about ``_CHUNK`` bytes of lines, laid
    out as NUL-padded uint8 columns side by side, from which one
    ``translate`` drops the padding."""
    if not hasattr(file, "write"):
        with open(file, "w", newline="") as f:
            return _write_rows(f, header, blocks)
    file.write(header)
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
        width = sum(length if c is None else len(c) if isinstance(c, np.ndarray) else _FIELD
                    for c in cells)
        step = max(1, _CHUNK // width)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            text = []
            for c in cells:
                if c is None:
                    text.append(rank_bits(lo, hi, length) + np.uint8(48))
                elif isinstance(c, np.ndarray):
                    text.append(np.broadcast_to(c, (hi - lo, len(c))))
                elif c[0] == "%r":
                    text.append(_repr_floats(c[1][lo:hi]))
                else:
                    cell = np.array([c[0] % v for v in c[1][lo:hi].tolist()], "S")
                    text.append(cell.view(np.uint8).reshape(hi - lo, -1))
            text = np.concatenate(text, axis=1).tobytes().translate(None, b"\0")
            file.write(text.decode("ascii"))


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
    return _header(len(x), fmt) + _payload(x._b, fmt)


def _header(n: int, fmt: str) -> bytes:
    """What a file of n bits starts with: the packed length, or nothing."""
    if fmt not in FORMATS:
        raise ValidationError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return struct.pack("<Q", n) if fmt == "packed" else b""


def _payload(bits: bytes, fmt: str) -> bytes:
    """The 0/1 bytes ``bits`` encoded in a format :func:`_header` accepted.
    A file may be written a piece at a time: every packed piece but the
    last holds a multiple of 8 bits."""
    if fmt == "ascii":
        return bits.translate(_ENCODE)
    return np.packbits(np.frombuffer(bits, np.uint8), bitorder="big").tobytes()
