import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias import (BitFormatError, BitString, ConstantSource, DriftingSource, DriftParams,
                    QaryString, ValidationError, parse_bits, sample, serialize_bits)
from debias.bits import _E2, _FIELD, _lay, _write_bits, _write_rows
from debias.sources import _chunks
from string_oracles import count_bits


def test_count_examples():
    assert count_bits(BitString("0110"), 1) == 2
    assert count_bits(BitString(""), 0) == 0
    assert count_bits(BitString("0001"), 0) == 3
    rng = np.random.default_rng(2)
    for n in (0, 1, 7, 64, 1001):
        x = BitString.from_array(rng.integers(0, 2, n, dtype=np.uint8))
        for bit in (0, 1):
            assert x.count(bit) == count_bits(x, bit)
    for bad in (2, -1, 1.0, 0.0, "1", None):
        with pytest.raises(ValidationError, match=r"bit must be an integer in \[0, 1\]"):
            BitString("01").count(bad)
    assert BitString("011").count(np.uint8(1)) == 2


def test_count_partition():
    x = BitString("0010111010")
    assert x.count(0) + x.count(1) == len(x)


def test_construction_forms():
    assert BitString([0, 1, 1, 0]) == BitString("0110")
    assert BitString(BitString("01")) == BitString("01")
    assert BitString.from_array(np.array([1, 0, 1], dtype=np.uint8)).to01() == "101"
    for text, pos in (("01x0", 2), ("01\u00e9", 2), ("0 1", 1)):
        with pytest.raises(ValidationError, match=f"position {pos}"):
            BitString(text)
    for values in ([0, 2], [0, 256], [0, -1]):
        with pytest.raises(ValidationError):
            BitString(values)


def test_construction_from_arrays_and_bytes():
    # ndarray and bytes-like input take from_array's route, with the same
    # error text and position as the list of the same values
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 1001)
    want = BitString.from_array(bits)
    for form in (bits, bits.astype(np.uint8), bits.astype(bool), bits.astype(np.float64),
                 bits.reshape(7, 143), bytes(bits.astype(np.uint8)),
                 bytearray(bits.astype(np.uint8)), memoryview(bits.astype(np.uint8))):
        assert BitString(form) == want
    assert BitString(b"") == BitString(np.array([], np.int64)) == BitString("")

    class Unlisted(np.ndarray):  # an array is read whole, never element by element
        def __iter__(self):
            raise AssertionError("iterated")

    assert BitString(bits.view(Unlisted)) == want
    for values in ([0, 2], [0, 256], [0, -1], [0, 1, 0.5], [1, np.nan]):
        with pytest.raises(ValidationError) as from_list:
            BitString(values)
        with pytest.raises(ValidationError) as from_array:
            BitString(np.array(values))
        assert str(from_array.value) == str(from_list.value)
        assert f"position {len(values) - 1}" in str(from_list.value)
    for raw in (b"\x00\x02", bytearray(b"\x01\xff")):
        with pytest.raises(ValidationError, match=f"illegal bit value {raw[1]} at position 1"):
            BitString(raw)
    with pytest.raises(ValidationError, match="illegal bit value 2 at position 2"):
        BitString(np.array([0, 1, 2], dtype=object))
    for scalar in (np.array(1), np.array(0.0)):
        with pytest.raises(TypeError):
            BitString(scalar)


def test_int_round_trip():
    x = BitString("01101")
    assert x.to_int() == 0b01101
    assert BitString.from_int(13, 5) == x
    assert BitString.from_int(0, 0) == BitString("")
    for value, length in ((4, 2), (-1, 3), (0, -1)):
        with pytest.raises(ValidationError):
            BitString.from_int(value, length)


def test_sequence_protocol():
    x = BitString("0110")
    assert x[0] == 0 and x[1] == 1
    assert x[1:3] == BitString("11")
    assert list(x) == [0, 1, 1, 0]
    x = x + BitString([1])
    assert str(x) == "01101"
    x = x + BitString([0, 0])
    assert str(x) == "0110100"
    assert (BitString("01") + BitString("10")).to01() == "0110"


def test_to_array_is_a_read_only_shared_view():
    x = BitString("0110")
    arr = x.to_array()
    assert arr.dtype == np.uint8 and arr.tolist() == [0, 1, 1, 0]
    assert not arr.flags.writeable
    assert np.shares_memory(arr, x.to_array())
    with pytest.raises(ValueError):
        arr[0] = 1


def test_parse_ascii():
    assert parse_bits(b"0110", "ascii") == BitString("0110")
    assert parse_bits(b" 01\n10 \t1", "ascii") == BitString("01101")
    # a bad byte at the start, in the middle, at the end, after whitespace,
    # non-ASCII, and repeated: the offset is its first one
    for data, offset in ((b"x01", 0), (b"01x0", 2), (b"0110\n2", 5), (b"01 \t\xff1", 4),
                         (b"0 1\n\xe9\xe9", 4), (b"01z1z", 2)):
        with pytest.raises(BitFormatError) as err:
            parse_bits(data, "ascii")
        assert err.value.offset == offset
        assert str(err.value).startswith(f"illegal character {chr(data[offset])!r}")
    big = b"01" * 500_000 + b"\n"
    for at in (0, len(big) // 2, len(big) - 1):
        with pytest.raises(BitFormatError) as err:
            parse_bits(big[:at] + b"x" + big[at + 1:], "ascii")
        assert err.value.offset == at
    with pytest.raises(ValidationError, match="illegal bit character 'x' at position 2"):
        BitString("01x")
    with pytest.raises(ValidationError, match="illegal bit character 'é' at position 1"):
        BitString("0é")


def test_parse_packed():
    assert parse_bits(b"\x04\x00\x00\x00\x00\x00\x00\x00\x60", "packed") == BitString("0110")
    assert parse_bits(b"\x00" * 8, "packed") == BitString("")
    with pytest.raises(BitFormatError):
        parse_bits(b"\x01\x02", "packed")  # truncated header
    with pytest.raises(BitFormatError):
        parse_bits(b"\x09\x00\x00\x00\x00\x00\x00\x00\xff", "packed")  # count > capacity


def test_parse_packed_refuses_data_past_the_payload():
    four = b"\x04\x00\x00\x00\x00\x00\x00\x00"
    for extra in (b"\xff\xff", b"\x00"):
        with pytest.raises(BitFormatError, match="past the 4-bit payload") as err:
            parse_bits(four + b"\x60" + extra, "packed")
        assert err.value.offset == 9
    with pytest.raises(BitFormatError) as err:
        parse_bits(b"\x00" * 8 + b"\x00", "packed")
    assert err.value.offset == 8


def test_parse_packed_refuses_nonzero_pad_bits():
    for last in (b"\x6f", b"\x61", b"\x68"):
        with pytest.raises(BitFormatError, match="nonzero pad bits") as err:
            parse_bits(b"\x04\x00\x00\x00\x00\x00\x00\x00" + last, "packed")
        assert err.value.offset == 8
    # no pad bits when n is a multiple of 8
    assert parse_bits(b"\x08" + b"\x00" * 7 + b"\xff", "packed") == BitString("11111111")
    nine = b"\x09" + b"\x00" * 7 + b"\xff"
    assert parse_bits(nine + b"\x80", "packed") == BitString("111111111")
    with pytest.raises(BitFormatError) as err:
        parse_bits(nine + b"\x81", "packed")
    assert err.value.offset == 9


def test_serialize_examples():
    assert serialize_bits(BitString("0110"), "ascii") == b"0110"
    assert serialize_bits(BitString(""), "packed") == b"\x00" * 8
    assert serialize_bits(BitString("0110"), "packed") == \
        b"\x04\x00\x00\x00\x00\x00\x00\x00\x60"


def test_packed_pad_bits_are_zero():
    data = serialize_bits(BitString("111"), "packed")
    assert data[8] == 0b11100000


def test_unknown_format():
    with pytest.raises(ValidationError):
        serialize_bits(BitString("1"), "hex")
    with pytest.raises(ValidationError):
        parse_bits(b"1", "hex")


@given(st.lists(st.integers(0, 1), max_size=300), st.sampled_from(["ascii", "packed"]))
def test_round_trip_property(bits, fmt):
    x = BitString(bits)
    assert parse_bits(serialize_bits(x, fmt), fmt) == x


@given(st.lists(st.integers(0, 1), max_size=120), st.lists(st.integers(0, 1), max_size=120))
def test_count_additivity(a, b):
    x, y = BitString(a), BitString(b)
    for bit in (0, 1):
        assert (x + y).count(bit) == x.count(bit) + y.count(bit)


@settings(deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_round_trip_large_seeded(seed):
    rng = np.random.default_rng(seed)
    x = BitString.from_array(rng.integers(0, 2, size=4096, dtype=np.uint8))
    for fmt in ("ascii", "packed"):
        assert parse_bits(serialize_bits(x, fmt), fmt) == x


def test_round_trip_million_bits():
    rng = np.random.default_rng(7)
    x = BitString.from_array(rng.integers(0, 2, size=10**6, dtype=np.uint8))
    for fmt in ("ascii", "packed"):
        assert parse_bits(serialize_bits(x, fmt), fmt) == x


def _written(n, pieces, fmt) -> bytes:
    out = io.BytesIO()
    _write_bits(out, n, pieces, fmt)
    return out.getvalue()


def test_write_bits_seams_match_the_joined_bits(monkeypatch):
    # pieces of 0, 1, 7, 8 and 9 bits leave every carry of 0..7 bits at some
    # seam; the second producer hands out one buffer and inverts it before
    # it fills the next piece, so a carry that is no copy comes out wrong
    rng = np.random.default_rng(21)
    sizes = [0, 1, 7, 8, 9]
    for order in (sizes, sizes[::-1], [9, 9, 9, 7, 0, 1, 1, 8, 0], [7] * 8):
        pieces = [rng.integers(0, 2, k, dtype=np.uint8) for k in order]
        whole = BitString.from_array(np.concatenate(pieces))

        def reused():
            buf = np.empty(max(order), np.uint8)
            for p in pieces:
                buf[:len(p)] = p
                yield buf[:len(p)]
                np.bitwise_xor(buf, 1, out=buf)

        for fmt in ("ascii", "packed"):
            want = serialize_bits(whole, fmt)
            for producer in (iter(pieces), reused()):
                got = _written(len(whole), producer, fmt)
                assert got == want, (order, fmt)
                assert parse_bits(got, fmt) == whole
    # the sources' chunks, 10 bits each, in one reused buffer
    monkeypatch.setattr("debias.sources._STREAM", 10)
    for n in (0, 9, 10, 33):
        bits = sample(ConstantSource(0.5), n, seed=n)[0]
        for fmt in ("ascii", "packed"):
            got = _written(n, (b for b, _ in _chunks(ConstantSource(0.5), n, n)), fmt)
            assert got == serialize_bits(bits, fmt), (n, fmt)


def test_qary_string():
    x = QaryString.from_letters("cabcb", "abc")
    assert x.to_letters("abc") == "cabcb"
    assert len(x) == 5 and x[0] == 2
    assert x[1:3] == QaryString([0, 1], 3)
    with pytest.raises(ValidationError):
        QaryString([0, 3], q=3)
    with pytest.raises(ValidationError):
        QaryString([0], q=1)
    with pytest.raises(ValidationError):
        QaryString.from_letters("abd", "abc")


def test_qary_string_copies_its_input():
    codes = np.array([0, 1, 2], dtype=np.int64)
    view = codes[:]
    x = QaryString(codes, 3)
    codes[0] = 2  # the caller's array stays writable
    view[1] = 0
    assert x == QaryString([0, 1, 2], 3) and not x.symbols.flags.writeable


def _repr_floats(x) -> np.ndarray:
    """``repr(float(v))`` of each value of the float64 array ``x``, as the
    package's writer lays it out (:func:`_lay`), in one NUL-padded row of
    ``_FIELD`` bytes each."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    text = _lay([x], len(x))
    width = len(text) // max(len(x), 1)
    out = np.zeros((len(x), _FIELD), np.uint8)
    out[:, :width] = np.frombuffer(text, np.uint8).reshape(len(x), width)
    return out


def _repr_lines(x) -> list:
    """The package's repr of each float of ``x``: its padded fields, one per
    line, with the padding dropped."""
    text = np.concatenate([_repr_floats(x), np.full((len(x), 1), ord("\n"), np.uint8)], 1)
    return text.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _assert_repr(values) -> None:
    x = np.asarray(values, dtype=np.float64)
    want = [repr(v) for v in x.tolist()]
    got = _repr_lines(x)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def test_repr_floats_random_bit_patterns():
    rng = np.random.default_rng(12)
    _assert_repr(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))
    # random patterns with the exponent in and just around the fast range,
    # so that nearly every value takes the integer route rather than repr
    n = 300_000
    exps = rng.integers(1023 + _E2[0] - 2, 1023 + _E2[-1] + 3, n).astype(np.uint64)
    mant = rng.integers(0, 2**53, n, dtype=np.uint64)  # the top bit is the sign
    _assert_repr((exps << np.uint64(52) | mant & np.uint64(2**52 - 1)
                  | (mant >> np.uint64(52)) << np.uint64(63)).view(np.float64))


@pytest.mark.parametrize("rows", [1, 7])
def test_repr_floats_row_block_seams(monkeypatch, rows):
    # the digit text is looked up _ROWS fields at a time
    monkeypatch.setattr("debias.bits._ROWS", rows)
    rng = np.random.default_rng(15)
    _assert_repr(np.concatenate([
        rng.integers(0, 2**64, 1001, dtype=np.uint64).view(np.float64),
        rng.uniform(-1, 1, 1001) * 10.0 ** rng.integers(-15, 17, 1001)]))


@pytest.mark.parametrize("rows", [1, 7])
def test_repr_floats_all_outside_fast_range(monkeypatch, rows):
    # a chunk with no value in the integer route's range goes to repr whole,
    # without running the integer route on stand-ins
    monkeypatch.setattr("debias.bits._ROWS", rows)

    def unused(*args):
        raise AssertionError("_shortest ran on a chunk with no value in range")

    monkeypatch.setattr("debias.bits._shortest", unused)
    x = np.concatenate([10.0 ** np.linspace(-25, -15, 999), 10.0 ** np.linspace(16, 300, 99),
                        [0.0, 5e-324, 2.0 ** (_E2[0] - 1), 2.0 ** (_E2[-1] + 1), np.inf, np.nan]])
    _assert_repr(np.concatenate([x, -x]))
    assert _repr_floats(np.empty(0)).shape == (0, 48)


def test_repr_floats_powers_of_two_and_ten():
    # a power of two has a lower gap half the upper one; 10^k is the shortest
    # decimal for itself and sometimes for a neighbour
    for base in (np.ldexp(1.0, np.arange(-60, 61)), 10.0 ** np.arange(-20, 21)):
        for x in (base, -base):
            _assert_repr(np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, 2 * x)]))


def test_repr_floats_short_decimals():
    # decimals of 1..17 digits, whose shortest form drops trailing zeros
    rng = np.random.default_rng(13)
    v = rng.uniform(-1, 1, 6000) * 10.0 ** rng.integers(-15, 17, 6000)
    _assert_repr([float(f"{a:.{d}g}") for a in v.tolist() for d in range(1, 18)])


def test_repr_floats_special_values_and_fast_range_edges():
    edges = [2.0 ** _E2[0], 2.0 ** (_E2[-1] + 1), 1e-14, 1e15, 1e-4, 1e16]
    near = [np.nextafter(e, t) for e in edges for t in (0, np.inf)]
    x = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
         1.7976931348623157e308, 0.1, 0.5, 1.0, 123.0, 1e-05, 9.5, 0.3] + edges + near
    _assert_repr(x + [-v for v in x])
    assert _repr_lines(np.array([0.0, -0.0, np.nan, -np.inf, 2.0 ** -41])) == \
        ["0.0", "-0.0", "nan", "-inf", "4.547473508864641e-13"]
    assert _repr_lines(np.array([])) == []


def test_repr_floats_walk_trace():
    spec = DriftingSource(DriftParams(0.55, 0.05, 1e-4), trajectory="walk")
    _, trace = sample(spec, 10**6, seed=14)
    _assert_repr(trace.epsilons)


@settings(max_examples=300)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_repr_floats_property(values):
    _assert_repr(values)


def test_write_rows_prints_repr_at_every_block_size():
    # blocks of a few rows and of about 256 take the same %r route; each
    # value, among them an exact tie (2^50 + 0.25), heads some block of
    # every size
    values = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300, 2.0 ** 51,
                       2.0 ** -41, 2.0 ** 50 + 0.25, 0.1, -1 / 3])
    for n in (1, 2, 255, 256, 257):
        blocks = [np.resize(np.roll(values, -i), n) for i in range(len(values))]
        buf = io.StringIO()
        _write_rows(buf, "h\n", [("x%r,%r\r\n", [b, b[::-1]], 0) for b in blocks])
        want = "h\n" + "".join(f"x{a!r},{b!r}\r\n" for b in blocks
                               for a, b in zip(b.tolist(), b[::-1].tolist()))
        assert buf.getvalue() == want, n


def test_write_rows_crops_each_block_to_its_own_groups(monkeypatch, tmp_path):
    # 8 rows a block (49 padded bytes a row), each block cropped to its own
    # groups: all |x| < 1; integer parts of up to 16 digits (4 groups); e
    # forms; e forms of one digit (no fraction group); none in the integer
    # route's range; the tie 2^50 + 0.25 among small values; and a repr
    # wider than its block's crop, which widens it
    monkeypatch.setattr("debias.bits._CHUNK", 8 * 49)
    rng = np.random.default_rng(16)
    x = np.concatenate([
        rng.uniform(-1, 1, 8),
        [1.5e15, -123456789012.25, 2.0 ** 50, 9999.5, 10.0, -1e12, 0.5, 7e14],
        rng.uniform(-1, 1, 8) * 10.0 ** rng.integers(-12, -5, 8),
        [1e-05, -2e-07, 3e-10, -4e-12, 5e-06, 6e-08, -7e-11, 9e-05],
        [0.0, -0.0, 5e-324, 1e-300, 2.0 ** 51, -1e300, np.inf, np.nan],
        [2.0 ** 50 + 0.25, 0.5, -0.25, 1.0, 2.0, -3.0, 0.125, 4.0],
        [0.5, -2.2250738585072014e-308, 0.25, 1.0, -2.0, 0.75, 1e-300, 8.0],
        rng.uniform(-0.05, 0.05, 8)])
    want = "".join(f"{v!r}\n" for v in x.tolist())
    blocks = [("%r\n", [x], 0)]
    _write_rows(tmp_path / "path.txt", "", blocks)
    with open(tmp_path / "open.txt", "wb") as f:
        _write_rows(f, "", blocks)
    buf = io.StringIO()
    _write_rows(buf, "", blocks)
    assert (tmp_path / "path.txt").read_bytes() == want.encode()
    assert (tmp_path / "open.txt").read_bytes() == want.encode()
    assert buf.getvalue() == want
