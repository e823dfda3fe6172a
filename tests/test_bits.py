import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias import (BitFormatError, BitString, QaryString, ValidationError,
                    parse_bits, serialize_bits)
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
    for bad in (2, -1):
        with pytest.raises(ValidationError):
            BitString("01").count(bad)


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
    for data, offset in ((b"01x0", 2), (b"01 \t\xff1", 4)):
        with pytest.raises(BitFormatError) as err:
            parse_bits(data, "ascii")
        assert err.value.offset == offset


def test_parse_packed():
    assert parse_bits(b"\x04\x00\x00\x00\x00\x00\x00\x00\x60", "packed") == BitString("0110")
    assert parse_bits(b"\x00" * 8, "packed") == BitString("")
    with pytest.raises(BitFormatError):
        parse_bits(b"\x01\x02", "packed")  # truncated header
    with pytest.raises(BitFormatError):
        parse_bits(b"\x09\x00\x00\x00\x00\x00\x00\x00\xff", "packed")  # count > capacity


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
