import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from debias import (BitString, QaryString, ValidationError, delete_symbol,
                    parity_normalize, peres_normalize, vn_encode, vn_normalize,
                    vn_preimage)
from debias.normalize import _chunks
from string_oracles import vn_pair


def all_strings(n):
    return (BitString.from_int(v, n) for v in range(1 << n))


def test_vn_pair_table():
    assert vn_pair(0, 1) == 0
    assert vn_pair(1, 0) == 1
    assert vn_pair(1, 1) is None
    assert vn_pair(0, 0) is None
    with pytest.raises(ValidationError):
        vn_pair(2, 0)
    # the production route: vn_normalize slices a[a != b] over the pairs
    for b1 in (0, 1):
        for b2 in (0, 1):
            out = vn_normalize(BitString([b1, b2]))
            assert list(out) == ([] if vn_pair(b1, b2) is None else [vn_pair(b1, b2)])
    rng = np.random.default_rng(6)
    x = BitString.from_array(rng.integers(0, 2, 501, dtype=np.uint8))
    kept = [vn_pair(x[i], x[i + 1]) for i in range(0, 500, 2)]
    assert vn_normalize(x) == BitString([b for b in kept if b is not None])


def test_pair_encode_inverse():
    assert vn_encode(BitString("01")) == BitString("0110")
    for b in (0, 1):
        pair = vn_encode(BitString([b]))
        assert vn_pair(pair[0], pair[1]) == b


def test_vn_normalize_examples():
    assert vn_normalize(BitString("0110")) == BitString("01")
    assert vn_normalize(BitString("0011")) == BitString("")
    assert vn_normalize(BitString("01101")) == BitString("01")  # odd tail dropped


@given(st.lists(st.integers(0, 1), max_size=80).filter(lambda a: len(a) % 2 == 0),
       st.lists(st.integers(0, 1), max_size=80))
def test_vn_concatenation_consistency(a, b):
    x, y = BitString(a), BitString(b)
    assert vn_normalize(x + y) == vn_normalize(x) + vn_normalize(y)


def test_vn_output_length_bound():
    rng = np.random.default_rng(0)
    x = BitString.from_array(rng.integers(0, 2, 1001, dtype=np.uint8))
    assert len(vn_normalize(x)) <= 500


def test_vn_preimage_examples():
    assert vn_preimage(BitString("0"), 2) == {BitString("01")}
    got = vn_preimage(BitString("0"), 4)
    assert got == {BitString(s) for s in ("0001", "1101", "0100", "0111")}
    for z in got:
        assert vn_normalize(z) == BitString("0")
    assert vn_preimage(BitString(""), 2) == {BitString("00"), BitString("11")}


def test_vn_preimage_guards():
    with pytest.raises(ValidationError):
        vn_preimage(BitString("01"), 3)  # n < 2m
    with pytest.raises(ValidationError):
        vn_preimage(BitString("0"), 27)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6, 9, 13, 14])
def test_vn_preimage_matches_brute_force(n):
    by_output = {}
    for z in all_strings(n):
        by_output.setdefault(vn_normalize(z), set()).add(z)
    for m in range(0, n // 2 + 1):  # m = 0 is the empty y
        for yv in range(1 << m):
            y = BitString.from_int(yv, m)
            assert vn_preimage(y, n) == by_output.get(y, set())


def test_vn_preimage_block_seams(monkeypatch):
    # blocks of at most 4 members, or one slot choice, put seams everywhere
    monkeypatch.setattr("debias.normalize._PREIMAGE_ROWS", 4)
    for n in (7, 10):
        by_output = {}
        for z in all_strings(n):
            by_output.setdefault(vn_normalize(z), set()).add(z)
        for y, members in by_output.items():
            assert vn_preimage(y, n) == members


@pytest.mark.parametrize("rows", [1, 7])
def test_vn_preimage_members_are_plain_bitstrings(rows, monkeypatch):
    # each block's members come from one void-dtype view of its rows: every
    # one must be a BitString like any other, whatever the block size
    monkeypatch.setattr("debias.normalize._PREIMAGE_ROWS", rows)
    cases = [(n, BitString.from_int(v, m)) for n in (0, 1, 2, 3)
             for m in range(n // 2 + 1) for v in range(1 << m)]
    for n, y in cases + [(22, BitString("0110")), (23, BitString("0110"))]:
        got = vn_preimage(y, n)
        m = len(y)
        assert len(got) == math.comb(n // 2, m) * 2 ** (n // 2 - m) * (1 + n % 2)
        for s in got:
            assert type(s) is BitString and len(s) == n
            plain = BitString(s.to01())
            assert s == plain and hash(s) == hash(plain)
    assert vn_preimage(BitString(""), 0) == {BitString("")}


@pytest.mark.parametrize("n, y", [(21, "101"), (21, ""), (22, "0110"),
                                  (26, "110010011"), (26, "")])
def test_vn_preimage_size_at_large_n(n, y):
    # C(n//2, m) places for y's unequal pairs, 2 fillings of every other pair
    # slot, and both trailing bits for odd n
    y = BitString(y)
    got = vn_preimage(y, n)
    m = len(y)
    assert len(got) == math.comb(n // 2, m) * 2 ** (n // 2 - m) * (1 + n % 2)
    assert all(len(z) == n and vn_normalize(z) == y for z in got)


def test_peres_examples():
    assert peres_normalize(BitString("0101")) == BitString("00")
    assert peres_normalize(BitString("0011")) == BitString("0")
    assert peres_normalize(BitString("0")) == BitString("")
    assert peres_normalize(BitString("")) == BitString("")


def test_peres_dominates_vn_random():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = BitString.from_array(rng.integers(0, 2, int(rng.integers(0, 200)),
                                              dtype=np.uint8))
        assert len(peres_normalize(x)) >= len(vn_normalize(x))


def test_peres_dominates_vn_exhaustive_small():
    for n in range(0, 11):
        for x in all_strings(n):
            assert len(peres_normalize(x)) >= len(vn_normalize(x))


def test_parity_examples():
    assert parity_normalize(BitString("0111"), 2) == BitString("10")
    assert parity_normalize(BitString("0000"), 2) == BitString("00")
    assert parity_normalize(BitString("01101"), 2) == BitString("11")  # odd tail dropped
    assert parity_normalize(BitString("011010"), 3) == BitString("01")
    with pytest.raises(ValidationError):
        parity_normalize(BitString("01"), 1)


def test_delete_symbol_examples():
    x = QaryString.from_letters("cabcb", "abc")
    assert delete_symbol(x, 2).to_letters("abc") == "abb"
    assert delete_symbol(QaryString.from_letters("ccc", "abc"), 2) == QaryString([], 3)
    assert delete_symbol(QaryString.from_letters("ab", "abc"), 2).to_letters("abc") == "ab"
    y = delete_symbol(x, 2)
    assert delete_symbol(y, 2) == y  # idempotent
    with pytest.raises(ValidationError):
        delete_symbol(x, 3)


def test_stream_chunk_consistency_million():
    rng = np.random.default_rng(77)
    x = BitString.from_array(rng.integers(0, 2, 10**6, dtype=np.uint8))
    # random even-length chunking
    cuts = np.sort(rng.choice(np.arange(2, 10**6, 2), size=50, replace=False))
    pieces = []
    lo = 0
    for hi in list(cuts) + [10**6]:
        pieces.append(x[int(lo):int(hi)])
        lo = hi
    vn_chunked = BitString("")
    for piece in pieces:
        vn_chunked = vn_chunked + vn_normalize(piece)
    assert vn_chunked == vn_normalize(x)
    # parity with block 4: cut points are multiples of 4
    cuts4 = np.sort(rng.choice(np.arange(4, 10**6, 4), size=50, replace=False))
    par_chunked = BitString("")
    lo = 0
    for hi in list(cuts4) + [10**6]:
        par_chunked = par_chunked + parity_normalize(x[int(lo):int(hi)], 4)
        lo = hi
    assert par_chunked == parity_normalize(x, 4)


def test_collapse_padding_is_invisible():
    # inserting discarded pairs between encoded bits never changes the output
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(0, 6))
        y = BitString.from_array(rng.integers(0, 2, m, dtype=np.uint8))
        body = BitString("")
        for bit in y:
            for _ in range(int(rng.integers(0, 3))):
                body = body + (BitString("00") if rng.random() < 0.5 else BitString("11"))
            body = body + vn_encode(BitString([bit]))
        for _ in range(int(rng.integers(0, 3))):
            body = body + (BitString("00") if rng.random() < 0.5 else BitString("11"))
        assert vn_normalize(body) == y


# The recursion that peres_normalize used before its level-by-level route,
# kept verbatim as the oracle: output must match byte for byte.

def _peres_chunks(arr: np.ndarray, sink: list) -> None:
    if arr.size < 2:
        return
    k = arr.size // 2
    a = arr[0 : 2 * k : 2]
    b = arr[1 : 2 * k : 2]
    diff = a != b
    kept = a[diff]
    if kept.size:
        sink.append(kept)
    _peres_chunks(a ^ b, sink)     # pair parities
    _peres_chunks(a[~diff], sink)  # halves of the discarded pairs


def _peres_recursive(x: BitString) -> BitString:
    sink: list = []
    _peres_chunks(x.to_array(), sink)
    if not sink:
        return BitString()
    return BitString.from_array(np.concatenate(sink))


def test_peres_matches_recursion_exhaustive():
    for n in range(0, 13):
        for x in all_strings(n):
            assert peres_normalize(x) == _peres_recursive(x), x


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.95])
def test_peres_matches_recursion_random(p0):
    rng = np.random.default_rng(31)
    for n in (13, 1000, 1023, 1024, 10**5 + 1):
        x = BitString.from_array((rng.random(n) >= p0).astype(np.uint8))
        assert peres_normalize(x) == _peres_recursive(x), n


def _whole_array(arr: np.ndarray, method: str, block: int = 2) -> np.ndarray:
    """vn and parity over the whole input at once, as one slice expression."""
    if method == "vn":
        k = len(arr) // 2
        a, b = arr[0:2 * k:2], arr[1:2 * k:2]
        return a[a != b]
    k = len(arr) // block
    return np.bitwise_xor.reduce(arr[:k * block].reshape(k, block), axis=1)


@pytest.mark.parametrize("size", [1, 7, 8, 1003])
def test_chunk_seams_match_whole_input_oracles(monkeypatch, size):
    # _OUT bounds the input pairs and output bits of a piece, the flags of a
    # Peres cumsum block and the moves of a drop; odd lengths, and parity
    # blocks of 3 and 5, which divide no piece of 8 or 1003
    monkeypatch.setattr("debias.normalize._OUT", size)
    rng = np.random.default_rng(size)
    for n in sorted({0, 1, 2, 3, 2 * size - 1, 2 * size, 2 * size + 1, 6 * size + 5, 3001}):
        for p0 in (0.5, 0.8):
            arr = (rng.random(n) >= p0).astype(np.uint8)
            x = BitString.from_array(arr)
            for method, block, want in (
                    ("peres", 2, _peres_recursive(x).to_array()),
                    ("vn", 2, _whole_array(arr, "vn")),
                    ("parity", 3, _whole_array(arr, "parity", 3)),
                    ("parity", 5, _whole_array(arr, "parity", 5))):
                n_out, chunks = _chunks(x, method, block)
                chunks = list(chunks)
                assert n_out == len(want), (n, method)
                got = np.concatenate(chunks) if chunks else np.zeros(0, np.uint8)
                assert np.array_equal(got, want), (n, method, block)
            assert peres_normalize(x) == _peres_recursive(x)
            assert vn_normalize(x).to_array().tolist() == _whole_array(arr, "vn").tolist()


def test_unknown_method_is_refused():
    with pytest.raises(ValidationError, match="unknown method 'xor'"):
        _chunks(BitString("0110"), "xor")
    with pytest.raises(ValidationError, match="block length"):
        _chunks(BitString("0110"), "parity", 1)
