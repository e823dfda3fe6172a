"""Un-biasing transformations.

The von Neumann step maps disjoint bit pairs 01 -> 0, 10 -> 1 and discards
equal pairs; a trailing odd bit is ignored.  The iterated variant reuses the
pair-XOR stream and the first bits of the discarded pairs to squeeze out more
output.  The parity method XORs disjoint fixed-size blocks.  All operations
here are pure.

Each of the three methods has one route, :func:`_chunks`, which yields its
output in pieces of at most ``_OUT`` bits; ``normalize`` hands them to
``bits._write_bits`` as they come, and ``vn_normalize``, ``peres_normalize``
and ``parity_normalize`` return their concatenation.  The input is held
whole.
"""

from __future__ import annotations

import gc
from itertools import combinations

import numpy as np

from .bits import BitString, QaryString, rank_bits
from .errors import ValidationError, _integer
from .params import METHODS, _check_enum_guard

_PREIMAGE_ROWS = 1 << 10  # members built per block, which bounds the scratch

# bits per block of a normalization: the input pairs or output bits of a
# piece, the pairs per step of a Peres level, the bits per move of a drop
# and the output bits per int32 gather index block (256 KiB)
_OUT = 1 << 16


def vn_encode(y: BitString) -> BitString:
    """Map each bit b to the unequal pair b, 1-b (the canonical preimage)."""
    arr = y.to_array()
    out = np.empty(2 * len(arr), dtype=np.uint8)
    out[0::2] = arr
    out[1::2] = 1 - arr
    return BitString.from_array(out)


def vn_normalize(x: BitString) -> BitString:
    """Von Neumann output over all disjoint pairs; trailing odd bit ignored."""
    return _joined(x, "vn")


def vn_preimage(y: BitString, n: int) -> set[BitString]:
    """All length-n strings whose von Neumann output is exactly ``y``.

    A member puts y's unequal pairs (01 for 0, 10 for 1) in m = |y| of the
    n//2 pair slots, in order, and a discarded pair (00 or 11) in each other
    slot; for odd n either trailing bit follows.  The C(n//2, m) slot choices
    times 2^(n//2 - m) fillings are built as uint8 matrices of about 2^10
    rows (whole slot choices); one void-dtype view of each matrix gives its
    rows as ``bytes`` in a single ``tolist`` call, and ``BitString._many``
    makes their members at C level.  The cyclic collector is paused for the
    build, so what remains per member is one Python ``__hash__`` call.
    """
    m = len(y)
    n = _check_enum_guard(n, "n", 2 * m)  # 2m bits hold m unequal pairs
    if not n:  # a "V0" view has no rows to list
        return {BitString._of(b"")}
    pairs, gaps = n // 2, n // 2 - m
    slots = np.array(list(combinations(range(pairs), m)), dtype=np.intp)
    unequal = np.zeros((len(slots), pairs), dtype=bool)
    np.put_along_axis(unequal, slots, True, axis=1)
    fill = rank_bits(0, 1 << gaps, gaps).T  # fill[s, j]: bit of gap s in filling j
    out = set()
    step = max(1, _PREIMAGE_ROWS >> gaps)  # slot choices per block
    # every member lives until the set is returned and none is in a cycle,
    # so a cyclic collection during the build could free nothing
    enabled = gc.isenabled()
    gc.disable()
    try:
        for lo in range(0, len(unequal), step):
            u = unequal[lo:lo + step]
            # first[c, s, j]: first bit of slot s under slot choice c and filling j
            first = np.empty((len(u), pairs, 1 << gaps), dtype=np.uint8)
            first[u] = np.tile(y.to_array(), len(u))[:, None]
            first[~u] = np.tile(fill, (len(u), 1))
            body = np.empty((len(u), 1 << gaps, pairs, 2), dtype=np.uint8)
            body[..., 0] = first.transpose(0, 2, 1)
            body[..., 1] = body[..., 0] ^ u[:, None, :]
            body = body.reshape(len(u) << gaps, 2 * pairs)
            if n % 2:
                rows = np.empty((len(body), 2, n), dtype=np.uint8)
                rows[..., :-1] = body[:, None, :]
                rows[..., -1] = (0, 1)
                body = rows.reshape(2 * len(body), n)
            out.update(BitString._many(body.view(f"V{n}").ravel().tolist()))
    finally:
        if enabled:
            gc.enable()
    return out


def peres_normalize(x: BitString) -> BitString:
    """Iterated von Neumann extraction: the plain output, then recursion on
    the pair-XOR stream and on the discarded-pair halves (see
    :func:`_peres`)."""
    return _joined(x, "peres")


def parity_normalize(x: BitString, block: int) -> BitString:
    """XOR of each disjoint ``block``-bit group; trailing partial block dropped."""
    return _joined(x, "parity", block)


def _joined(x: BitString, method: str, block: int = 2) -> BitString:
    return BitString._of(b"".join(_chunks(x, method, block)[1]))


def _chunks(x: BitString, method: str, block: int = 2):
    """``(n_out, chunks)``: the output length of ``x`` normalized by
    ``method`` ("vn", "peres", or "parity" over ``block``-bit groups), and
    an iterator over that output as 0/1 ``uint8`` arrays of at most
    ``_OUT`` bits, any of them possibly empty.  The arguments are checked,
    and the Peres levels run, before this returns."""
    arr = x.to_array()
    if method == "vn":
        pairs = len(arr) // 2
        spans = [(2 * lo, 2 * min(lo + _OUT, pairs)) for lo in range(0, pairs, _OUT)]
        n_out = sum(np.count_nonzero(arr[lo:hi:2] != arr[lo + 1:hi:2]) for lo, hi in spans)
        pieces = (np.compress(arr[lo:hi:2] != arr[lo + 1:hi:2], arr[lo:hi:2]) for lo, hi in spans)
    elif method == "peres":
        n_out, pieces = _peres(arr)
    elif method == "parity":
        block = _integer("block length", block, 2)
        n_out = len(arr) // block
        pieces = (np.bitwise_xor.reduce(
            arr[lo * block:min(lo + _OUT, n_out) * block].reshape(-1, block), axis=1)
            for lo in range(0, n_out, _OUT))
    else:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    return int(n_out), pieces


def _pair_pass(data: np.ndarray, starts: np.ndarray, bits: np.ndarray, n_out: int):
    """One level of :func:`_peres`, ``_OUT`` pairs at a time.  ``data``
    holds even-length segments whose first pairs are ``starts``.  The first
    bit of each unequal pair goes to ``bits`` from ``n_out`` on.  Returns
    the next level's data (the XOR of every pair, then the first bit of
    every equal pair), the number of unequal pairs in each segment, and
    the new ``n_out``.  The counts are reduced per block in ``int32`` and
    ``compress`` indexes a block at a time, so no per-pair array wider than
    a byte is made."""
    h = len(data) // 2
    kept = np.zeros(len(starts), np.int64)
    nxt = np.empty(2 * h, np.uint8)  # room for every pair to be equal
    w = h
    for lo in range(0, h, _OUT):
        hi = min(lo + _OUT, h)
        a, b = data[2 * lo:2 * hi:2], data[2 * lo + 1:2 * hi:2]
        diff = a != b
        # the segment that holds pair lo, then those that start in the block
        i, j = np.searchsorted(starts, lo, side="right"), np.searchsorted(starts, hi)
        sums = np.add.reduceat(diff, np.concatenate([[lo], starts[i:j]]) - lo, dtype=np.int32)
        kept[i - 1:j] += sums
        k = int(sums.sum())
        np.compress(diff, a, out=bits[n_out:n_out + k])
        n_out += k
        np.bitwise_xor(a, b, out=nxt[lo:hi])
        np.compress(np.logical_not(diff, out=diff), a, out=nxt[w:w + hi - lo - k])
        w += hi - lo - k
    return nxt[:w], kept, n_out


def _drop(data: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``data`` without its elements at the increasing positions ``at``,
    moved up in place a block of ``_OUT`` at a time."""
    w = j = 0
    for lo in range(0, len(data), _OUT):
        hi = min(lo + _OUT, len(data))
        i, j = j, int(np.searchsorted(at, hi))
        if i == j and w == lo:
            w = hi  # nothing dropped so far: the block stays where it is
            continue
        block = data[lo:hi]
        if i < j:
            keep = np.ones(hi - lo, bool)
            keep[at[i:j] - lo] = False
            block = block[keep]
        data[w:w + len(block)] = block
        w += len(block)
    return data[:w]


def _peres(arr: np.ndarray):
    """``(n_out, pieces)`` of Peres's iterated von Neumann extraction.

    The recursion tree is processed one level at a time, with every segment
    of a level in one array; a segment's odd trailing bit is dropped up
    front, as the recursion ignores it.  Each node has a preorder key in
    base 3: one digit per level, 1 for the XOR child and 2 for the
    discarded-halves child, and the node's own output takes digit 0 below
    its path.  Every level's output goes to one buffer, in level order;
    sorting the keys puts the output pieces in recursion order, and the
    pieces are then gathered ``_OUT`` output bits at a time, through
    ``int32`` index blocks.  Apart from that buffer and the next level's
    data, a level's scratch is a few integers per segment.
    """
    data = arr[: len(arr) & ~1]
    if not len(data):
        return 0, iter(())
    bits = np.empty(len(data), np.uint8)  # the outputs: at most one per input bit
    n_out = 0
    pairs = np.array([len(data) // 2])
    keys = np.zeros(1, dtype=np.int64)
    # weight of this level's digit; a segment at depth d has at most
    # len >> d bits, so every level that still pairs bits has a weight >= 3
    place = 3 ** max(len(arr).bit_length() - 1, 0)
    out_keys, out_lens = [], []
    while len(pairs):
        nxt, kept, n_out = _pair_pass(data, np.cumsum(pairs) - pairs, bits, n_out)
        out_keys.append(keys[kept > 0])
        out_lens.append(kept[kept > 0])
        lens = np.concatenate([pairs, pairs - kept])
        keys = np.concatenate([keys + place, keys + 2 * place])
        place //= 3
        odd = lens % 2 == 1
        data = _drop(nxt, np.cumsum(lens)[odd] - 1) if odd.any() else nxt
        lens -= odd
        pairs, keys = lens[lens > 0] // 2, keys[lens > 0]
    lens = np.concatenate(out_lens)
    order = np.argsort(np.concatenate(out_keys))  # keys are distinct
    src = (np.cumsum(lens) - lens)[order]  # piece starts in level order
    lens = lens[order]
    ends = np.cumsum(lens)  # piece ends in recursion order
    # output bit i of a piece ending at e is bit i - (e - len) + src of `bits`
    shift = src - (ends - lens)
    return n_out, _gather(bits[:n_out], ends, shift)


def _gather(bits: np.ndarray, ends: np.ndarray, shift: np.ndarray):
    """``bits[i + shift[p]]`` for each output bit i, piece p being the one
    with ``ends[p - 1] <= i < ends[p]``, ``_OUT`` bits at a time."""
    itype = np.int32 if len(bits) < 2**31 else np.int64
    for lo in range(0, len(bits), _OUT):
        hi = min(lo + _OUT, len(bits))
        i = np.searchsorted(ends, lo, side="right")  # the piece that holds bit lo
        j = np.searchsorted(ends, hi, side="left") + 1  # one past the one that holds hi - 1
        n = ends[i:j].copy()
        n[-1] = hi
        n[1:] -= ends[i:j - 1]
        n[0] -= lo
        idx = np.repeat(shift[i:j].astype(itype), n)
        idx += np.arange(lo, hi, dtype=itype)
        yield bits[idx]


def delete_symbol(x: QaryString, symbol: int) -> QaryString:
    """Erase every occurrence of one symbol, keeping the rest in order."""
    symbol = _integer("symbol", symbol, 0, x.q - 1)
    return QaryString(x.symbols[x.symbols != symbol], x.q)
