"""Un-biasing transformations.

The von Neumann step maps disjoint bit pairs 01 -> 0, 10 -> 1 and discards
equal pairs; a trailing odd bit is ignored.  The iterated variant reuses the
pair-XOR stream and the first bits of the discarded pairs to squeeze out more
output.  The parity method XORs disjoint fixed-size blocks.  All operations
here are pure.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .bits import BitString, QaryString, rank_bits
from .errors import _integer
from .exactdist import _check_enum_guard

_PREIMAGE_ROWS = 1 << 10  # members built per block, which bounds the scratch


def vn_encode(y: BitString) -> BitString:
    """Map each bit b to the unequal pair b, 1-b (the canonical preimage)."""
    arr = y.to_array()
    out = np.empty(2 * len(arr), dtype=np.uint8)
    out[0::2] = arr
    out[1::2] = 1 - arr
    return BitString.from_array(out)


def vn_normalize(x: BitString) -> BitString:
    """Von Neumann output over all disjoint pairs; trailing odd bit ignored."""
    arr = x.to_array()
    k = len(arr) // 2
    a = arr[0 : 2 * k : 2]
    b = arr[1 : 2 * k : 2]
    return BitString.from_array(a[a != b])


def vn_preimage(y: BitString, n: int) -> set[BitString]:
    """All length-n strings whose von Neumann output is exactly ``y``.

    A member puts y's unequal pairs (01 for 0, 10 for 1) in m = |y| of the
    n//2 pair slots, in order, and a discarded pair (00 or 11) in each other
    slot; for odd n either trailing bit follows.  The C(n//2, m) slot choices
    times 2^(n//2 - m) fillings are built as uint8 matrices of about 2^10
    rows (whole slot choices), whose rows slice one ``bytes`` buffer each.
    """
    m = len(y)
    n = _check_enum_guard(n, "n", 2 * m)  # 2m bits hold m unequal pairs
    pairs, gaps = n // 2, n // 2 - m
    slots = np.array(list(combinations(range(pairs), m)), dtype=np.intp)
    unequal = np.zeros((len(slots), pairs), dtype=bool)
    np.put_along_axis(unequal, slots, True, axis=1)
    fill = rank_bits(0, 1 << gaps, gaps).T  # fill[s, j]: bit of gap s in filling j
    out = set()
    step = max(1, _PREIMAGE_ROWS >> gaps)  # slot choices per block
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
        buf = body.tobytes()
        out.update(BitString._of(buf[i * n:(i + 1) * n]) for i in range(len(body)))
    return out


def peres_normalize(x: BitString) -> BitString:
    """Iterated von Neumann extraction: the plain output, then recursion on
    the pair-XOR stream and on the discarded-pair halves.

    The recursion tree is processed one level at a time, with every segment
    of a level in one array; a segment's odd trailing bit is dropped up
    front, as the recursion ignores it.  Each node has a preorder key in
    base 3: one digit per level, 1 for the XOR child and 2 for the
    discarded-halves child, and the node's own output takes digit 0 below
    its path.  Sorting the keys puts the outputs in recursion order, and
    one gather moves the bits there.
    """
    arr = x.to_array()
    data = arr[: len(arr) & ~1]
    lens = np.array([len(data)] if len(data) else [], dtype=np.int64)
    keys = np.zeros(len(lens), dtype=np.int64)
    # weight of this level's digit; a segment at depth d has at most
    # len >> d bits, so every level that still pairs bits has a weight >= 3
    place = 3 ** max(len(arr).bit_length() - 1, 0)
    out, out_keys, out_lens = [], [], []
    while len(lens):
        a, b = data[0::2], data[1::2]
        diff = a != b
        pairs = lens // 2
        kept = np.add.reduceat(diff, np.cumsum(pairs) - pairs, dtype=np.int64)
        out.append(a[diff])
        out_keys.append(keys[kept > 0])
        out_lens.append(kept[kept > 0])
        data = np.concatenate([a ^ b, a[~diff]])
        lens = np.concatenate([pairs, pairs - kept])
        keys = np.concatenate([keys + place, keys + 2 * place])
        place //= 3
        odd = lens % 2 == 1
        if odd.any():
            keep = np.ones(len(data), dtype=bool)
            keep[np.cumsum(lens)[odd] - 1] = False
            data = data[keep]
            lens = lens - odd
        lens, keys = lens[lens > 0], keys[lens > 0]
    if not out:
        return BitString()
    bits, lens = np.concatenate(out), np.concatenate(out_lens)
    order = np.argsort(np.concatenate(out_keys))  # keys are distinct
    src = (np.cumsum(lens) - lens)[order]  # chunk starts in level order
    lens = lens[order]
    # output bit i of a chunk starting at dst is bit i - dst + src of `bits`
    itype = np.int32 if len(bits) < 2**31 else np.int64  # halves the index memory
    idx = np.repeat((src - (np.cumsum(lens) - lens)).astype(itype), lens)
    idx += np.arange(len(bits), dtype=itype)
    return BitString.from_array(bits[idx])


def parity_normalize(x: BitString, block: int) -> BitString:
    """XOR of each disjoint ``block``-bit group; trailing partial block dropped."""
    block = _integer("block length", block, 2)
    arr = x.to_array()
    k = len(arr) // block
    grouped = arr[: k * block].reshape(k, block)
    return BitString.from_array(np.bitwise_xor.reduce(grouped, axis=1))


def delete_symbol(x: QaryString, symbol: int) -> QaryString:
    """Erase every occurrence of one symbol, keeping the rest in order."""
    symbol = _integer("symbol", symbol, 0, x.q - 1)
    return QaryString(x.symbols[x.symbols != symbol], x.q)
