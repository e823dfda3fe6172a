"""Shortest round-trip decimals of float64 arrays by integer arithmetic.

:func:`_shortest` finds, for each float of an array whose binary exponent
lies in ``_E2``, the shortest decimal that reads back to the same float and
is nearest to it, as ``repr`` prints it (a Ryu-style route: Adams 2018,
PLDI).  :mod:`debias.bits` lays the digits out as text.
"""

from __future__ import annotations

import numpy as np

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


def _shortest(x: np.ndarray, e: np.ndarray):
    """The shortest decimals of the finite floats ``x`` whose exponents
    ``e2`` are ``_E2[e]``, as ``(c, digits, point, certain)``: x = 0.(the
    ``digits`` digits of c) 10^point, and which of them are certain, as an
    exact tie between two shortest decimals is left to ``repr``.  Each
    8-byte temporary is freed, or written over in place, once it is used up."""
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
    # inside is a multiple of 10^k.  So a row that drops no more places at
    # some j drops none at any larger j: after two passes over every row,
    # the search goes on with the rows that dropped every place so far.
    k = np.ones(len(x), np.intp)
    for j in (2, 3):
        more = hi // _POW10[j] != lo // _POW10[j]
        k += more
    at = np.flatnonzero(more)
    h, l = hi[at], lo[at]
    for j in range(4, 19):
        more = h // _POW10[j] != l // _POW10[j]
        at, h, l = at[more], h[more], l[more]
        if not len(at):
            break
        k[at] += 1
    del more, at, h, l
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
    p *= c
    digits = (p >= _POW10[18]) - k
    digits += 18
    del p
    point = digits + k
    point -= _Q.take(e)
    return c, digits, point, ~tie
