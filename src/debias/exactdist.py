"""Exact finite distributions over fixed-length bit strings.

A table over length-m strings is stored as a dense float vector indexed by
the string's MSB-first integer value, which is also its lexicographic rank
(``bits._key_rank``).  ``to_csv`` writes a table; the package reads none back.
Each source's law is stated once, as pair masses streamed in order (see
``_pair_masses``); the raw table and the von Neumann output table are two
folds over them.  The raw table is guarded at n <= 26.  The output table's
forward pass is rescaled after every pair, so it stays exact (double
precision) at any n, and one predicate, ``_exact_excess``, bounds its state
and its work so that it finishes in seconds.  The functions that read a
source spec import ``sources`` when called, so ``analyze``, which uses only
tables and their distance, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .bits import BitString, _key_rank, _write_rows, format_bits
from .errors import DegenerateSourceError, ValidationError, _integer, _interval
from .params import _check_enum_guard

if TYPE_CHECKING:
    from .sources import SourceSpec

_INDEPENDENCE_TOL = 1e-12  # absolute slack of check_independence

# floats in normalized_dist's state, 2^(max(k, 2) + m + 1), at most (8 MiB
# an array), and input pairs times those floats, at most.  A pair counts as
# 2^11 floats or more: its Python-level steps take as long as that state
MAX_EXACT_STATE = 1 << 20
MAX_EXACT_WORK = 1 << 28
_PAIRS = 1 << 10  # a drifting source's pair masses built at a time


class DistributionTable:
    """Probabilities for every string of one fixed length, summing to 1."""

    __slots__ = ("length", "probs")

    def __init__(self, length: int, probs):
        self._adopt(length, np.array(probs, dtype=np.float64).reshape(-1))

    @classmethod
    def _owning(cls, length: int, arr: np.ndarray) -> "DistributionTable":
        """A validated table over ``arr`` itself, without the copy: for a
        freshly built float64 vector that no caller keeps."""
        table = cls.__new__(cls)
        table._adopt(length, arr.reshape(-1))
        return table

    def _adopt(self, length: int, arr: np.ndarray) -> None:
        length = _check_enum_guard(length, "table length")
        if len(arr) != 1 << length:
            raise ValidationError(
                f"need {1 << length} probabilities for length {length}, got {len(arr)}")
        if (arr < 0.0).any():
            bad = int(np.argmax(arr < 0.0))
            raise ValidationError(
                f"negative probability {arr[bad]!r} for {format_bits(bad, length)!r}")
        total = float(arr.sum())
        if not abs(total - 1.0) <= 1e-12:  # NaN fails too
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        arr.flags.writeable = False
        self.length = length
        self.probs = arr

    def prob(self, key) -> float:
        """Probability of one string (str, BitString, or integer rank)."""
        if isinstance(key, (str, BitString)):
            idx = _key_rank(str(key), self.length)
            if idx < 0:
                raise ValidationError(f"bad key {key!r} for table length {self.length}")
        else:
            idx = _integer("rank", key, 0, len(self.probs) - 1)
        return float(self.probs[idx])

    def items(self):
        """(string, probability) pairs in lexicographic order."""
        for i, p in enumerate(self.probs):
            yield format_bits(i, self.length), float(p)

    def to_csv(self, file) -> None:
        """Write ``string,probability\\r\\n`` rows in lexicographic order, the
        bytes ``csv.writer`` writes for ``[key, repr(p)]``."""
        _write_rows(file, "", [("{},%r\r\n", [self.probs], self.length)])

    def __repr__(self) -> str:
        return f"DistributionTable(length={self.length}, entries={len(self.probs)})"


def uniform_dist(m: int) -> DistributionTable:
    """Every length-m string gets 2**-m."""
    m = _check_enum_guard(m, "m")
    return DistributionTable._owning(m, np.full(1 << m, 0.5 ** m))


def _law(first: np.ndarray, second: np.ndarray, k: int) -> np.ndarray:
    """q[..., h, b1b2] = P(pair = b1b2 | last max(k, 2) bits h), in 00, 01, 10,
    11 order, from zero[..., h] = P(bit = 0 | last k bits h) of its first and
    second bit; the second bit's history is (2h + b1) mod 2^k, and k < 2
    history bits are repeated over 2, which each pair shifts out whole."""
    second = np.tile(second, 2).reshape(*first.shape, 2)
    q = np.stack([first, 1.0 - first], -1)[..., None] * np.stack([second, 1.0 - second], -1)
    return np.tile(q.reshape(*first.shape, 4), (4 >> min(k, 2), 1))


def _pair_masses(spec: SourceSpec, n: int):
    """Yield the masses (``_law``) of each of the (n + 1) // 2 input pairs in
    order.  Zero bits stand in before the run starts, and an odd trailing bit
    is paired with a fair phantom bit.  A drifting source's are built _PAIRS
    pairs at a time; each law of another source is built once, and a constant
    source, or a Markov source from bit k on, has one."""
    from .sources import ConstantSource, DriftingSource, MarkovSource, PairwiseSource
    if isinstance(spec, PairwiseSource):
        if n % 2:
            raise ValidationError("pairwise source emits whole pairs; n must be even")
        laws = np.tile(spec.pair_matrix(len(spec.pair_dists))[:, None], (4, 1))
        yield from islice(cycle(laws), n // 2)
    elif isinstance(spec, DriftingSource):
        spec._deterministic(n)
        for lo in range(0, n, 2 * _PAIRS):
            zero = np.append(spec.params.p0 - spec._offsets(lo, min(lo + 2 * _PAIRS, n)), 0.5)
            yield from _law(zero[:-1:2, None], zero[1::2, None], 0)
    elif isinstance(spec, (ConstantSource, MarkovSource)):
        markov = isinstance(spec, MarkovSource)
        k, cond = (spec.k, spec.cond_zero_probs()) if markov else (0, np.full(1, spec.p0))

        def law(t):  # the first k bits use the base marginal
            return _law(*[cond if k <= i < n else np.full(1 << k, 0.5 if i == n else spec.p0)
                          for i in (2 * t, 2 * t + 1)], k)
        head = min(-(-k // 2), n // 2)  # pairs that hold one of the first k bits
        yield from map(law, range(head))
        yield from repeat(law(head), n // 2 - head) if head < n // 2 else ()
        if n % 2:
            yield law(n // 2)
    else:
        raise ValidationError(f"unknown source spec {spec!r}")


def exact_source_dist(spec: SourceSpec, n: int) -> DistributionTable:
    """Exact model probability of every length-n string.

    Drifting sources need a deterministic trajectory (sine, fixed, or
    adversarial); a random-walk trajectory has no fixed trace.
    """
    n = _check_enum_guard(n)
    # prefix doubling by pairs; a prefix's history is the low bits of its index
    probs = np.ones(1)
    for t, qt in enumerate(_pair_masses(spec, n)):
        if 2 * t + 1 == n:
            qt = qt.reshape(-1, 2, 2).sum(2)  # sum the phantom bit out
        h = min(len(probs), len(qt))
        probs = (probs.reshape(-1, h, 1) * qt[:h]).ravel()
    return DistributionTable._owning(n, probs)


def _exact_excess(k: int, n: int, m: int) -> str:
    """What makes ``normalized_dist`` refuse an n-bit run of a k-memory source
    at output length m, or "" when its forward pass fits both limits."""
    bits = max(k, 2) + m + 1
    if 1 << min(bits, 64) > MAX_EXACT_STATE:  # m can be as large as n // 2
        return f"state of 2^{bits} floats exceeds MAX_EXACT_STATE = 2^20"
    if (n // 2) << max(bits, 11) > MAX_EXACT_WORK:
        return f"{n // 2} pairs of 2^{max(bits, 11)} floats exceed MAX_EXACT_WORK = 2^28"
    return ""


def _rescaled(x: np.ndarray, m: int) -> np.ndarray:
    """``x`` divided in place by its sum, 0 once no length-m output is left."""
    total = x.sum()
    if not total > 0.0:
        raise DegenerateSourceError(f"source assigns zero probability to every length-{m} output")
    x /= total
    return x


def normalized_dist(spec: SourceSpec, n: int, m: int) -> DistributionTable:
    """Distribution of the von Neumann output conditioned on its length being
    exactly m, for an n-bit run of the source.

    A forward pass over the n//2 input pairs, whose state is the last
    max(k, 2) input bits times the output so far, rescaled to sum 1 after
    each pair: the law is conditional, so the scale cancels, and no mass
    underflows however long the run.  Refused past ``_exact_excess``.
    """
    from .sources import MarkovSource
    n = _integer("n", n, 0)
    m = _integer("m", m, 1, n // 2, f"n // 2 = {n // 2}")
    # k is known before the masses are built, so a refused call builds none
    k = spec.k if isinstance(spec, MarkovSource) else 0
    if excess := _exact_excess(k, n, m):
        raise ValidationError(excess)
    # state[s, lo, c]: history s * 2^(max(k, 2) - 2) + lo; the output is
    # coded with a leading 1 bit, so code 1 is the empty output
    state = np.zeros((4, 1 << (max(k, 2) - 2), 2))
    state[0, 0, 1] = 1.0
    for qt in islice(_pair_masses(spec, n), n // 2):
        qt = qt.reshape(4, -1, 4)
        w = state.shape[2]
        ext = min(w, 1 << m)  # 01/10 extend codes below ext; m-bit outputs drop
        nxt = np.zeros((qt.shape[1], 4, 2 * ext))  # history 4 * lo + pair
        for pair, src, dst in ((0, state, nxt[:, 0, :w]), (3, state, nxt[:, 3, :w]),
                               (1, state[..., :ext], nxt[:, 1, 0::2]),
                               (2, state[..., :ext], nxt[:, 2, 1::2])):
            np.einsum("slc,sl->lc", src, qt[..., pair], out=dst)  # sum out shifted s
        state = _rescaled(nxt, m).reshape(4, -1, 2 * ext)
    return DistributionTable._owning(m, _rescaled(state[..., 1 << m:].sum(axis=(0, 1)), m))


def total_variation(p: DistributionTable, q: DistributionTable) -> float:
    """Half the L1 distance between two same-length tables (in [0, 1])."""
    if p.length != q.length:
        raise ValidationError(f"length mismatch: {p.length} != {q.length}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


@dataclass(frozen=True)
class IndependenceViolation:
    """First prefix where P(prefix) != P(shorter prefix) * P(last bit marginal)."""

    k: int
    prefix: str
    lhs: float
    rhs: float

    def __str__(self) -> str:
        return (f"prefix {self.prefix!r} (k={self.k}): P = {self.lhs!r} but "
                f"P(head)*P(bit) = {self.rhs!r}")


def check_independence(table: DistributionTable):
    """None if every prefix event factors through the per-position bit
    marginals (within ``_INDEPENDENCE_TOL``); otherwise the first violation.

    Scans k = 1..n and every k-bit prefix, comparing P(prefix) against
    P(prefix[:-1]) times the position-k bit marginal.
    """
    n = _integer("table length", table.length, 0, 16, "the independence check's guard 16")
    probs = table.probs
    prev = np.ones(1)  # prefix marginals for k-1
    for k in range(1, n + 1):
        cur = probs.reshape(1 << k, -1).sum(axis=1)
        marg = probs.reshape(1 << (k - 1), 2, -1).sum(axis=(0, 2))
        rhs = np.repeat(prev, 2) * np.tile(marg, 1 << (k - 1))
        bad = np.abs(cur - rhs) > _INDEPENDENCE_TOL
        if bad.any():
            i = int(np.argmax(bad))
            return IndependenceViolation(k, format_bits(i, k), float(cur[i]), float(rhs[i]))
        prev = cur
    return None


def worst_case_product_dist(alpha: float, m: int, sign: int = 1) -> DistributionTable:
    """Product measure where every bit is 0 with probability (1 + sign*alpha)/2;
    the i.i.d. source a worst-case drifting source collapses to after
    normalization."""
    from .sources import ConstantSource
    _interval("alpha", alpha, 0, 1, "[)")
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    m = _check_enum_guard(m, "m")
    return exact_source_dist(ConstantSource(0.5 * (1.0 + sign * alpha)), m)
