"""Exact finite distributions over fixed-length bit strings.

A table over length-m strings is stored as a dense float vector indexed by
the string's MSB-first integer value, which is also its lexicographic rank
(``bits._key_rank``).  ``to_csv`` writes a table; the package reads none back.
Each source's law is stated once, as pair masses (see ``_pair_masses``); the
raw table and the von Neumann output table are two folds over them, guarded
at n <= 26 and k + m + 1 <= 26 so every computation stays exact (double
precision) and finishes quickly.  The functions that read a source spec
import ``sources`` when called, so ``analyze``, which uses only tables and
their distance, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bits import BitString, _key_rank, _write_rows, format_bits
from .errors import DegenerateSourceError, ValidationError, _integer, _interval
from .params import MAX_ENUM_N, _check_enum_guard

if TYPE_CHECKING:
    from .sources import SourceSpec

_INDEPENDENCE_TOL = 1e-12  # absolute slack of check_independence


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


def _pair_masses(spec: SourceSpec, n: int) -> tuple[int, np.ndarray]:
    """``(k, q)``: q[t, h, b1b2] = P(input pair t = b1b2 | last k input bits h),
    in 00, 01, 10, 11 order, built from zero[i, h] = P(bit i = 0 | h).  Zero
    bits stand in before the run starts, and an odd trailing bit is paired
    with a fair phantom bit."""
    from .sources import ConstantSource, DriftingSource, MarkovSource, PairwiseSource
    if isinstance(spec, PairwiseSource):
        if n % 2:
            raise ValidationError("pairwise source emits whole pairs; n must be even")
        return 0, spec.pair_matrix(n // 2)[:, None, :]
    k = 0
    if isinstance(spec, ConstantSource):
        zero = np.full((n, 1), spec.p0)
    elif isinstance(spec, DriftingSource):
        zero = (spec.params.p0 - spec.realized_trace(n).epsilons)[:, None]
    elif isinstance(spec, MarkovSource):
        k = spec.k
        zero = np.tile(spec.cond_zero_probs(), (n, 1))
        zero[:k] = spec.p0  # the first k bits use the base marginal
    else:
        raise ValidationError(f"unknown source spec {spec!r}")
    if n % 2:
        zero = np.vstack([zero, np.full((1, 1 << k), 0.5)])
    first = zero[0::2]
    # the second bit's history is (2h + b1) mod 2^k
    second = np.tile(zero[1::2], 2).reshape(-1, 1 << k, 2)
    q = (np.stack([first, 1.0 - first], -1)[..., None]
         * np.stack([second, 1.0 - second], -1))
    return k, q.reshape(-1, 1 << k, 4)


def exact_source_dist(spec: SourceSpec, n: int) -> DistributionTable:
    """Exact model probability of every length-n string.

    Drifting sources need a deterministic trajectory (sine, fixed, or
    adversarial); a random-walk trajectory has no fixed trace.
    """
    n = _check_enum_guard(n)
    k, q = _pair_masses(spec, n)
    # prefix doubling by pairs; a prefix's history is the low k bits of its index
    probs = np.ones(1)
    for t, qt in enumerate(q):
        if 2 * t + 1 == n:
            qt = qt.reshape(-1, 2, 2).sum(2)  # sum the phantom bit out
        h = min(len(probs), 1 << k)
        probs = (probs.reshape(-1, h, 1) * qt[:h]).ravel()
    return DistributionTable._owning(n, probs)


def normalized_dist(spec: SourceSpec, n: int, m: int) -> DistributionTable:
    """Distribution of the von Neumann output conditioned on its length being
    exactly m, for an n-bit run of the source.

    A forward pass over the n//2 input pairs, whose state is the last k input
    bits times the output so far, guarded at k + m + 1 <= MAX_ENUM_N.
    """
    from .sources import MarkovSource
    n = _check_enum_guard(n)
    m = _integer("m", m, 1, n // 2, f"n // 2 = {n // 2}")
    # k is known before the masses are built, so a refused call builds none
    k = spec.k if isinstance(spec, MarkovSource) else 0
    if k + m + 1 > MAX_ENUM_N:
        raise ValidationError(f"state of 2^{k + m + 1} entries exceeds the guard "
                              f"k + m + 1 <= {MAX_ENUM_N}")
    _, q = _pair_masses(spec, n)
    kk = max(k, 2)  # pad to 2 history bits, which each pair shifts out whole
    q = np.tile(q, (1, 1 << (kk - k), 1)).reshape(-1, 4, 1 << (kk - 2), 4)
    # state[s, lo, c]: history s * 2^(kk-2) + lo; the output is coded with a
    # leading 1 bit, so code 1 is the empty output
    state = np.zeros((4, 1 << (kk - 2), 2))
    state[0, 0, 1] = 1.0
    for qt in q[: n // 2]:
        w = state.shape[2]
        ext = min(w, 1 << m)  # 01/10 extend codes below ext; m-bit outputs drop
        nxt = np.zeros((1 << (kk - 2), 4, 2 * ext))  # history 4 * lo + pair
        for pair, src, dst in ((0, state, nxt[:, 0, :w]), (3, state, nxt[:, 3, :w]),
                               (1, state[..., :ext], nxt[:, 1, 0::2]),
                               (2, state[..., :ext], nxt[:, 2, 1::2])):
            np.einsum("slc,sl->lc", src, qt[..., pair], out=dst)  # sum out shifted s
        state = nxt.reshape(4, -1, 2 * ext)
    acc = state[..., 1 << m:].sum(axis=(0, 1))
    total = float(acc.sum())
    if total <= 0.0:
        raise DegenerateSourceError(
            f"source assigns zero probability to every length-{m} output")
    return DistributionTable._owning(m, acc / total)


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
