"""Exact finite distributions over fixed-length bit strings.

A table over length-m strings is stored as a dense float vector indexed by
the string's MSB-first integer value, which is also its lexicographic rank.
Enumeration-based operations are guarded at n <= 26 so every computation
stays exact (double precision) and finishes quickly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bits import BitString, format_bits
from .errors import DegenerateSourceError, ValidationError
from .sources import (ConstantSource, DriftingSource, DriftTrace, MarkovSource,
                      PairwiseSource, SourceSpec)

MAX_ENUM_N = 26

_CHUNK = 1 << 20


def _check_enum_guard(n: int, what: str = "n") -> None:
    if n < 0:
        raise ValidationError(f"{what} must be >= 0, got {n}")
    if n > MAX_ENUM_N:
        raise ValidationError(f"{what} = {n} exceeds the enumeration guard {MAX_ENUM_N}")


class DistributionTable:
    """Probabilities for every string of one fixed length, summing to 1."""

    __slots__ = ("length", "probs")

    def __init__(self, length: int, probs, validate: bool = True):
        _check_enum_guard(length, "table length")
        arr = np.asarray(probs, dtype=np.float64).reshape(-1).copy()
        if len(arr) != 1 << length:
            raise ValidationError(
                f"need {1 << length} probabilities for length {length}, got {len(arr)}")
        if validate:
            if (arr < 0.0).any():
                bad = int(np.argmax(arr < 0.0))
                raise ValidationError(
                    f"negative probability {arr[bad]!r} for {format_bits(bad, length)!r}")
            total = float(arr.sum())
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        arr.flags.writeable = False
        self.length = length
        self.probs = arr

    def prob(self, key) -> float:
        """Probability of one string (str, BitString, or integer rank)."""
        if isinstance(key, BitString):
            if len(key) != self.length:
                raise ValidationError(f"key length {len(key)} != table length {self.length}")
            idx = key.to_int()
        elif isinstance(key, str):
            if len(key) != self.length or any(c not in "01" for c in key):
                raise ValidationError(f"bad key {key!r} for table length {self.length}")
            idx = int(key, 2) if key else 0
        else:
            idx = int(key)
            if not 0 <= idx < len(self.probs):
                raise ValidationError(f"rank {idx} out of range")
        return float(self.probs[idx])

    def items(self):
        """(string, probability) pairs in lexicographic order."""
        for i, p in enumerate(self.probs):
            yield format_bits(i, self.length), float(p)

    def to_csv(self, file) -> None:
        """Write ``string,probability`` rows in lexicographic order."""
        if hasattr(file, "write"):
            w = csv.writer(file)
            for s, p in self.items():
                w.writerow([s, repr(p)])
        else:
            with open(file, "w", newline="") as f:
                self.to_csv(f)

    @classmethod
    def from_csv(cls, file) -> "DistributionTable":
        if not hasattr(file, "read"):
            with open(file, newline="") as f:
                return cls.from_csv(f)
        rows = [row for row in csv.reader(file) if row]
        if not rows:
            raise ValidationError("empty distribution CSV")
        length = len(rows[0][0])
        probs = np.zeros(1 << length)
        for s, p in rows:
            probs[int(s, 2) if s else 0] = float(p)
        return cls(length, probs)

    def __repr__(self) -> str:
        return f"DistributionTable(length={self.length}, entries={len(self.probs)})"


def uniform_dist(m: int) -> DistributionTable:
    """Every length-m string gets 2**-m."""
    _check_enum_guard(m, "m")
    return DistributionTable(m, np.full(1 << m, 0.5 ** m), validate=False)


def pn_prob(x: BitString, p0: float) -> float:
    """Constant-bias string probability p0^{zeros} * p1^{ones}."""
    if not 0.0 < p0 < 1.0:
        raise ValidationError(f"p0 must lie in (0,1), got {p0}")
    ones = x.count(1)
    return p0 ** (len(x) - ones) * (1.0 - p0) ** ones


def rn_prob(x: BitString, trace: DriftTrace, p0: float) -> float:
    """Drifting-bias string probability: the product over bits of
    p0 - eps_i (bit 0) or p1 + eps_i (bit 1), with the trace aligned to x."""
    if not 0.0 < p0 < 1.0:
        raise ValidationError(f"p0 must lie in (0,1), got {p0}")
    if len(trace) < len(x):
        raise ValidationError(f"trace has {len(trace)} entries, need {len(x)}")
    if len(x) == 0:
        return 1.0
    bits = x.to_array()
    eps = trace.epsilons[: len(bits)]
    return float(np.prod(np.where(bits == 1, (1.0 - p0) + eps, p0 - eps)))


def _per_bit_probs(zero_probs: np.ndarray) -> np.ndarray:
    # prefix-doubling product measure; index = MSB-first prefix value
    probs = np.ones(1)
    for q0 in zero_probs:
        probs = np.outer(probs, [q0, 1.0 - q0]).ravel()
    return probs


def _markov_probs(spec: MarkovSource, n: int) -> np.ndarray:
    cond = spec.cond_zero_probs()
    mask = (1 << spec.k) - 1
    probs = np.ones(1)
    for i in range(n):
        if i < spec.k:
            pz = np.full(len(probs), spec.p0)
        else:
            pz = cond[np.arange(len(probs), dtype=np.int64) & mask]
        nxt = np.empty(2 * len(probs))
        nxt[0::2] = probs * pz
        nxt[1::2] = probs * (1.0 - pz)
        probs = nxt
    return probs


def _pairwise_probs(spec: PairwiseSource, n: int) -> np.ndarray:
    if n % 2:
        raise ValidationError("pairwise source emits whole pairs; n must be even")
    probs = np.ones(1)
    for row in spec.pair_matrix(n // 2):
        probs = np.outer(probs, row).ravel()
    return probs


def exact_source_dist(spec: SourceSpec, n: int) -> DistributionTable:
    """Exact model probability of every length-n string.

    Drifting sources need a deterministic trajectory (sine, fixed, or
    adversarial); a random-walk trajectory has no fixed trace to enumerate.
    """
    _check_enum_guard(n)
    if isinstance(spec, ConstantSource):
        probs = _per_bit_probs(np.full(n, spec.p0))
    elif isinstance(spec, DriftingSource):
        if spec.trajectory == "walk":
            raise ValidationError(
                "walk trajectory has no deterministic trace; use sine, fixed, or "
                "adversarial (or fix the realized trace of a sampled run)")
        trace = spec.realized_trace(n)
        probs = _per_bit_probs(spec.params.p0 - trace.epsilons)
    elif isinstance(spec, MarkovSource):
        probs = _markov_probs(spec, n)
    elif isinstance(spec, PairwiseSource):
        probs = _pairwise_probs(spec, n)
    else:
        raise ValidationError(f"unknown source spec {spec!r}")
    return DistributionTable(n, probs)


def _vn_outputs(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Von Neumann output value and length for every z in [lo, hi)."""
    v = np.arange(lo, hi, dtype=np.int64)
    out_val = np.zeros(hi - lo, dtype=np.int64)
    out_len = np.zeros(hi - lo, dtype=np.int64)
    for i in range(n // 2):
        a = (v >> (n - 1 - 2 * i)) & 1
        b = (v >> (n - 2 - 2 * i)) & 1
        keep = a != b
        out_val = np.where(keep, (out_val << 1) | a, out_val)
        out_len += keep
    return out_val, out_len


def normalized_dist(spec: SourceSpec, n: int, m: int) -> DistributionTable:
    """Distribution of the von Neumann output conditioned on its length being
    exactly m, for an n-bit run of the source.

    Enumerates all length-n strings, keeps those normalizing to exactly m
    bits, aggregates the source probability per output, and renormalizes.
    """
    _check_enum_guard(n)
    if not 1 <= m <= n // 2:
        raise ValidationError(f"need 1 <= m <= n/2, got m = {m}, n = {n}")
    probs = exact_source_dist(spec, n).probs
    acc = np.zeros(1 << m)
    for lo in range(0, 1 << n, _CHUNK):
        hi = min(lo + _CHUNK, 1 << n)
        out_val, out_len = _vn_outputs(n, lo, hi)
        mask = out_len == m
        if mask.any():
            acc += np.bincount(out_val[mask], weights=probs[lo:hi][mask],
                               minlength=1 << m)
    total = float(acc.sum())
    if total <= 0.0:
        raise DegenerateSourceError(
            f"source assigns zero probability to every length-{m} output")
    return DistributionTable(m, acc / total)


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


def check_independence(table: DistributionTable, tol: float = 1e-12):
    """None if every prefix event factors through the per-position bit
    marginals (within tol); otherwise the first violation found.

    Scans k = 1..n and every k-bit prefix, comparing P(prefix) against
    P(prefix[:-1]) times the position-k bit marginal.
    """
    n = table.length
    if n > 16:
        raise ValidationError(f"independence check guarded at length 16, got {n}")
    probs = table.probs
    prev = np.ones(1)  # prefix marginals for k-1
    for k in range(1, n + 1):
        cur = probs.reshape(1 << k, -1).sum(axis=1)
        marg = probs.reshape(1 << (k - 1), 2, -1).sum(axis=(0, 2))
        rhs = np.repeat(prev, 2) * np.tile(marg, 1 << (k - 1))
        bad = np.abs(cur - rhs) > tol
        if bad.any():
            i = int(np.argmax(bad))
            return IndependenceViolation(k, format_bits(i, k), float(cur[i]), float(rhs[i]))
        prev = cur
    return None


def worst_case_product_dist(alpha: float, m: int, sign: int = 1) -> DistributionTable:
    """Product measure where every bit is 0 with probability (1 + sign*alpha)/2;
    the i.i.d. source a worst-case drifting source collapses to after
    normalization."""
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(f"alpha must lie in [0,1), got {alpha}")
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    _check_enum_guard(m, "m")
    return DistributionTable(m, _per_bit_probs(np.full(m, 0.5 * (1.0 + sign * alpha))))
