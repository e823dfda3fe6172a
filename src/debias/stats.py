"""Empirical stream analysis: block-frequency (Borel) counts, empirical block
distributions, and bound-family parameter sweeps.

Every block count comes from one window pass, :func:`_window_counts`: it
builds the longest blocks once, a chunk of ``_WIN`` windows at a time in
``uint16`` or ``uint32``, and reads every shorter block length and both
modes off the same windows, so its scratch does not grow with the input.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bits import BitString, QaryString, _write_rows
from .bounds import linear_bound, tv_bound_exact, tv_bound_naive
from .errors import ValidationError
from .params import MAX_ENUM_N, MODES, _check_enum_guard

if TYPE_CHECKING:
    from .exactdist import DistributionTable


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass
class BorelReport:
    """Occurrence counts of every m-bit block with their binomial-model
    deviations; sums to floor(n/m) windows (non-overlapping) or n-m+1
    (overlapping)."""

    m: int
    mode: str
    total: int
    counts: np.ndarray

    def __post_init__(self):
        _check_mode(self.mode)

    @property
    def expected(self) -> float:
        """Expected count of each block under uniformity."""
        return self.total * 0.5 ** self.m

    @property
    def sigma(self) -> float:
        """Binomial-model standard deviation of a single block count."""
        q = 0.5 ** self.m
        return math.sqrt(self.total * q * (1.0 - q))

    @property
    def deviations(self) -> np.ndarray:
        """(count - expected) / sigma for every block."""
        return (self.counts - self.expected) / self.sigma

    @property
    def max_abs_deviation(self) -> float:
        return float(np.abs(self.deviations).max())

    def format_table(self) -> str:
        buf = io.StringIO()
        _write_rows(buf, f"block counts, m={self.m}, mode={self.mode}, windows={self.total}\n"
                         f"{'block':>8} {'count':>12} {'expected':>14} {'dev(sigma)':>11}\n",
                    [(" " * (8 - self.m) + f"{{}} %12d {self.expected:>14.2f} %+11.3f\n",
                      [self.counts, self.deviations], self.m)])
        return buf.getvalue()[:-1]


# window starts per chunk of the window pass: 128 KiB of uint16 windows
_WIN = 1 << 16


def _window_counts(codes: np.ndarray, q: int, ms: range, modes) -> dict:
    """``{mode: {m: counts}}`` for each mode in ``modes`` and each block
    length m in ``ms`` (a range from 1 or more up to M): how often each
    base-q value, first symbol most significant, occurs among the m-symbol
    blocks of the non-empty ``codes`` that start at 0, m, 2m, ...
    ("non-overlapping") or at every position ("overlapping").

    One pass builds the M-symbol window at every start, reading symbols
    past the end as 0, in ``uint16`` (``uint32`` above q^M = 2^16) and in
    chunks of ``_WIN`` starts, or of q^M starts if that is more, so that a
    chunk's count table never costs more than its windows; it adds up each
    chunk's ``np.bincount``.  The first m symbols of the window at s,
    ``v // q^(M - m)``, are the m-block at s, whole if s <= n - m: the
    disjoint counts read them at every m-th start.  The overlapping
    M-counts summed over their last M - m symbols are the m-counts of the
    blocks that start at or before n - M; the at most M - 1 blocks after
    those are counted one by one.
    """
    n, M = len(codes), ms[-1]
    size = q ** M
    whole = max(n - M + 1, 0)  # windows that lie inside codes
    overlapping = "overlapping" in modes
    over = None
    disjoint = dict.fromkeys(ms) if "non-overlapping" in modes else {}
    step = max(_WIN, size)
    dtype = np.uint16 if size <= 1 << 16 else np.uint32
    seg = np.empty(min(step, n) + M - 1, dtype)
    win = np.empty(min(step, n), dtype)
    tail = []  # the windows past n - M, in order
    for lo in range(0, n, step):
        k = min(step, n - lo)
        got = min(k + M - 1, n - lo)
        seg[:got] = codes[lo:lo + got]
        seg[got:k + M - 1] = 0
        w = win[:k]
        w[:] = seg[:k]
        for j in range(1, M):  # Horner, in place
            w *= q
            w += seg[j:j + k]
        if overlapping:
            cut = min(max(whole - lo, 0), k)
            over = _tally(over, w[:cut], size)
            tail.append(w[cut:].copy())
        for m in disjoint:
            stop = min(k, n - m + 1 - lo)  # a block that starts past n - m is cut short
            disjoint[m] = _tally(disjoint[m], w[-lo % m:max(stop, 0):m] // q ** (M - m), q ** m)
    out = {}
    if overlapping:
        tail = np.concatenate(tail) if tail else win[:0]
        out["overlapping"] = tables = {M: over}
        for m in range(M - 1, ms[0] - 1, -1):
            over = over.reshape(-1, q).sum(axis=1)
            tables[m] = counts = over.copy()
            np.add.at(counts, tail[:max(n - m + 1 - whole, 0)] // q ** (M - m), 1)
    if disjoint:
        out["non-overlapping"] = disjoint
    return out


def _tally(total, values: np.ndarray, size: int) -> np.ndarray:
    """``total`` plus the counts of ``values`` (all below ``size``); the
    first counts (``total`` None) are kept as they are, so that a table as
    large as its chunk is never held twice."""
    counts = np.bincount(values, minlength=size)
    if total is None:
        return counts
    total += counts
    return total


def _block_counts(codes: np.ndarray, q: int, m: int, unit: str, modes, least=None) -> dict:
    """:func:`_window_counts` for the block lengths ``least`` (default m)
    to m, once m is checked: at most the input length, and at most
    MAX_ENUM_N with q^m <= 2^MAX_ENUM_N, the size limit of a dense table."""
    m = _check_enum_guard(m, "m", 1)
    if q ** m > 1 << MAX_ENUM_N:
        raise ValidationError(f"q^m = {q}^{m} counts exceed 2^MAX_ENUM_N = 2^{MAX_ENUM_N}")
    if len(codes) < m:
        raise ValidationError(f"input has {len(codes)} {unit}, need at least {m}")
    return _window_counts(codes, q, range(least or m, m + 1), modes)


def _report(n: int, m: int, mode: str, counts: np.ndarray) -> BorelReport:
    total = n // m if mode == "non-overlapping" else n - m + 1
    return BorelReport(m=m, mode=mode, total=total, counts=counts)


def borel_counts(x: BitString, m: int, mode: str = "non-overlapping") -> BorelReport:
    """Count every m-bit block of x, disjointly or in a sliding window;
    m <= MAX_ENUM_N, the size limit of a dense table over m-bit strings."""
    _check_mode(mode)
    counts = _block_counts(x.to_array(), 2, m, "bits", (mode,))[mode][m]
    return _report(len(x), m, mode, counts)


def borel_series(x: BitString, max_m: int, mode: str = "non-overlapping"):
    """``(reports, disjoint)`` for m = 1..max_m from one window pass: the
    :func:`borel_counts` report of each m in ``mode``, and ``disjoint[m]``,
    the counts of the disjoint m-blocks (the reports' own counts if
    ``mode`` is "non-overlapping")."""
    _check_mode(mode)
    counts = _block_counts(x.to_array(), 2, max_m, "bits", {mode, "non-overlapping"}, 1)
    return ([_report(len(x), m, mode, c) for m, c in sorted(counts[mode].items())],
            counts["non-overlapping"])


def empirical_block_dist(x: BitString, m: int) -> DistributionTable:
    """Relative frequency of each disjoint m-bit block, as a distribution."""
    from .exactdist import DistributionTable  # not loaded for the sweep
    report = borel_counts(x, m, "non-overlapping")
    return DistributionTable(m, report.counts / report.total)


def symbol_block_counts(x: QaryString, m: int) -> np.ndarray:
    """Counts of each disjoint m-symbol block of a Q-ary string, indexed by
    the block's base-Q value; q^m <= 2^MAX_ENUM_N, the size limit of a dense table."""
    return _block_counts(x.symbols, x.q, m, "symbols", ("non-overlapping",))[
        "non-overlapping"][m]


@dataclass(frozen=True)
class SweepRow:
    """One (m, alpha) grid point with the three bound values."""

    m: int
    alpha: float
    tv_exact: float
    tv_linear: float
    tv_naive: float


def sweep(ms, alphas) -> list[SweepRow]:
    """Evaluate the bound family on an m x alpha grid (the linear column is
    NaN for m < 3, where that bound is undefined).  The exact column takes
    m <= 2**53, and each m row computes each of its half-tails once
    (``tv_bound_exact``'s ``_tails``)."""
    rows = []
    for m in ms:
        tails = {}
        for alpha in (float(a) for a in alphas):
            rows.append(SweepRow(
                m=int(m),
                alpha=alpha,
                tv_exact=float(tv_bound_exact(m, alpha, _tails=tails)),
                tv_linear=float(linear_bound(m, alpha)) if m >= 3 else math.nan,
                tv_naive=float(tv_bound_naive(m, alpha)),
            ))
    return rows


def write_sweep_csv(rows, file) -> None:
    """CSV rows ``m,alpha,tv_exact,tv_linear,tv_naive``."""
    rows = [(r.m, r.alpha, r.tv_exact, r.tv_linear, r.tv_naive) for r in rows]
    _write_rows(file, "m,alpha,tv_exact,tv_linear,tv_naive\r\n",
                [("%s,%r,%r,%r,%r\r\n", list(zip(*rows)), 0)])


def write_borel_csv(reports, file) -> None:
    """CSV rows ``m,mode,block,count,expected,deviation_sigma``: one header,
    then every block of each report in turn, floats as their ``repr``.  The
    mode, one of ``MODES``, is literal row text."""
    _write_rows(file, "m,mode,block,count,expected,deviation_sigma\r\n",
                ((f"{r.m},{r.mode},{{}},%d,{r.expected!r},%r\r\n",
                  [r.counts, r.deviations], r.m) for r in reports))
