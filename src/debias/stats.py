"""Empirical stream analysis: block-frequency (Borel) counts, empirical block
distributions, and bound-family parameter sweeps."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString, QaryString, _write_rows
from .bounds import linear_bound, tv_bound_exact, tv_bound_naive
from .errors import ValidationError
from .exactdist import MAX_ENUM_N, DistributionTable, _check_enum_guard

MODES = ("non-overlapping", "overlapping")


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


def _block_values(codes: np.ndarray, m: int, q: int, step: int) -> np.ndarray:
    """Base-q value, first symbol most significant, of each m-symbol block
    starting at 0, step, 2 step, ... (step = m: disjoint blocks; step = 1:
    sliding windows), by an in-place Horner pass over strided slices."""
    stop = (len(codes) - m) // step * step + 1  # one past the last block start
    vals = codes[:stop:step].astype(np.int64)
    for j in range(1, m):
        vals *= q
        vals += codes[j:j + stop:step]
    return vals


def _block_counts(codes: np.ndarray, m: int, q: int, step: int, unit: str):
    """``(counts, blocks)``: how often each base-q value occurs among the
    m-symbol blocks of :func:`_block_values`, and the number of blocks.  m
    is at most the input length, and at most MAX_ENUM_N with q^m <=
    2^MAX_ENUM_N, the size limit of a dense table."""
    m = _check_enum_guard(m, "m", 1)
    if q ** m > 1 << MAX_ENUM_N:
        raise ValidationError(f"q^m = {q}^{m} counts exceed 2^MAX_ENUM_N = 2^{MAX_ENUM_N}")
    if len(codes) < m:
        raise ValidationError(f"input has {len(codes)} {unit}, need at least {m}")
    vals = _block_values(codes, m, q, step)
    return np.bincount(vals, minlength=q ** m), len(vals)


def borel_counts(x: BitString, m: int, mode: str = "non-overlapping") -> BorelReport:
    """Count every m-bit block of x, disjointly or in a sliding window;
    m <= MAX_ENUM_N, the size limit of a dense table over m-bit strings."""
    _check_mode(mode)
    counts, total = _block_counts(x.to_array(), m, 2, m if mode == "non-overlapping" else 1,
                                  "bits")
    return BorelReport(m=m, mode=mode, total=total, counts=counts)


def empirical_block_dist(x: BitString, m: int) -> DistributionTable:
    """Relative frequency of each disjoint m-bit block, as a distribution."""
    report = borel_counts(x, m, "non-overlapping")
    return DistributionTable(m, report.counts / report.total)


def symbol_block_counts(x: QaryString, m: int) -> np.ndarray:
    """Counts of each disjoint m-symbol block of a Q-ary string, indexed by
    the block's base-Q value; q^m <= 2^MAX_ENUM_N, the size limit of a dense table."""
    return _block_counts(x.symbols, m, x.q, m, "symbols")[0]


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
    NaN for m < 3, where that bound is undefined)."""
    rows = []
    for m in ms:
        for alpha in (float(a) for a in alphas):
            rows.append(SweepRow(
                m=int(m),
                alpha=alpha,
                tv_exact=float(tv_bound_exact(m, alpha)),
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
    then every block of each report in turn, floats as their ``repr``."""
    _write_rows(file, "m,mode,block,count,expected,deviation_sigma\r\n",
                ((f"{r.m},%s,{{}},%d,{r.expected!r},%r\r\n",
                  [[r.mode] * len(r.counts), r.counts, r.deviations], r.m) for r in reports))
