"""Slow, per-string routes that the string and table tests compare the
package against.

Not collected by pytest (no ``test_`` prefix).  Each one restates a quantity
that the package computes another way: ``vn_pair`` the pair map that
``vn_normalize`` applies by slicing, ``count_bits`` ``BitString.count``,
``pn_prob`` and ``rn_prob`` one entry of ``exact_source_dist``.  The rest
restate, one row at a time, the text of the package's chunked row writer:
``csv.writer`` rows for ``DistributionTable.to_csv`` (``csv_writer_table``)
and for the sweep, Borel and markov CSVs, one f-string per line for
``BorelReport.format_table`` and one ``repr`` per line for ``DriftTrace.save``.
"""

import csv
import io

import numpy as np

from debias import BitString, DriftTrace, ValidationError
from debias.bits import format_bits


def vn_pair(b1: int, b2: int) -> int | None:
    """One von Neumann step: None for an equal pair, else the first bit."""
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ValidationError("vn_pair needs two bits")
    return None if b1 == b2 else b1


def count_bits(x: BitString, bit: int) -> int:
    """Number of occurrences of ``bit`` in ``x``, one bit at a time."""
    if bit not in (0, 1):
        raise ValidationError(f"illegal bit value {bit!r}")
    return sum(1 for b in x if b == bit)


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
    bits = x.to_array()
    eps = trace.epsilons[: len(bits)]
    return float(np.prod(np.where(bits == 1, (1.0 - p0) + eps, p0 - eps)))


def csv_writer_table(table, file) -> None:
    """``DistributionTable.to_csv`` as one ``csv.writer`` row per entry."""
    if hasattr(file, "write"):
        w = csv.writer(file)
        for s, p in table.items():
            w.writerow([s, repr(p)])
    else:
        with open(file, "w", newline="") as f:
            csv_writer_table(table, f)


def _csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def sweep_csv(rows) -> str:
    """``write_sweep_csv`` as one ``csv.writer`` row per point."""
    return _csv_writer_text(["m", "alpha", "tv_exact", "tv_linear", "tv_naive"],
                            ([r.m, repr(r.alpha), repr(r.tv_exact), repr(r.tv_linear),
                              repr(r.tv_naive)] for r in rows))


def _borel_rows(r):
    """``(block, count, expected, deviation)`` for each block of a report."""
    for i, (c, dev) in enumerate(zip(r.counts, r.deviations)):
        yield format_bits(i, r.m), int(c), r.expected, float(dev)


def borel_csv(reports) -> str:
    """``write_borel_csv`` as one ``csv.writer`` row per block."""
    return _csv_writer_text(["m", "mode", "block", "count", "expected", "deviation_sigma"],
                            ([r.m, r.mode, block, count, repr(expected), repr(dev)]
                             for r in reports for block, count, expected, dev in _borel_rows(r)))


def borel_table(r) -> str:
    """``BorelReport.format_table`` as one f-string per line."""
    lines = [f"block counts, m={r.m}, mode={r.mode}, windows={r.total}",
             f"{'block':>8} {'count':>12} {'expected':>14} {'dev(sigma)':>11}"]
    for block, count, expected, dev in _borel_rows(r):
        lines.append(f"{block:>8} {count:>12} {expected:>14.2f} {dev:>+11.3f}")
    return "\n".join(lines)


def markov_csv(results) -> str:
    """``write_markov_csv`` as one ``csv.writer`` row per result."""
    return _csv_writer_text(
        ["k", "kappa", "m", "n", "tv_exact", "tv_empirical", "samples", "seed"],
        ([r.k, repr(r.kappa), r.m, r.n, "" if r.tv_exact is None else repr(r.tv_exact),
          repr(r.tv_empirical), r.samples, r.seed] for r in results))


def trace_text(trace) -> str:
    """``DriftTrace.save`` as one ``repr`` line per offset."""
    return "".join(f"{e!r}\n" for e in trace.epsilons.tolist())
