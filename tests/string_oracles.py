"""Slow, per-string routes that the string and table tests compare the
package against.

Not collected by pytest (no ``test_`` prefix).  Each one restates a quantity
that the package computes another way: ``vn_pair`` the pair map that
``vn_normalize`` applies by slicing, ``count_bits`` ``BitString.count``,
``pn_prob`` and ``rn_prob`` one entry of ``exact_source_dist``, and
``csv_writer_table`` the rows ``DistributionTable.to_csv`` writes.
"""

import csv

import numpy as np

from debias import BitString, DriftTrace, ValidationError


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
