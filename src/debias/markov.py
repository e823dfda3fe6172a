"""Exploratory harness for bounded-memory sources.

How close does the von Neumann output of a source whose per-bit probability
depends on the previous k bits (within a kappa band around the base marginal)
get to uniform?  No closed form is known, so results are *reported*, never
asserted against a target: the harness draws a kappa-banded conditional table
from the experiment seed, estimates the distance empirically from repeated
independent n-bit runs, and computes the exact conditional distribution from
the source's pair masses whenever n <= 26 and k + m + 1 <= 26.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import _write_rows
from .errors import ValidationError
from .exactdist import (MAX_ENUM_N, DistributionTable, normalized_dist,
                        total_variation, uniform_dist)
from .sources import MarkovSource, check_markov_k


@dataclass(frozen=True)
class MarkovExperiment:
    """One configuration: memory k, band kappa, source length n per trial,
    output length m, number of trials, seed, and base marginal p0."""

    k: int
    kappa: float
    m: int
    n: int
    samples: int
    seed: int
    p0: float = 0.5

    def __post_init__(self):
        check_markov_k(self.k)
        if self.samples < 1:
            raise ValidationError(f"need at least one trial, got {self.samples}")
        if not 1 <= self.m <= self.n // 2:
            raise ValidationError(f"need 1 <= m <= n/2, got m = {self.m}, n = {self.n}")


@dataclass
class MarkovResult:
    k: int
    kappa: float
    m: int
    n: int
    tv_exact: Optional[float]
    tv_empirical: float
    accepted: int
    samples: int
    seed: int


def random_markov_source(k: int, kappa: float, p0: float, seed: int) -> MarkovSource:
    """A k-memory source whose conditional zero-probabilities are drawn
    uniformly from the kappa band around p0 (clipped inside (0,1))."""
    rng = np.random.default_rng([seed, 0])
    lo = max(p0 - kappa, 1e-12)
    hi = min(p0 + kappa, 1.0 - 1e-12)
    table = {}
    for h in range(1 << k):
        key = format(h, f"0{k}b") if k else ""
        table[key] = float(rng.uniform(lo, hi)) if kappa > 0 else p0
    return MarkovSource(k=k, kappa=kappa, p0=p0, table=table)


def _sample_trials(source: MarkovSource, n: int, trials: int, seed: int) -> np.ndarray:
    """(trials, n) bit matrix; each row an independent run started with an
    empty history (the first k bits use the base marginal)."""
    rng = np.random.default_rng([seed, 1])
    cond = source.cond_zero_probs()
    mask = (1 << source.k) - 1
    bits = np.empty((trials, n), dtype=np.uint8)
    hist = np.zeros(trials, dtype=np.int64)
    for i in range(n):
        pz = np.full(trials, source.p0) if i < source.k else cond[hist]
        bit = (rng.random(trials) >= pz).astype(np.uint8)
        bits[:, i] = bit
        hist = ((hist << 1) | bit) & mask
    return bits


def _empirical_normalized_dist(bits: np.ndarray, m: int):
    """Frequency table of von Neumann outputs of length exactly m, row-wise."""
    a = bits[:, 0::2]
    b = bits[:, 1::2]
    keep = a != b
    accepted = keep.sum(axis=1) == m
    count = int(accepted.sum())
    if count == 0:
        return None, 0
    # every accepted row keeps exactly m pairs, read MSB-first in row order
    kept = a[accepted][keep[accepted]].reshape(count, m)
    vals = kept @ (1 << np.arange(m - 1, -1, -1))
    freqs = np.bincount(vals, minlength=1 << m) / count
    return DistributionTable(m, freqs), count


def run_markov_experiment(exp: MarkovExperiment) -> MarkovResult:
    """Estimate the distance between the normalized output and uniform, and
    compute it exactly within the guards n <= 26 and k + m + 1 <= 26."""
    source = random_markov_source(exp.k, exp.kappa, exp.p0, exp.seed)
    uniform = uniform_dist(exp.m)

    exact = exp.n <= MAX_ENUM_N and exp.k + exp.m + 1 <= MAX_ENUM_N
    tv_exact = (total_variation(normalized_dist(source, exp.n, exp.m), uniform)
                if exact else None)

    bits = _sample_trials(source, exp.n, exp.samples, exp.seed)
    table, accepted = _empirical_normalized_dist(bits, exp.m)
    tv_emp = math.nan if table is None else total_variation(table, uniform)

    return MarkovResult(k=exp.k, kappa=exp.kappa, m=exp.m, n=exp.n,
                        tv_exact=tv_exact, tv_empirical=tv_emp,
                        accepted=accepted, samples=exp.samples, seed=exp.seed)


def write_markov_csv(results, file) -> None:
    """CSV rows ``k,kappa,m,n,tv_exact,tv_empirical,samples,seed``."""
    rows = [(r.k, r.kappa, r.m, r.n, "" if r.tv_exact is None else repr(r.tv_exact),
             r.tv_empirical, r.samples, r.seed) for r in results]
    _write_rows(file, "k,kappa,m,n,tv_exact,tv_empirical,samples,seed\r\n",
                [("%s,%r,%s,%s,%s,%r,%s,%s\r\n", list(zip(*rows)), 0)])
