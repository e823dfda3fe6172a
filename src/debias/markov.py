"""Exploratory harness for bounded-memory sources.

How close does the von Neumann output of a source whose per-bit probability
depends on the previous k bits (within a kappa band around the base marginal)
get to uniform?  No closed form is known, so results are *reported*, never
asserted against a target: the harness draws a kappa-banded conditional table
from the experiment seed, estimates the distance from independent n-bit runs
(one pass over the columns, memory O(samples) for any n, odd n included,
m <= 26), and computes the exact conditional distribution from the source's
pair masses whenever n <= 26 and k + m + 1 <= 26.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import _write_rows, format_bits
from .errors import _integer
from .exactdist import (DistributionTable, _enumerable, normalized_dist, total_variation,
                        uniform_dist)
from .params import _check_enum_guard
from .sources import MarkovSource, check_markov_k

# the sampler keeps a few 2- and 4-byte arrays of one entry per trial, and its
# run time grows with n * samples: about 1.4 s and 82 MiB at n = 100, 10^6 trials
MAX_MARKOV_SAMPLES = 10 ** 6
MAX_MARKOV_WORK = 10 ** 9


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
        samples = _integer("samples", self.samples, 1, MAX_MARKOV_SAMPLES,
                           f"MAX_MARKOV_SAMPLES = {MAX_MARKOV_SAMPLES}")
        _integer("seed", self.seed, 0)
        n = _integer("n", self.n, 2)
        _integer("n * samples", n * samples, 1, MAX_MARKOV_WORK,
                 f"MAX_MARKOV_WORK = {MAX_MARKOV_WORK}")
        _integer("m", self.m, 1, n // 2, f"n // 2 = {n // 2}")
        _check_enum_guard(self.m, "m")  # the 2^m-entry frequency table


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
    k = check_markov_k(k)  # before the 2^k-entry table
    rng = np.random.default_rng([_integer("seed", seed, 0), 0])
    lo = max(p0 - kappa, 1e-12)
    hi = min(p0 + kappa, 1.0 - 1e-12)
    probs = rng.uniform(lo, hi, 1 << k).tolist() if kappa > 0 else [p0] * (1 << k)
    table = {format_bits(h, k): p for h, p in enumerate(probs)}
    return MarkovSource(k=k, kappa=kappa, p0=p0, table=table)


def _output_counts(source: MarkovSource, n: int, m: int, trials: int,
                   seed: int) -> np.ndarray:
    """Count of each m-bit von Neumann output over the n-bit runs that give
    exactly m bits.  Each run starts with an empty history (the first k bits
    use p0) and keeps only its history, its open pair's first bit, its count
    of kept pairs and its last m kept bits.  An odd last bit is never drawn."""
    rng = np.random.default_rng([seed, 1])
    cond = source.cond_zero_probs()
    mask, code_mask = (1 << source.k) - 1, (1 << m) - 1
    # k <= MAX_MARKOV_K = 16 and m <= 26, and kept <= n/2 <= MAX_MARKOV_WORK/2
    hist = np.zeros(trials, dtype=np.uint16)
    kept, code = np.zeros((2, trials), dtype=np.uint32)
    for i in range(n - n % 2):
        pz = source.p0 if i < source.k else cond[hist]
        bit = (rng.random(trials) >= pz).view(np.uint8)
        hist = ((hist << np.uint16(1)) | bit) & mask
        if i % 2 == 0:
            first = bit
        else:
            unequal = first ^ bit  # 1 where the pair is kept
            kept += unequal
            code = ((code << unequal) | (first & unequal)) & code_mask
    return np.bincount(code[kept == m], minlength=1 << m)


def run_markov_experiment(exp: MarkovExperiment) -> MarkovResult:
    """Estimate the distance between the normalized output and uniform, and
    compute it exactly within the guards n <= 26 and k + m + 1 <= 26."""
    source = random_markov_source(exp.k, exp.kappa, exp.p0, exp.seed)
    uniform = uniform_dist(exp.m)

    tv_exact = (total_variation(normalized_dist(source, exp.n, exp.m), uniform)
                if _enumerable(exp.n, exp.k, exp.m) else None)

    counts = _output_counts(source, exp.n, exp.m, exp.samples, exp.seed)
    accepted = int(counts.sum())
    tv_emp = (total_variation(DistributionTable(exp.m, counts / accepted), uniform)
              if accepted else math.nan)

    return MarkovResult(k=exp.k, kappa=exp.kappa, m=exp.m, n=exp.n,
                        tv_exact=tv_exact, tv_empirical=tv_emp,
                        accepted=accepted, samples=exp.samples, seed=exp.seed)


def write_markov_csv(results, file) -> None:
    """CSV rows ``k,kappa,m,n,tv_exact,tv_empirical,samples,seed``."""
    rows = [(r.k, r.kappa, r.m, r.n, "" if r.tv_exact is None else repr(r.tv_exact),
             r.tv_empirical, r.samples, r.seed) for r in results]
    _write_rows(file, "k,kappa,m,n,tv_exact,tv_empirical,samples,seed\r\n",
                [("%s,%r,%s,%s,%s,%r,%s,%s\r\n", list(zip(*rows)), 0)])
