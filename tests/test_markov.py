import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from debias import (DistributionTable, MarkovExperiment, MarkovSource, ValidationError,
                    exact_source_dist, normalized_dist, random_markov_source,
                    run_markov_experiment, total_variation, uniform_dist,
                    write_markov_csv)
from debias.bits import format_bits
from debias.exactdist import _exact_excess
from debias.markov import MarkovResult, _kept_codes
from string_oracles import markov_csv


def _output_counts(source, n, m, trials, seed):
    """Count of each m-bit output over the runs that give exactly m bits:
    the dense table of the sampler's kept codes."""
    return np.bincount(_kept_codes(source, n, m, trials, seed), minlength=1 << m)


def matrix_trials(source, n, trials, seed):
    """The (trials, n) bit matrix route, as an oracle: every column drawn and
    stored; each row an independent run from an empty history."""
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


def matrix_codes(bits, m):
    """The MSB-first values of the row-wise von Neumann outputs of length
    exactly m; an odd last column is dropped, as it is never paired."""
    bits = bits[:, :bits.shape[1] // 2 * 2]
    a = bits[:, 0::2]
    keep = a != bits[:, 1::2]
    accepted = keep.sum(axis=1) == m
    kept = a[accepted][keep[accepted]].reshape(-1, m)
    return kept @ (1 << np.arange(m - 1, -1, -1))


def matrix_dist(bits, m):
    """Frequency table of :func:`matrix_codes` and their number."""
    vals = matrix_codes(bits, m)
    count = len(vals)
    if count == 0:
        return None, 0
    return DistributionTable(m, np.bincount(vals, minlength=1 << m) / count), count


def scalar_markov_source_table(k, kappa, p0, seed):
    """random_markov_source's table by one draw per history, as an oracle."""
    rng = np.random.default_rng([seed, 0])
    lo = max(p0 - kappa, 1e-12)
    hi = min(p0 + kappa, 1.0 - 1e-12)
    return {format(h, f"0{k}b") if k else "": float(rng.uniform(lo, hi)) if kappa > 0 else p0
            for h in range(1 << k)}


def test_random_source_respects_band():
    src = random_markov_source(k=2, kappa=0.04, p0=0.55, seed=7)
    assert src.k == 2 and len(src.table) == 4
    assert all(abs(p - 0.55) <= 0.04 for p in src.table.values())
    assert random_markov_source(2, 0.04, 0.55, 7).table == src.table


def test_random_source_matches_scalar_draws():
    for k in range(11):
        for kappa in (0.0, 0.01, 0.3, 0.7):
            for p0 in (0.5, 0.2, 0.95):
                for seed in (1, 2):
                    src = random_markov_source(k, kappa, p0, seed)
                    assert src.table == scalar_markov_source_table(k, kappa, p0, seed)


def test_kappa_zero_reduces_to_constant():
    exp = MarkovExperiment(k=3, kappa=0.0, m=2, n=12, samples=4000, seed=5, p0=0.6)
    res = run_markov_experiment(exp)
    assert res.tv_exact is not None and res.tv_exact <= 1e-12
    src = random_markov_source(3, 0.0, 0.6, 5)
    assert set(src.table.values()) == {0.6}


def test_k_zero_matches_constant_distribution():
    from debias import ConstantSource
    src = random_markov_source(0, 0.0, 0.7, 3)
    t = exact_source_dist(src, 6)
    c = exact_source_dist(ConstantSource(0.7), 6)
    assert np.allclose(t.probs, c.probs, atol=1e-15)


def test_experiment_validation():
    for n, m in ((8, 5), (4, 3), (5, 3), (4, 27)):
        with pytest.raises(ValidationError, match=rf"^m = {m} exceeds n // 2 = {n // 2}$"):
            MarkovExperiment(k=1, kappa=0.1, m=m, n=n, samples=100, seed=1)
    # a trial needs a pair: n = 0 and 1 are refused before m is read
    for n in (0, 1):
        with pytest.raises(ValidationError, match=rf"^n must be an integer >= 2, got {n}$"):
            MarkovExperiment(k=1, kappa=0.1, m=1, n=n, samples=100, seed=1)
    with pytest.raises(ValidationError):
        MarkovExperiment(k=1, kappa=0.1, m=2, n=8, samples=0, seed=1)
    for k in (-1, 17):
        with pytest.raises(ValidationError, match="MAX_MARKOV_K = 16"):
            MarkovExperiment(k=k, kappa=0.1, m=2, n=8, samples=100, seed=1)
    # the sampler's arrays and its run time are bounded before anything is drawn
    with pytest.raises(ValidationError,
                       match=r"samples = 1000001 exceeds MAX_MARKOV_SAMPLES = 1000000"):
        MarkovExperiment(k=1, kappa=0.1, m=2, n=8, samples=10 ** 6 + 1, seed=1)
    with pytest.raises(ValidationError,
                       match=r"n \* samples = 1001000000 exceeds MAX_MARKOV_WORK = 1000000000"):
        MarkovExperiment(k=1, kappa=0.1, m=2, n=1001, samples=10 ** 6, seed=1)
    MarkovExperiment(k=1, kappa=0.1, m=2, n=1000, samples=10 ** 6, seed=1)


def test_output_length_guard_before_sampling():
    # m above 26 is refused when the experiment is built, before a 2^m-entry
    # table is asked for (m = 64 would also overflow the MSB-first shifts)
    tracemalloc.start()
    try:
        for m in (27, 40, 64):
            with pytest.raises(ValidationError, match="m = %d exceeds the enumeration guard 26" % m):
                MarkovExperiment(k=1, kappa=0.1, m=m, n=2 * m + 1, samples=10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    MarkovExperiment(k=1, kappa=0.1, m=26, n=52, samples=1, seed=1)


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_one_pass_matches_matrix_oracle(k, m):
    for n, trials, p0 in ((2 * m + 6, 3000, 0.5), (2 * m + 7, 3000, 0.5),
                          (2 * m, 2000, 0.5), (2 * m + 1, 50, 0.999)):
        seed = 100 * k + 10 * m + n
        exp = MarkovExperiment(k=k, kappa=0.05 * (k % 2 + 1), m=m, n=n, samples=trials,
                               seed=seed, p0=p0 if k else 0.5)
        source = random_markov_source(exp.k, exp.kappa, exp.p0, seed)
        want, count = matrix_dist(matrix_trials(source, n, trials, seed), m)
        counts = _output_counts(source, n, m, trials, seed)
        res = run_markov_experiment(exp)
        assert res.accepted == count == counts.sum()
        if count == 0:
            assert math.isnan(res.tv_empirical)
            continue
        assert np.array_equal(counts / count, want.probs)
        # summed over the codes seen, not over all 2^m cells as the oracle
        assert res.tv_empirical == pytest.approx(total_variation(want, uniform_dist(m)),
                                                 rel=0, abs=1e-12)


@pytest.mark.parametrize("n", [60, 61])
def test_one_pass_matches_matrix_oracle_at_dtype_edges(n):
    # k = 16 wraps the 2-byte history on every shift, and m = 26 fills the
    # widest code; after its first k bits, drawn at p0, the source flips its
    # last bit with probability 0.98, so many runs keep exactly 26 pairs
    k, m, trials, seed = 16, 26, 3000, 7
    table = {format_bits(h, k): 0.98 if h & 1 else 0.02 for h in range(1 << k)}
    source = MarkovSource(k=k, kappa=0.48, p0=0.5, table=table)
    codes, want = np.unique(matrix_codes(matrix_trials(source, n, trials, seed), m),
                            return_counts=True)
    counts = _output_counts(source, n, m, trials, seed)
    got = np.flatnonzero(counts)
    assert len(codes) > trials // 10
    assert np.array_equal(got, codes) and np.array_equal(counts[got], want)


def test_odd_n_drops_its_last_bit():
    for k, m in ((0, 2), (1, 2), (3, 4)):
        even = MarkovExperiment(k=k, kappa=0.05, m=m, n=16, samples=4000, seed=9)
        r16 = run_markov_experiment(even)
        r17 = run_markov_experiment(dataclasses.replace(even, n=17))
        assert r17.n == 17 and r16.tv_exact is not None
        assert dataclasses.replace(r17, n=16) == r16


def test_memory_is_independent_of_n():
    # a trials x n uint8 matrix would take 19 MiB here; a source near
    # p0 = 1 keeps about 8 of its 2000 pairs, so many runs are counted
    exp = MarkovExperiment(k=3, kappa=5e-4, m=8, n=4000, samples=5000, seed=4, p0=0.998)
    tracemalloc.start()
    try:
        res = run_markov_experiment(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the exact column's forward pass, 2000 pairs past the old n <= 26
    # limit, streams its pair masses and adds about 0.1 MiB
    assert res.tv_exact is not None and res.accepted > 0
    assert peak < 1 << 20


def test_explorer_reports_both_tv():
    exp = MarkovExperiment(k=1, kappa=0.05, m=2, n=16, samples=30000, seed=11)
    res = run_markov_experiment(exp)
    assert res.tv_exact is not None
    assert 0.0 <= res.tv_exact <= 1.0
    assert res.accepted > 0
    assert not math.isnan(res.tv_empirical)
    # same seed, same numbers
    again = run_markov_experiment(exp)
    assert again.tv_exact == res.tv_exact
    assert again.tv_empirical == res.tv_empirical


def test_empirical_converges_to_exact():
    exp = MarkovExperiment(k=1, kappa=0.05, m=2, n=16, samples=60000, seed=23)
    res = run_markov_experiment(exp)
    src = random_markov_source(1, 0.05, 0.5, 23)
    exact = normalized_dist(src, 16, 2)
    assert res.tv_exact == pytest.approx(total_variation(exact, uniform_dist(2)))
    # TV(emp, U) differs from TV(exact, U) by at most TV(emp, exact), whose
    # sampling scale is half the summed per-cell sigmas
    sigma = 0.5 * sum(math.sqrt(q * (1 - q) / res.accepted) for q in exact.probs)
    assert abs(res.tv_empirical - res.tv_exact) <= 4 * sigma


def test_exact_skipped_beyond_guard():
    # n = 30, past the old n <= 26 limit, now has its exact column
    exp = MarkovExperiment(k=1, kappa=0.02, m=2, n=30, samples=2000, seed=2)
    res = run_markov_experiment(exp)
    exact = normalized_dist(random_markov_source(1, 0.02, 0.5, 2), 30, 2)
    assert res.tv_exact == total_variation(exact, uniform_dist(2))
    assert not math.isnan(res.tv_empirical)
    # far past the state of MAX_EXACT_STATE = 2^20 floats
    exp = MarkovExperiment(k=13, kappa=0.02, m=13, n=26, samples=200, seed=2)
    assert run_markov_experiment(exp).tv_exact is None
    # at and past that state: 2^(10 + 9 + 1) floats, then 2^21
    at = MarkovExperiment(k=10, kappa=0.02, m=9, n=26, samples=200, seed=2)
    assert run_markov_experiment(at).tv_exact is not None
    assert run_markov_experiment(dataclasses.replace(at, m=10)).tv_exact is None
    # at and past MAX_EXACT_WORK = 2^28: 256 pairs of 2^20 floats, then 257.
    # A pass at the limit takes seconds, so the edge itself is read from
    # the predicate that the explorer asks
    assert _exact_excess(3, 512, 16) == ""
    past = MarkovExperiment(k=3, kappa=0.02, m=16, n=514, samples=200, seed=2)
    assert run_markov_experiment(past).tv_exact is None


def test_markov_csv():
    exp = MarkovExperiment(k=1, kappa=0.05, m=2, n=12, samples=4000, seed=3)
    res = run_markov_experiment(exp)
    buf = io.StringIO()
    write_markov_csv([res], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,kappa,m,n,tv_exact,tv_empirical,samples,seed"
    assert lines[1].startswith("1,0.05,2,12,")


def test_markov_csv_matches_csv_writer_oracle(monkeypatch, tmp_path):
    # seven results cross 2-row chunk seams (1000 bytes of 393-byte padded
    # rows); a None tv_exact is an empty field and a NaN tv_empirical (no
    # accepted trial) prints as nan
    monkeypatch.setattr("debias.bits._CHUNK", 1000)
    results = [MarkovResult(k=i % 3, kappa=0.05 * i, m=2, n=10 + i,
                            tv_exact=None if i % 2 else 0.01 / (i + 1),
                            tv_empirical=math.nan if i == 3 else 0.1 / (i + 1),
                            accepted=0 if i == 3 else i, samples=100 * i + 1, seed=i)
               for i in range(7)]
    write_markov_csv(results, tmp_path / "markov.csv")
    assert (tmp_path / "markov.csv").read_bytes() == markov_csv(results).encode()
    buf = io.StringIO()
    write_markov_csv([], buf)
    assert buf.getvalue() == markov_csv([])
