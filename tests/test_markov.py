import io
import math

import numpy as np
import pytest

from debias import (MarkovExperiment, ValidationError, exact_source_dist,
                    normalized_dist, random_markov_source,
                    run_markov_experiment, total_variation, uniform_dist,
                    write_markov_csv)
from debias.markov import MarkovResult
from string_oracles import markov_csv


def test_random_source_respects_band():
    src = random_markov_source(k=2, kappa=0.04, p0=0.55, seed=7)
    assert src.k == 2 and len(src.table) == 4
    assert all(abs(p - 0.55) <= 0.04 for p in src.table.values())
    assert random_markov_source(2, 0.04, 0.55, 7).table == src.table


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
    with pytest.raises(ValidationError):
        MarkovExperiment(k=1, kappa=0.1, m=5, n=8, samples=100, seed=1)
    with pytest.raises(ValidationError):
        MarkovExperiment(k=1, kappa=0.1, m=2, n=8, samples=0, seed=1)
    for k in (-1, 17):
        with pytest.raises(ValidationError, match="MAX_MARKOV_K = 16"):
            MarkovExperiment(k=k, kappa=0.1, m=2, n=8, samples=100, seed=1)


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
    exp = MarkovExperiment(k=1, kappa=0.02, m=2, n=30, samples=2000, seed=2)
    res = run_markov_experiment(exp)
    assert res.tv_exact is None
    assert not math.isnan(res.tv_empirical)
    # within n <= 26 but beyond the state guard k + m + 1 <= 26
    exp = MarkovExperiment(k=13, kappa=0.02, m=13, n=26, samples=200, seed=2)
    assert run_markov_experiment(exp).tv_exact is None


def test_markov_csv():
    exp = MarkovExperiment(k=1, kappa=0.05, m=2, n=12, samples=4000, seed=3)
    res = run_markov_experiment(exp)
    buf = io.StringIO()
    write_markov_csv([res], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,kappa,m,n,tv_exact,tv_empirical,samples,seed"
    assert lines[1].startswith("1,0.05,2,12,")


def test_markov_csv_matches_csv_writer_oracle(monkeypatch, tmp_path):
    # seven results cross a 5-row chunk seam; a None tv_exact is an empty
    # field and a NaN tv_empirical (no accepted trial) prints as nan
    monkeypatch.setattr("debias.bits._ROWS", 5)
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
