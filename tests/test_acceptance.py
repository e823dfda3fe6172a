"""End-to-end acceptance suite.

One test per criterion.  Each prints a single ``PASS <id> ...`` line on
success (run with ``pytest -s`` to see the checklist), and carries its
tolerance inline.  A05-strict is a documented expected failure: the literal
strict-monotonicity claim for the sign-pattern deviation sum has exact
counterexamples (see the flat-region tests in test_bounds.py); its weak form
is verified here instead.
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.integrate import quad

from bound_oracles import (binom_tv_halfsum, product_deviation_sum,
                           reg_inc_beta_via_binomial, u_max_oracle)
from debias import (BitString, ConstantSource, DriftParams, DriftingSource,
                    PairwiseSource, alpha_max, binom_tv, borel_counts,
                    calibrate_alpha, check_independence, crossing_index,
                    delete_symbol, empirical_block_dist, exact_source_dist,
                    linear_alpha_for_rho, linear_bound, normalized_dist,
                    peres_normalize, reg_inc_beta, sample, sample_symbols,
                    symbol_block_counts, total_variation, tv_bound_exact,
                    tv_bound_naive, uniform_dist, vn_normalize,
                    worst_case_product_dist)
from debias.bounds import _log_pmf
from debias.stats import sweep, write_sweep_csv


def ok(line):
    print(f"PASS {line}")


def test_a01_constant_bias_normalizes_to_uniform():
    t0 = time.perf_counter()
    worst = 0.0
    for p0 in (0.5, 0.6, 0.75, 0.9):
        for n in (4, 8, 12, 16):
            m = n // 2
            tv = total_variation(normalized_dist(ConstantSource(p0), n, m),
                                 uniform_dist(m))
            worst = max(worst, tv)
            assert tv <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(f"a01 constant-bias uniformity: worst TV {worst:.2e} <= 1e-12 "
       f"({elapsed:.2f}s)")


def test_a02_symmetric_pair_products_normalize_to_uniform():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial, m in enumerate((2, 3, 4, 5, 6)):
        dists = []
        for _ in range(m):
            r = rng.uniform(0.05, 0.45)
            split = rng.uniform(0.0, 1.0)
            rest = 1.0 - 2.0 * r
            dists.append({"00": rest * split, "01": r, "10": r,
                          "11": rest * (1.0 - split)})
        n = 2 * m
        assert n <= 12
        tv = total_variation(normalized_dist(PairwiseSource(dists), n, m),
                             uniform_dist(m))
        worst = max(worst, tv)
        assert tv <= 1e-12
    ok(f"a02 symmetric-pair uniformity: 5 sources, worst TV {worst:.2e} <= 1e-12")


def test_a03_single_pair_reference_values_and_verdicts():
    sym = PairwiseSource([{"00": 0.0, "01": 1 / 3, "10": 1 / 3, "11": 1 / 3}])
    asym = PairwiseSource([{"00": 0.0, "01": 1 / 3, "10": 2 / 3, "11": 0.0}])
    t = normalized_dist(sym, 2, 1)
    assert abs(t.prob("0") - 0.5) <= 1e-15
    assert abs(t.prob("1") - 0.5) <= 1e-15
    t = normalized_dist(asym, 2, 1)
    assert abs(t.prob("0") - 1 / 3) <= 1e-15
    assert abs(t.prob("1") - 2 / 3) <= 1e-15
    # recorded, not asserted: the prefix-factorization checker's verdicts
    verdict_sym = check_independence(exact_source_dist(sym, 2))
    verdict_asym = check_independence(exact_source_dist(asym, 2))
    ok("a03 single-pair reference values exact; factorization verdicts: "
       f"symmetric -> {verdict_sym}; asymmetric -> {verdict_asym}")


def test_a04_half_sum_equals_subset_maximum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    from debias import DistributionTable
    for m in (1, 2, 3):
        size = 1 << m
        masks = (np.arange(1 << size)[:, None] >> np.arange(size)[None, :]) & 1
        for _ in range(20):
            p = rng.dirichlet(np.ones(size))
            q = rng.dirichlet(np.ones(size))
            half_sum = total_variation(DistributionTable(m, p),
                                       DistributionTable(m, q))
            subset_max = float(np.abs(masks @ (p - q)).max())
            assert abs(half_sum - subset_max) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    ok(f"a04 half-sum == max over all events (m<=3, 20 pairs each) ({elapsed:.2f}s)")


def _bump_probe(rng):
    n = int(rng.integers(1, 9))
    c = rng.uniform(0.0, 0.95, n)
    j = int(rng.integers(0, n))
    bumped = c.copy()
    bumped[j] = min(0.99, c[j] + rng.uniform(0.001, 0.99 - c[j]))
    return c, bumped


def test_a05_deviation_sum_monotone_and_flip_invariant():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        c, bumped = _bump_probe(rng)
        assert product_deviation_sum(bumped) >= product_deviation_sum(c) - 1e-12
        signs = rng.choice([-1.0, 1.0], len(c))
        assert product_deviation_sum(c * signs) == product_deviation_sum(c)
    ok("a05 deviation sum: 1000 weak-monotonicity probes pass; sign-flip "
       "invariance exact (strict form is a known expected failure)")


@pytest.mark.xfail(strict=True,
                   reason="strict increase in every single coordinate is false: "
                          "the sum is exactly flat in a small coordinate when "
                          "another dominates (see decisions ledger)")
def test_a05_deviation_sum_strictly_increasing_as_stated():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        c, bumped = _bump_probe(rng)
        assert product_deviation_sum(bumped) > product_deviation_sum(c)


def test_a06_grid_oracle_locates_worst_corner():
    t0 = time.perf_counter()
    configs = [
        (0.50, 0.10, 0.0100), (0.45, 0.05, 0.0020), (0.40, 0.10, 0.0200),
        (0.30, 0.20, 0.0100), (0.48, 0.02, 0.0010),
        (0.55, 0.05, 0.0020), (0.60, 0.05, 0.0100), (0.70, 0.10, 0.0200),
        (0.80, 0.15, 0.0050), (0.90, 0.05, 0.0020),
    ]
    h = 1e-4
    for p0, beta, delta in configs:
        eps, gam, val = u_max_oracle(p0, beta, delta, h)
        target = alpha_max(p0, beta, delta)
        assert abs(val - target) <= 1e-3
        if p0 <= 0.5:
            corners = [(beta, -delta), (beta - delta, delta)]
        else:
            corners = [(-beta, delta), (-beta + delta, -delta)]
        if p0 == 0.5:
            corners += [(-e, -g) for e, g in corners]
        hit = min(max(abs(eps - e), abs(gam - g)) for e, g in corners)
        assert hit <= h + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(f"a06 grid oracle matches closed-form worst case on 10 configs, "
       f"maximizer on the stated corner ({elapsed:.2f}s)")


def test_a07_binomial_tv_three_forms_agree():
    for n in (1, 2, 10, 50, 200):
        for p in (0.3, 0.5, 0.7):
            for x in (0.01, 0.05, 0.1):
                beta_form = binom_tv(n, p, x)
                half_sum = binom_tv_halfsum(n, p, x)
                assert abs(beta_form - half_sum) <= 1e-9
                ell = crossing_index(n, p, x)
                assert math.ceil(n * p) <= ell <= math.ceil(n * (p + x))
                integral = n * quad(
                    lambda u: math.exp(_log_pmf(n - 1, ell - 1, u)),
                    p, p + x, epsabs=1e-12, epsrel=1e-12)[0]
                assert abs(beta_form - integral) <= 1e-7
    ok("a07 binomial TV: beta form vs half-sum <= 1e-9, vs quadrature <= 1e-7, "
       "crossing index sandwiched, on the full 45-point grid")


def test_a08_worst_case_product_matches_binomial_bound():
    worst = 0.0
    for m in range(1, 17):
        for alpha in (0.01, 0.1, 0.2):
            want = tv_bound_exact(m, alpha)
            for sign in (1, -1):
                got = total_variation(worst_case_product_dist(alpha, m, sign),
                                      uniform_dist(m))
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-10
    ok(f"a08 worst-case product measure distance == binomial TV bound "
       f"(m<=16, both signs, max gap {worst:.2e})")


def test_a09_bound_ordering_and_curve_family(tmp_path):
    t0 = time.perf_counter()
    ms = [100, 1000, 10000, 1000000]
    alphas = np.logspace(-6, math.log10(0.5), 25)
    curves = {}
    for m in ms:
        vals = []
        for a in alphas:
            exact = tv_bound_exact(m, float(a))
            assert exact <= 1.0 + 1e-12
            assert exact <= tv_bound_naive(m, float(a)) + 1e-12
            assert exact <= linear_bound(m, float(a)) + 1e-12
            vals.append(exact)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        curves[m] = vals
    for m_small, m_big in zip(ms, ms[1:]):
        assert all(hi >= lo - 1e-12
                   for lo, hi in zip(curves[m_small], curves[m_big]))
    out = tmp_path / "sweep.csv"
    write_sweep_csv(sweep(ms, alphas), out)
    assert out.stat().st_size > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(f"a09 bound ordering/curve family over 4 m-values x 25 alphas; sweep CSV "
       f"emitted ({elapsed:.2f}s)")


def test_a10_spot_values():
    v = linear_alpha_for_rho(10**6, 0.01)
    assert abs(v - 2.5066e-5) <= 1e-9
    c = calibrate_alpha(2, 0.11)
    assert abs(c - 0.2) <= 1e-8
    ok(f"a10 spot values: linear inverse {v:.6e}, calibrated alpha {c:.10f}")


def test_a11_incomplete_beta_identities_and_paths():
    xs = np.linspace(0.005, 0.995, 100)
    for b in (1, 2, 5, 17):
        for x in xs:
            assert abs(reg_inc_beta(x, 1, b) - (1 - (1 - x) ** b)) <= 1e-12
            assert abs(reg_inc_beta(x, b, 1) - x ** b) <= 1e-12
    rng = np.random.default_rng(111)
    for _ in range(100):
        a = rng.uniform(0.3, 300)
        b = rng.uniform(0.3, 300)
        x = rng.uniform(0.005, 0.995)
        assert abs(reg_inc_beta(x, a, b) - (1 - reg_inc_beta(1 - x, b, a))) <= 1e-12
    worst = 0.0
    cases = [
        ((5, 5), (0.3, 0.5, 0.500001, 0.7)),
        ((50, 50), (0.3, 0.5, 0.500001, 0.7)),
        ((500, 500), (0.3, 0.5, 0.500001, 0.7)),
        ((5000, 5000), (0.45, 0.5, 0.500001, 0.52)),
        ((50000, 50000), (0.49, 0.5, 0.500001, 0.503)),
        ((500000, 500000), (0.499, 0.5, 0.500001, 0.501)),
        ((1000, 999000), (0.0005, 0.001, 0.002)),
        ((999000, 1000), (0.998, 0.999, 0.9995)),
    ]
    for (a, b), points in cases:
        for x in points:
            gap = abs(reg_inc_beta(x, a, b) - reg_inc_beta_via_binomial(x, a, b))
            worst = max(worst, gap)
            assert gap <= 1e-10
    ok(f"a11 incomplete beta: closed forms and symmetry <= 1e-12; integer path "
       f"vs continued fraction <= 1e-10 up to a+b = 1e6 (worst {worst:.2e})")


def test_a12_drifting_walk_statistics():
    t0 = time.perf_counter()
    spec = DriftingSource(DriftParams(0.55, 0.05, 1e-4), trajectory="walk")
    bits, trace = sample(spec, 10**6, seed=1202)
    out = vn_normalize(bits)
    n_out = len(out)
    freq = out.count(1) / n_out
    sigma_bit = 1.0 / (2.0 * math.sqrt(n_out))
    assert abs(freq - 0.5) <= 4 * sigma_bit
    emp = empirical_block_dist(out, 2)
    tv = total_variation(emp, uniform_dist(2))
    bound = tv_bound_exact(2, alpha_max(0.55, 0.05, 1e-4))
    blocks = n_out // 2
    sigma_tv = 0.5 * sum(math.sqrt(0.25 * 0.75 / blocks) for _ in range(4))
    assert tv <= bound + 4 * sigma_tv
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    ok(f"a12 drifting-walk stream: ones freq {freq:.5f} within 4 sigma of 1/2; "
       f"2-block TV {tv:.2e} <= bound {bound:.2e} + slack ({elapsed:.2f}s)")


def test_a13_iterated_extractor():
    for n in range(0, 15):
        for v in range(1 << n):
            x = BitString.from_int(v, n)
            assert len(peres_normalize(x)) >= len(vn_normalize(x))
    worst = 0.0
    for p0 in (0.5, 0.7):
        for n in (4, 6, 8):
            probs = exact_source_dist(ConstantSource(p0), n).probs
            by_len = defaultdict(lambda: defaultdict(float))
            for v in range(1 << n):
                y = peres_normalize(BitString.from_int(v, n))
                by_len[len(y)][y.to_int()] += probs[v]
            for length, group in by_len.items():
                if length == 0:
                    continue
                mass = sum(group.values())
                for val in range(1 << length):
                    dev = abs(group.get(val, 0.0) / mass - 0.5 ** length)
                    worst = max(worst, dev)
                    assert dev <= 1e-12
    ok(f"a13 iterated extractor: dominance exhaustive n<=14; output uniform "
       f"given its length (worst dev {worst:.2e})")


def test_a14_block_frequencies_after_normalization():
    t0 = time.perf_counter()
    bits, _ = sample(ConstantSource(0.7), 10**7, seed=1414)
    out = vn_normalize(bits)
    worst = 0.0
    for m in (1, 2, 3):
        report = borel_counts(out, m, "non-overlapping")
        worst = max(worst, report.max_abs_deviation)
        assert report.max_abs_deviation <= 4.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(f"a14 block frequencies of normalized 10^7-bit stream within 4 sigma "
       f"for m<=3 (worst {worst:.2f} sigma, {elapsed:.2f}s)")


def test_a15_symbol_deletion_preserves_renormalized_measure():
    probs = (0.5, 0.3, 0.2)
    x = sample_symbols(probs, 10**6, seed=1515)
    y = delete_symbol(x, 2)
    n = len(y)
    renorm = [p / (1.0 - probs[2]) for p in probs[:2]]
    singles = symbol_block_counts(y, 1)
    for i, p in enumerate(renorm):
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(singles[i] - n * p) <= 4 * sigma
    blocks = symbol_block_counts(y, 2)
    k = n // 2
    for i in range(2):
        for j in range(2):
            q = renorm[i] * renorm[j]
            sigma = math.sqrt(k * q * (1 - q))
            assert abs(blocks[i * 3 + j] - k * q) <= 4 * sigma
    ok("a15 symbol deletion: single and 2-block frequencies match the "
       "renormalized product measure within 4 sigma")
