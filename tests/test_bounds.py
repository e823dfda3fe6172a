import math
import re

import numpy as np
import pytest
from scipy.special import betainc as scipy_betainc

from bound_oracles import (BinomialSpec, _log_pmf_many, betacf_int_counts, binom_cdf,
                           binom_pmf, binom_tv_halfsum, calibrate_alpha_bisection,
                           product_deviation_sum, reg_inc_beta_via_binomial,
                           u_max_oracle)
from debias import (ConvergenceError, ValidationError, alpha_max,
                    binom_tv, calibrate_alpha, calibrate_delta,
                    crossing_index, linear_alpha_for_rho, linear_bound,
                    naive_alpha_for_rho, reg_inc_beta, tv_bound_exact,
                    tv_bound_naive, u_value)
from debias import bounds
from debias.bounds import _log_pmf, _tv_slope
from debias.stats import sweep


def test_u_value_examples():
    assert u_value(0.5, 0.0, 0.0) == 0.0
    assert u_value(0.5, 0.1, -0.01) == pytest.approx(0.01 / 0.482, rel=1e-12)
    assert u_value(0.5, 0.09, 0.01) == pytest.approx(u_value(0.5, 0.1, -0.01), rel=1e-12)


def test_u_value_shift_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p0 = rng.uniform(0.2, 0.8)
        eps = rng.uniform(-0.1, 0.1)
        gam = rng.uniform(-0.05, 0.05)
        try:
            lhs = u_value(p0, eps, gam)
            rhs = u_value(p0, eps + gam, -gam)
        except ValidationError:
            continue
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_u_value_validation():
    with pytest.raises(ValidationError):
        u_value(0.5, 0.6, 0.0)  # p0 - eps < 0


def test_alpha_max_examples():
    assert alpha_max(0.5, 0.1, 0.01) == pytest.approx(0.0207468879668, rel=1e-9)
    assert alpha_max(0.6, 0.05, 0.01) == pytest.approx(0.01 / 0.458, rel=1e-12)
    assert alpha_max(0.5, 0.1, 0.0) == 0.0
    with pytest.raises(ValidationError):
        alpha_max(0.5, 0.6, 0.01)


def test_alpha_max_attained_at_corner():
    for p0, beta, delta in [(0.5, 0.1, 0.01), (0.45, 0.08, 0.004),
                            (0.7, 0.1, 0.02), (0.62, 0.02, 0.015)]:
        if p0 <= 0.5:
            corner = u_value(p0, beta, -delta)
            twin = u_value(p0, beta - delta, delta)
        else:
            corner = u_value(p0, -beta, delta)
            twin = u_value(p0, -beta + delta, -delta)
        am = alpha_max(p0, beta, delta)
        assert am == pytest.approx(corner, rel=1e-12)
        assert am == pytest.approx(twin, rel=1e-12)


def test_u_max_oracle_small_grids():
    eps, gam, val = u_max_oracle(0.5, 0.1, 0.01, h=1e-3)
    assert val == pytest.approx(alpha_max(0.5, 0.1, 0.01), abs=1e-6)
    assert abs(abs(eps) - 0.1) <= 0.012  # at or next to the amplitude cap
    assert abs(gam) == pytest.approx(0.01, abs=1e-9)
    eps, gam, val = u_max_oracle(0.7, 0.1, 0.02, h=1e-3)
    assert val == pytest.approx(alpha_max(0.7, 0.1, 0.02), abs=1e-5)
    assert eps < 0 < gam
    _, _, val = u_max_oracle(0.6, 0.05, 0.0, h=1e-3)
    assert val == 0.0


def test_binom_pmf_cdf_examples():
    assert binom_pmf(BinomialSpec(2, 0.5), 1) == pytest.approx(0.5, rel=1e-14)
    assert binom_pmf(BinomialSpec(2, 0.6), 2) == pytest.approx(0.36, rel=1e-14)
    assert binom_cdf(BinomialSpec(2, 0.6), 1) == pytest.approx(0.64, rel=1e-14)
    with pytest.raises(ValidationError):
        binom_pmf(BinomialSpec(2, 0.5), 3)
    with pytest.raises(ValidationError):
        BinomialSpec(2, 1.5)


def test_binom_cdf_total_mass_large_n():
    for n in (10**3, 10**5, 10**6):
        for p in (0.5, 0.123):
            assert abs(binom_cdf(BinomialSpec(n, p), n) - 1.0) <= 1e-10


def test_binom_pmf_matches_exact_small():
    for n in range(0, 15):
        for k in range(n + 1):
            exact = math.comb(n, k) * 0.3**k * 0.7**(n - k)
            assert binom_pmf(BinomialSpec(n, 0.3), n - k) or True
            assert binom_pmf(BinomialSpec(n, 0.3), k) == pytest.approx(
                math.comb(n, k) * 0.3**k * 0.7**(n - k), rel=1e-13)
            assert exact >= 0


def test_log_pmf_matches_vectorized_oracle():
    rng = np.random.default_rng(71)
    cases = []  # (n, p, ks)
    for n in range(1, 16):  # the tabulated Stirling remainders, every k
        for p in (0.0, 0.03, 0.5, 0.91, 1.0):
            cases.append((n, p, range(n + 1)))
    near = far = 0
    for _ in range(400):
        n = int(math.exp(rng.uniform(0.0, math.log(1e9))))
        p = float(rng.uniform(0.0, 1.0))
        mode = round(n * p)
        ks = {0, n, mode, max(0, mode - 1), min(n, mode + 1),
              *(int(k) for k in rng.integers(0, n + 1, 8))}
        for k in ks:  # count the _bd0 branch each interior k takes for Bin(n, p)
            if 0 < k < n:
                if abs(k - n * p) < 0.1 * (k + n * p):
                    near += 1
                else:
                    far += 1
        cases.append((n, p, sorted(ks)))
    cases += [(10**9, 0.0, [0, 1, 10**9]), (10**9, 1.0, [0, 10**9 - 1, 10**9])]
    assert near > 100 and far > 100
    for n, p, ks in cases:
        want = _log_pmf_many(n, np.array(ks), p)
        for k, w in zip(ks, want.tolist()):
            got = _log_pmf(n, k, p)
            if math.isinf(w):
                assert got == w, (n, k, p)
                continue
            # bd0's far branch adds x*log(x/m) to m ~ n before subtracting x,
            # so numpy's SIMD log and libm's log, which differ by an ulp on
            # some inputs, can move the result by an ulp of n
            scale = max(abs(w), n)
            assert abs(got - w) <= 4 * math.ulp(scale), (n, k, p, got, w)


def test_stirlerr_recurrence_at_real_arguments():
    # log Gamma(n+2) - log Gamma(n+1) = log(n+1).  15.5 -> 16.5 crosses from
    # the lgamma form to the series, whose first omitted term,
    # 691/(360360 n^11), is 7.7e-17 at 16.5
    for n in (0.5, 2.5, 7.25, 15.5):
        step = (n + 0.5) * math.log(n / (n + 1)) + 1.0
        assert abs(bounds._stirlerr(n + 1) - bounds._stirlerr(n) - step) <= 1e-14, n


def test_reg_inc_beta_trivial_and_closed_forms():
    assert reg_inc_beta(0.5, 1, 1) == 0.5
    assert reg_inc_beta(0.5, 1, 2) == pytest.approx(0.75, abs=1e-13)
    assert reg_inc_beta(0.3, 2, 2) == pytest.approx(0.216, abs=1e-13)
    assert reg_inc_beta(0.0, 3, 4) == 0.0
    assert reg_inc_beta(1.0, 3, 4) == 1.0
    xs = np.linspace(0.01, 0.99, 99)
    for b in (1, 2, 5, 11):
        for x in xs:
            assert reg_inc_beta(x, 1, b) == pytest.approx(1 - (1 - x) ** b, abs=1e-12)
            assert reg_inc_beta(x, b, 1) == pytest.approx(x ** b, abs=1e-12)


def test_reg_inc_beta_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = rng.uniform(0.2, 50)
        b = rng.uniform(0.2, 50)
        x = rng.uniform(0.01, 0.99)
        assert reg_inc_beta(x, a, b) == pytest.approx(
            1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-12)


def test_reg_inc_beta_against_scipy():
    rng = np.random.default_rng(15)
    for _ in range(150):
        a = rng.uniform(0.3, 2000)
        b = rng.uniform(0.3, 2000)
        x = rng.uniform(0.0, 1.0)
        assert reg_inc_beta(x, a, b) == pytest.approx(
            float(scipy_betainc(a, b, x)), abs=2e-12)
    # large non-integer shapes, 6 and 3 sigma below the mean and 3 sigma above
    shapes = [(10**k + 0.5, 10**k + 0.5) for k in range(4, 9)]
    shapes.append((3 * 10**7 + 0.25, 10**7 + 0.75))
    cases = []
    for a, b in shapes:
        mu = a / (a + b)
        sigma = math.sqrt(a * b / (a + b + 1)) / (a + b)
        cases += [(a, b, mu + z * sigma) for z in (-6, -3, 3)]
    # b - 1 must be grouped first: a + b - 1 rounds below a = 0.001
    cases += [(0.001, 1.0, x) for x in (0.1, 0.5, 0.9)]
    for a, b, x in cases:
        assert reg_inc_beta(x, a, b) == pytest.approx(
            float(scipy_betainc(a, b, x)), abs=1e-14), (a, b, x)


def test_reg_inc_beta_validation():
    with pytest.raises(ValidationError):
        reg_inc_beta(1.5, 1, 1)
    with pytest.raises(ValidationError):
        reg_inc_beta(0.5, 0, 1)
    for x, a, b in ((0.5, math.nan, 1), (0.5, 1, math.nan), (0.5, math.inf, 1),
                    (0.3, 1, math.inf)):
        with pytest.raises(ValidationError, match="must be finite and > 0"):
            reg_inc_beta(x, a, b)
    # here the front factor's products k (n-k) or n x leave the normal doubles
    # (or vanish), so it adds logs; checked against 40-digit mpmath
    import mpmath
    for x, a, b in ((0.5, 1e-300, 1e-300), (1e-300, 1e-50, 1e-50), (5e-324, 1e-3, 1e-3),
                    (5e-324, 1e-3, 1.2), (1e-320, 0.1, 0.1), (0.5, 1e-160, 1e-160),
                    (0.3, 1e-320, 1e-320), (0.1, 1e-310, 5.0)):
        with mpmath.workdps(40):
            want = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert reg_inc_beta(x, a, b) == pytest.approx(want, abs=1e-13), (x, a, b)
    # a front factor of exactly 0.0 gives 0.0, or 1.0 on the symmetric branch,
    # with no continued fraction; mpmath's own route loses I_x near x = 1, so
    # that mirror is checked as 1 - I_{1-x}(b, a)
    for x, a, b in ((1e-5, 1e200, 1e200), (0.3, 1e155, 1e155), (1 - 1e-5, 1e200, 1e200)):
        with mpmath.workdps(40):
            want = (mpmath.betainc(a, b, 0, x, regularized=True) if x < 0.5 else
                    1 - mpmath.betainc(b, a, 0, 1 - mpmath.mpf(x), regularized=True))
        assert reg_inc_beta(x, a, b) == float(want) == round(x), (x, a, b)
    # huge shapes reach the continued fraction, which does not converge there
    for a in (1e160, 1e200):
        with pytest.raises(ConvergenceError, match=re.escape(f"a={a}, b={a}, x=0.5")):
            reg_inc_beta(0.5, a, a)


def _outcome(f, *args):
    """f's value, or the text and parameters of its ConvergenceError."""
    try:
        return f(*args)
    except ConvergenceError as e:
        return (str(e), e.args, e.a, e.b, e.x, e.iterations)


def test_betacf_float_counts_match_int_counts():
    rng = np.random.default_rng(29)
    values = capped = 0
    for _ in range(700):
        if rng.random() < 0.5:  # int shapes, as binom_tv passes them, up to 2**52
            a, b = (int(rng.integers(1, 2 ** int(rng.integers(1, 53)), endpoint=True))
                    for _ in range(2))
        else:  # real shapes from 1e-3 to 1e8
            a, b = (float(10 ** rng.uniform(-3, 8)) for _ in range(2))
        switch = (a + 1.0) / (a + b + 2.0)  # reg_inc_beta's symmetry switch
        xs = (switch * rng.uniform(0.5, 1.0), switch + (1.0 - switch) * rng.uniform(0.0, 0.5),
              a / (a + b) + rng.uniform(-1e-3, 1e-3))  # near the mean: the cap
        for x in (min(max(float(x), 1e-300), 1.0 - 2 ** -53) for x in xs):
            want = _outcome(betacf_int_counts, a, b, x)
            got = _outcome(bounds._betacf, a, b, x)
            if isinstance(want, float) and math.isnan(want):
                assert isinstance(got, float) and math.isnan(got), (a, b, x)
                continue
            assert got == want, (a, b, x)
            capped += isinstance(want, tuple)
            values += isinstance(want, float)
    assert capped > 100 and values > 1000


def test_convergence_error_carries_parameters():
    from debias.bounds import _betacf
    with pytest.raises(ConvergenceError) as info:
        _betacf(20.0, 30.0, 0.4, cap=2)
    e = info.value
    assert (e.a, e.b, e.x, e.iterations) == (20.0, 30.0, 0.4, 2)
    assert "within 2 iterations (a=20.0, b=30.0, x=0.4)" in str(e)
    with pytest.raises(ConvergenceError) as info:
        reg_inc_beta(0.5, 1e7, 1e7)  # the symmetric branch swaps a and b
    e = info.value
    assert (e.a, e.b, e.x, e.iterations) == (1e7, 1e7, 0.5, 500)


def test_reg_inc_beta_integer_path_agrees():
    cases = [(5, 5), (50, 50), (3, 200), (200, 3), (500, 501), (5000, 5000)]
    xs = (0.02, 0.3, 0.5, 0.500001, 0.77)
    for a, b in cases:
        for x in xs:
            cf = reg_inc_beta(x, a, b)
            direct = reg_inc_beta_via_binomial(x, a, b)
            assert abs(cf - direct) <= 1e-11
    with pytest.raises(ValidationError):
        reg_inc_beta_via_binomial(0.5, 2.5, 2)


def test_crossing_index_examples():
    assert crossing_index(1, 0.5, 0.1) == 1
    assert crossing_index(2, 0.5, 0.1) == 2
    assert crossing_index(100, 0.5, 0.05) == 53
    assert crossing_index(10, 0.3, 0.7) == 10  # x = 1 - p
    with pytest.raises(ValidationError):
        crossing_index(10, 0.5, 0.0)
    with pytest.raises(ValidationError):
        crossing_index(10, 0.0, 0.1)


def test_crossing_index_sandwich():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 2000))
        p = rng.uniform(0.05, 0.95)
        x = rng.uniform(1e-6, 1 - p)
        ell = crossing_index(n, p, x)
        assert math.ceil(n * p) <= ell <= math.ceil(n * (p + x))


def test_binom_tv_examples():
    assert binom_tv(1, 0.5, 0.1) == pytest.approx(0.1, abs=1e-13)
    assert binom_tv(2, 0.5, 0.1) == pytest.approx(0.11, abs=1e-13)
    assert binom_tv(5, 0.3, 0.0) == 0.0
    # degenerate endpoints
    assert binom_tv(3, 0.0, 0.2) == pytest.approx(1 - 0.8**3, abs=1e-13)
    assert binom_tv(3, 0.7, 0.3) == pytest.approx(1 - 0.7**3, abs=1e-13)
    with pytest.raises(ValidationError):
        binom_tv(2, 0.5, 0.6)


def test_binom_tv_matches_half_sum():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 500))
        p = rng.uniform(0.05, 0.9)
        x = rng.uniform(0, 1 - p)
        assert binom_tv(n, p, x) == pytest.approx(
            binom_tv_halfsum(n, p, x), abs=1e-9)


def test_binom_tv_complement_symmetry():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        p = rng.uniform(0.05, 0.9)
        x = rng.uniform(1e-9, 1 - p)
        assert binom_tv(n, p, x) == pytest.approx(
            binom_tv(n, 1 - p - x, x), abs=1e-12)


def test_tv_bound_exact_examples():
    assert tv_bound_exact(2, 0.2) == pytest.approx(0.11, abs=1e-12)
    assert tv_bound_exact(1, 0.2) == pytest.approx(0.1, abs=1e-12)
    assert tv_bound_exact(7, 0.0) == 0.0
    with pytest.raises(ValidationError):
        tv_bound_exact(2, 1.0)


def test_tv_bound_exact_monotone_in_alpha():
    for m in (1, 2, 10, 1000):
        alphas = np.linspace(0.0, 0.9, 40)
        vals = [tv_bound_exact(m, a) for a in alphas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


def test_naive_bound_examples():
    assert tv_bound_naive(2, 0.1) == pytest.approx(0.105, abs=1e-14)
    assert naive_alpha_for_rho(1, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert naive_alpha_for_rho(2, 0.5) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert tv_bound_naive(10**6, 0.1) == math.inf
    with pytest.raises(ValidationError, match=r"rho = 1e\+300 is too large for m = 1"):
        naive_alpha_for_rho(1, 1e300)  # finite, but alpha = 2e300 > 1
    for m, rho in ((1, 1e308), (1, 9e307), (7, 1.7e308)):  # 2 rho overflows
        with pytest.raises(ValidationError, match="rho = "):
            naive_alpha_for_rho(m, rho)
    # alpha = 1 is the edge of the domain: (2^m - 1)/2 maps to it exactly
    for m in (1, 2, 3, 10):
        assert naive_alpha_for_rho(m, (2**m - 1) / 2) == 1.0
        with pytest.raises(ValidationError, match=f"for m = {m}"):
            naive_alpha_for_rho(m, (2**m - 1) / 2 * (1 + 1e-9))


def test_linear_bound_examples():
    assert linear_alpha_for_rho(10**6, 0.01) == pytest.approx(2.5066e-5, abs=1e-9)
    assert linear_bound(100, 0.0) == 0.0
    assert tv_bound_exact(100, 0.01) <= linear_bound(100, 0.01)
    with pytest.raises(ValidationError):
        linear_bound(2, 0.1)
    for alpha in (1.0, 5.0, 1e308):  # the range tv_bound_exact accepts
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0,1\)"):
            linear_bound(3, alpha)
    with pytest.raises(ValidationError):
        linear_alpha_for_rho(2, 0.1)
    # the inverse stays in the forward bound's domain
    for m, rho in ((3, 5.0), (3, 1.6), (100, 5.0), (10**6, 1e300)):
        with pytest.raises(ValidationError, match=re.escape(f"rho = {rho} is too large")):
            linear_alpha_for_rho(m, rho)
    assert linear_alpha_for_rho(3, 1.3) < 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3])
def test_finite_nonnegative_inputs_required(bad):
    calls = [lambda: linear_bound(10, bad), lambda: naive_alpha_for_rho(10, bad),
             lambda: linear_alpha_for_rho(10, bad),
             lambda: calibrate_delta(0.5, 0.1, bad)]
    for call in calls:
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 2.0, 0, np.int64(-1)])
def test_block_length_must_be_a_positive_integer(bad):
    calls = [lambda: crossing_index(bad, 0.5, 0.1), lambda: binom_tv(bad, 0.5, 0.1),
             lambda: tv_bound_exact(bad, 0.1), lambda: calibrate_alpha(bad, 0.1),
             lambda: tv_bound_naive(bad, 0.1), lambda: naive_alpha_for_rho(bad, 0.1),
             lambda: linear_bound(bad, 0.1), lambda: linear_alpha_for_rho(bad, 0.1)]
    for call in calls:
        with pytest.raises(ValidationError, match="must be an integer >= "):
            call()


def test_exact_route_refuses_m_above_2_53():
    # above 2**53 the binomial shapes and the crossing index are not exact floats
    for big in (2**53 + 1, 10**155, 10**309, np.uint64(2**63)):
        calls = [lambda: tv_bound_exact(big, 0.5), lambda: binom_tv(big, 0.5, 0.1),
                 lambda: crossing_index(big, 0.5, 0.1), lambda: calibrate_alpha(big, 0.01),
                 lambda: sweep([big], [0.5])]
        for call in calls:
            with pytest.raises(ValidationError, match=re.escape(
                    f"= {int(big)} exceeds 2**53, the exact route's limit")):
                call()
    assert tv_bound_exact(2**53, 0.5) == 1.0
    # the naive and linear bounds take any m
    assert tv_bound_naive(10**155, 0.5) == math.inf
    assert linear_bound(10**155, 1e-80) == pytest.approx(1e-80 * math.sqrt(1e155 / (2 * math.pi)))


def test_block_length_takes_numpy_integers():
    assert tv_bound_exact(np.int64(2), 0.2) == tv_bound_exact(2, 0.2)
    assert crossing_index(np.uint32(100), 0.5, 0.05) == 53
    assert linear_bound(np.int32(100), 0.01) == linear_bound(100, 0.01)


def test_bound_ordering():
    rng = np.random.default_rng(51)
    for _ in range(50):
        m = int(rng.integers(3, 3000))
        alpha = rng.uniform(0, 0.5)
        exact = tv_bound_exact(m, alpha)
        assert exact <= tv_bound_naive(m, alpha) + 1e-12
        assert exact <= linear_bound(m, alpha) + 1e-12


def test_linear_inverse_consistency():
    for m in (3, 10, 1000):
        for rho in (0.01, 0.2):
            assert linear_bound(m, linear_alpha_for_rho(m, rho)) == \
                pytest.approx(rho, rel=1e-12)
            assert tv_bound_naive(m, naive_alpha_for_rho(m, rho)) == \
                pytest.approx(rho, rel=1e-12)


def test_calibrate_alpha_examples():
    assert calibrate_alpha(2, 0.11) == pytest.approx(0.2, abs=1e-8)
    assert calibrate_alpha(10, 1e-9) <= 1e-8
    assert tv_bound_exact(50, calibrate_alpha(50, 0.05)) <= 0.05 + 1e-9
    with pytest.raises(ValidationError):
        calibrate_alpha(2, 0.0)


_CAL_RHOS = (1e-12, 1e-9, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.99, 0.999999)


def _calibration_grid():
    """m = 1..59 x _CAL_RHOS (m = 2 has a convex TV), the early return at
    m = 1, rho = 0.6, and 300 seeded random points with m <= 10**6."""
    pts = [(m, rho) for m in range(1, 60) for rho in _CAL_RHOS] + [(1, 0.6)]
    rng = np.random.default_rng(61)
    for _ in range(300):
        pts.append((int(10 ** rng.uniform(0, 6)),
                    float(10 ** rng.uniform(-12, math.log10(0.999999)))))
    return pts


def test_calibrate_matches_bisection_oracle():
    returned = 0
    for m, rho in _calibration_grid():
        try:
            want = calibrate_alpha_bisection(m, rho)
        except ConvergenceError:
            try:  # a value or the same error, never a new failure
                calibrate_alpha(m, rho)
            except ConvergenceError:
                pass
            continue
        assert calibrate_alpha(m, rho) == want, (m, rho)
        returned += 1
    assert returned > 800
    assert calibrate_alpha(1, 0.6) == 1.0 - 1e-9


def test_calibrate_alpha_evaluation_count(monkeypatch):
    calls = []
    exact = bounds.tv_bound_exact

    def counted(m, alpha, *, _tails=None):
        calls.append(alpha)
        return exact(m, alpha, _tails=_tails)

    monkeypatch.setattr(bounds, "tv_bound_exact", counted)
    per_call = []
    for m, rho in _calibration_grid():
        del calls[:]
        try:
            calibrate_alpha(m, rho)
        except ConvergenceError:
            pass
        per_call.append(len(calls))
    assert min(per_call) >= 1  # a stand-in the solver never calls counts nothing
    assert np.mean(per_call) <= 6.0
    assert max(per_call) <= 35  # bisection's count from (0, 1 - 1e-9) to 1e-10


_SWEEP_MS = (3, 4, 100, 101, 10**4, 10**6)  # m and m + 1 share crossing indices
_SWEEP_ALPHAS = np.logspace(-6, math.log10(0.5), 40)


def test_half_tail_store_changes_no_result(monkeypatch):
    # the large-m points raise the known ConvergenceError
    grid = _calibration_grid() + [(3162278, 0.01), (10**8, 0.3), (10**9, 0.5)]
    reused = [_outcome(calibrate_alpha, m, rho) for m, rho in grid]
    rows = [r.tv_exact for r in sweep(_SWEEP_MS, _SWEEP_ALPHAS)]
    exact = bounds.tv_bound_exact
    monkeypatch.setattr(bounds, "tv_bound_exact",
                        lambda m, alpha, *, _tails=None: exact(m, alpha))
    assert reused == [_outcome(calibrate_alpha, m, rho) for m, rho in grid]
    # both terms fail there; the upper one, at x != 1/2, is evaluated first
    assert [r[4] != 0.5 for r in reused if isinstance(r, tuple)] == [True] * 3
    assert rows == [exact(m, float(a)) for m in _SWEEP_MS for a in _SWEEP_ALPHAS]


def test_half_tail_store_evaluates_each_index_once(monkeypatch):
    ells = []
    inc = bounds.reg_inc_beta

    def counted(x, a, b):
        if x == 0.5:  # the half-tail I_{1/2}(l, m-l+1), l = a
            ells.append(a)
        return inc(x, a, b)

    monkeypatch.setattr(bounds, "reg_inc_beta", counted)
    solves = [lambda m=m, rho=rho: calibrate_alpha(m, rho) for m, rho in _calibration_grid()]
    solves += [lambda m=m: sweep([m], _SWEEP_ALPHAS) for m in _SWEEP_MS]
    total = 0
    for solve in solves:
        del ells[:]
        _outcome(solve)
        assert len(ells) == len(set(ells)), ells
        total += len(ells)
    assert total > 1000


def test_tv_slope_matches_finite_difference():
    for m in (3, 100, 10**4, 10**6):
        # up to 3 sigma, before the bound saturates and rounding swamps the difference
        for alpha in (c / math.sqrt(m) for c in (0.05, 0.53, 1.07, 1.73, 2.93)):
            if alpha >= 1.0:
                continue
            h = 1e-5 / math.sqrt(m)  # large enough for the bound's ~1e-13 accuracy
            lo, hi = alpha - h, alpha + h
            # the slope jumps where the crossing index does: c keeps m*alpha/4,
            # about the index's offset from m/2, away from integers
            assert crossing_index(m, 0.5, 0.5 * lo) == crossing_index(m, 0.5, 0.5 * hi)
            diff = (tv_bound_exact(m, hi) - tv_bound_exact(m, lo)) / (2.0 * h)
            assert _tv_slope(m, alpha) == pytest.approx(diff, rel=1e-6), (m, alpha)
        # alpha = 0 takes the limit from above of the crossing index
        assert _tv_slope(m, 0.0) == pytest.approx(_tv_slope(m, 1e-15), rel=1e-9)
    assert _tv_slope(1, 0.0) == _tv_slope(2, 0.0) == 0.5


def test_calibrate_delta_examples():
    assert calibrate_delta(0.5, 0.1, 0.0207468879668) == pytest.approx(0.01, abs=1e-9)
    assert calibrate_delta(0.5, 0.1, 0.0) == 0.0
    # inverse pair with alpha_max on both branches
    for p0, beta, delta in [(0.5, 0.1, 0.01), (0.7, 0.1, 0.02), (0.4, 0.05, 0.003)]:
        a = alpha_max(p0, beta, delta)
        assert calibrate_delta(p0, beta, a) == pytest.approx(delta, rel=1e-10)
    with pytest.raises(ValidationError):
        calibrate_delta(0.5, 0.4, 2.0)  # denominator goes nonpositive


def test_product_deviation_sum_basics():
    # one coefficient: sum is |c| + |-c| = 2|c|
    assert product_deviation_sum([0.25]) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValidationError):
        product_deviation_sum([1.0])
    with pytest.raises(ValidationError):
        product_deviation_sum([0.1] * 17)


def test_product_deviation_sum_monotone_and_flip_invariant():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        c = rng.uniform(0.0, 0.9, n)
        j = int(rng.integers(0, n))
        bumped = c.copy()
        bumped[j] = min(0.99, c[j] + rng.uniform(0.005, 0.09))
        # flat regions are exact ties up to summation rounding
        assert product_deviation_sum(bumped) >= product_deviation_sum(c) - 1e-12
        signs = rng.choice([-1.0, 1.0], n)
        assert product_deviation_sum(c * signs) == product_deviation_sum(c)


def test_product_deviation_sum_flat_region():
    # with a dominant second coordinate the sum is exactly 4*c2, flat in c1
    assert product_deviation_sum([0.21, 0.59]) == pytest.approx(4 * 0.59, abs=1e-12)
    assert product_deviation_sum([0.30, 0.59]) == pytest.approx(4 * 0.59, abs=1e-12)
    # past c2/(1+c2) the dependence on c1 resumes
    assert product_deviation_sum([0.50, 0.59]) > 4 * 0.59 + 1e-3


def test_product_deviation_sum_strict_when_bumping_max():
    rng = np.random.default_rng(62)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        c = rng.uniform(0.0, 0.9, n)
        j = int(np.argmax(c))
        bumped = c.copy()
        bumped[j] = min(0.99, c[j] + 0.02)
        assert product_deviation_sum(bumped) > product_deviation_sum(c)
