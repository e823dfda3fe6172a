"""Slow, independent routes that the bound tests compare the package against.

Not collected by pytest (no ``test_`` prefix).  The binomial log-pmf here is
the array-and-mask form of the saddle-point expansion (Loader 2000), kept as a
reference for the scalar ``debias.bounds._log_pmf``; the tail sums, half sums,
grid search and sign-pattern enumeration built on it check the continued
fraction, the crossing-index TV formula, ``alpha_max`` and the flat region of
the deviation sum.  ``binom_pmf`` exposes the scalar ``_log_pmf`` for direct
checks.  The plain bisection is the float that ``debias.calibrate_alpha``
must return.  ``betacf_int_counts`` is the continued fraction as it was with
an int step counter: the float-counting ``debias.bounds._betacf`` must
return the same float, or raise the same ``ConvergenceError``.
"""

import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from debias import ConvergenceError, DriftParams, ValidationError, tv_bound_exact
from debias.bounds import _log_pmf

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# exact Stirling-series remainders log n! - ((n+1/2)log n - n + log sqrt(2 pi))
# for n = 1..15; index 0 unused
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(n + 1) - ((n + 0.5) * math.log(n) - n + _LOG_SQRT_2PI)
             for n in range(1, 16)])


def _stirlerr(n):
    """Stirling-series remainder of log n!, vectorized; n >= 1."""
    n = np.asarray(n, dtype=np.float64)
    out = np.empty_like(n)
    small = n < 16
    if small.any():
        out[small] = _STIRLERR_SMALL[n[small].astype(np.int64)]
    big = ~small
    if big.any():
        nb = n[big]
        nn = nb * nb
        out[big] = (1.0 / 12.0
                    - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * nn)) / nn) / nn) / nb
    return out


def _bd0(x, m):
    """Deviance term x*log(x/m) + m - x, computed stably near x = m."""
    x = np.asarray(x, dtype=np.float64)
    m = np.broadcast_to(np.asarray(m, dtype=np.float64), x.shape)
    out = np.empty_like(x)
    near = np.abs(x - m) < 0.1 * (x + m)
    far = ~near
    if far.any():
        out[far] = x[far] * np.log(x[far] / m[far]) + m[far] - x[far]
    if near.any():
        xn, mn = x[near], m[near]
        v = (xn - mn) / (xn + mn)
        s = (xn - mn) * v
        ej = 2.0 * xn * v
        v2 = v * v
        j = 1
        while True:
            ej = ej * v2
            s1 = s + ej / (2 * j + 1)
            if np.array_equal(s1, s):
                break
            s = s1
            j += 1
        out[near] = s
    return out


def _log_pmf_many(n: int, ks: np.ndarray, p: float) -> np.ndarray:
    """log binomial pmf at each k in ks, saddle-point accuracy for any n."""
    ks = np.asarray(ks, dtype=np.int64)
    out = np.empty(len(ks), dtype=np.float64)
    if p <= 0.0:
        out[:] = -math.inf
        out[ks == 0] = 0.0
        return out
    if p >= 1.0:
        out[:] = -math.inf
        out[ks == n] = 0.0
        return out
    out[ks == 0] = n * math.log1p(-p)
    out[ks == n] = n * math.log(p)
    mid = (ks > 0) & (ks < n)
    if mid.any():
        k = ks[mid].astype(np.float64)
        nk = n - k
        lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(nk)
              - _bd0(k, n * p) - _bd0(nk, n * (1.0 - p)))
        out[mid] = lc + 0.5 * np.log(n / (2.0 * math.pi * k * nk))
    return out


@dataclass(frozen=True)
class BinomialSpec:
    """n trials with success probability p."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"trial count must be >= 0, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"p must lie in [0,1], got {self.p}")


def binom_pmf(spec: BinomialSpec, k: int) -> float:
    """P(X = k) from the package's scalar saddle-point log-pmf."""
    if not 0 <= k <= spec.n:
        raise ValidationError(f"k = {k} out of range [0, {spec.n}]")
    return math.exp(_log_pmf(spec.n, k, spec.p))


def binom_cdf(spec: BinomialSpec, k: int) -> float:
    """P(X <= k) by direct pmf summation."""
    if not 0 <= k <= spec.n:
        raise ValidationError(f"k = {k} out of range [0, {spec.n}]")
    terms = np.exp(_log_pmf_many(spec.n, np.arange(k + 1), spec.p))
    return float(terms.sum())


def reg_inc_beta_via_binomial(x: float, a: int, b: int) -> float:
    """Integer-parameter cross-check: I_x(a,b) = P(Bin(a+b-1, x) >= a),
    summed tail-first with exact accumulation."""
    if not (float(a).is_integer() and float(b).is_integer()) or a < 1 or b < 1:
        raise ValidationError(f"need integer a, b >= 1, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must lie in [0,1], got {x}")
    a, b = int(a), int(b)
    n = a + b - 1
    if b <= a:  # upper tail is the shorter sum
        terms = np.exp(_log_pmf_many(n, np.arange(a, n + 1), x))
        return math.fsum(terms.tolist())
    terms = np.exp(_log_pmf_many(n, np.arange(0, a), x))
    return 1.0 - math.fsum(terms.tolist())


def binom_tv_halfsum(n: int, p: float, x: float) -> float:
    """Direct half-sum oracle for :func:`binom_tv` (O(n) work)."""
    ks = np.arange(n + 1)
    d = np.exp(_log_pmf_many(n, ks, p)) - np.exp(_log_pmf_many(n, ks, p + x))
    return 0.5 * float(np.abs(d).sum())


def u_max_oracle(p0: float, beta: float, delta: float, h: float):
    """Brute-force grid maximum of :func:`u_value` over the feasible region
    {|eps| <= beta, |gamma| <= delta, |eps+gamma| <= beta}.

    Returns (eps*, gamma*, value); value matches :func:`alpha_max` up to O(h).
    """
    DriftParams(p0, beta, delta)
    if h <= 0.0:
        raise ValidationError(f"grid resolution must be positive, got {h}")
    p1 = 1.0 - p0

    def grid(bound):
        if bound == 0.0:
            return np.zeros(1)
        steps = max(1, round(2.0 * bound / h))
        return np.linspace(-bound, bound, steps + 1)

    eps = grid(beta)[:, None]
    gam = grid(delta)[None, :]
    feasible = np.abs(eps + gam) <= beta + 1e-12
    den = (p0 - eps) * (p1 + eps + gam) + (p1 + eps) * (p0 - eps - gam)
    u = np.abs(gam) / den
    u[~feasible] = -1.0
    i, j = np.unravel_index(np.argmax(u), u.shape)
    return float(eps[i, 0]), float(gam[0, j]), float(u[i, j])


def product_deviation_sum(cs) -> float:
    """Sum over all sign patterns s of |prod_i (1 + s_i c_i) - 1|.

    Nondecreasing in each |c_i| and invariant under sign flips of any c_i;
    2^n times the L1 deviation of the +/-c product measure from uniform.
    (Not *strictly* increasing everywhere: with two coordinates and
    c_1 < c_2/(1+c_2) the sum is exactly 4*c_2, flat in c_1.)
    """
    cs = [float(c) for c in cs]
    n = len(cs)
    if n > 16:
        raise ValidationError(f"enumeration over sign patterns guarded at 16, got {n}")
    for c in cs:
        if not -1.0 < c < 1.0:
            raise ValidationError(f"coefficient {c} outside (-1,1)")
    terms = []
    for signs in _iproduct((1.0, -1.0), repeat=n):
        prod = 1.0
        for s, c in zip(signs, cs):
            prod *= 1.0 + s * c
        terms.append(abs(prod - 1.0))
    return math.fsum(terms)


def calibrate_alpha_bisection(m: int, rho: float, tol: float = 1e-10) -> float:
    """Largest alpha whose exact worst-case bound stays within rho, by
    bisection on the (monotone) exact bound."""
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"rho must lie in (0,1), got {rho}")
    hi = 1.0 - 1e-9
    if tv_bound_exact(m, hi) <= rho:
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if tv_bound_exact(m, mid) <= rho:
            lo = mid
        else:
            hi = mid
    return lo


def betacf_int_counts(a: float, b: float, x: float, cap: int = 500, tol: float = 1e-14) -> float:
    """Continued fraction for the incomplete beta ratio (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, cap + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < tol:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge within {cap} "
        f"iterations (a={a}, b={b}, x={x})", a, b, x, cap)
