"""Worst-case asymmetry and total-variation bound family.

For a source whose bias drifts within amplitude beta at speed delta, the
normalized output is, at worst, an i.i.d. source with per-bit probabilities
(1 +/- alpha)/2, where alpha has the closed form computed by
:func:`alpha_max`.  The distance of that worst case from uniform over
m-bit blocks equals the total variation between two binomial distributions,
evaluated here through the regularized incomplete beta function, alongside a
crude exponential bound and a first-order linear bound, plus the inverse
(calibration) solvers for each.

The incomplete beta evaluator follows the classic continued-fraction scheme
(modified Lentz, symmetry switch at x > (a+1)/(a+b+2), 500-iteration cap,
1e-14 step tolerance; float arithmetic only).  Binomial log-pmfs use a scalar
saddle-point expansion (Stirling-error series plus a stable deviance term;
Loader 2000) rather than raw lgamma differences, which keeps results accurate
to ~1e-13 even at n = 10**6; the same expansion, at real arguments, supplies
the continued fraction's front factor for every shape (adding logs where a
product would leave the normal doubles).  :func:`binom_tv` subtracts two
binomial upper tails P(X >= l) = I_p(l, n-l+1), n <= 2**53; a solve over many
alphas at one m computes each alpha-free tail I_{1/2} once.  Each quantity has
this one route; the slow independent routes (CDF, tail and half sums, grid
search, sign-pattern enumeration) are test oracles, not part of the package.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, ValidationError, _integer, _interval
from .params import DriftParams

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_CALIBRATE_TOL = 1e-10  # width of calibrate_alpha's final bisection bracket


def _stirlerr(n: float) -> float:
    """log Gamma(n+1) - ((n+1/2) log n - n + log sqrt(2 pi)); any real n > 0."""
    if n < 16:
        return math.lgamma(n + 1) - ((n + 0.5) * math.log(n) - n + _LOG_SQRT_2PI)
    nn = float(n) * n
    inner = 1.0 / 1260.0 - (1.0 / 1680.0 - 1.0 / (1188.0 * nn)) / nn
    return (1.0 / 12.0 - (1.0 / 360.0 - inner / nn) / nn) / n


def _bd0(x: float, n: float, p: float) -> float:
    """Deviance term x*log(x/m) + m - x at m = n p, computed stably near x = m."""
    m = n * p
    if abs(x - m) >= 0.1 * (x + m):
        if m < 2.0 ** -1022 or x / m == math.inf:  # m subnormal, or x/m overflows: log in parts
            return x * (math.log(x) - math.log(n) - math.log(p)) + m - x
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    ej = 2.0 * x * v
    v2 = v * v
    j = 1
    while True:
        ej *= v2
        s1 = s + ej / (2 * j + 1)
        if s1 == s:
            return s
        s = s1
        j += 1


def _log_pmf(n: float, k: float, p: float) -> float:
    """log P(Bin(n, p) = k), saddle-point accurate for any n; real 0 <= k <= n."""
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    nk = n - k
    lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(nk)
          - _bd0(k, n, p) - _bd0(nk, n, 1.0 - p))
    den = 2.0 * math.pi * k * nk
    if den < 2.0 ** -1022 or not 0.0 < n / den < math.inf:  # den subnormal, or n/den out of range
        return lc + 0.5 * (math.log(n) - math.log(k) - math.log(nk)) - _LOG_SQRT_2PI
    return lc + 0.5 * math.log(n / den)


def _betacf(a: float, b: float, x: float, cap: int = 500, tol: float = 1e-14) -> float:
    """Continued fraction for the incomplete beta ratio (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    m = 0.0  # a float count: below 2**53 each step rounds as with int m and shapes
    for _ in range(cap):
        m += 1.0
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if -tol < step - 1.0 < tol:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge within {cap} "
        f"iterations (a={a}, b={b}, x={x})", a, b, x, cap)


def _front_over_a(x: float, a: float, b: float) -> float:
    """x^a (1-x)^b / (a * B(a,b)), through the saddle-point pmf for any shapes."""
    if b >= 1.0:
        # (1-x) P(Bin(a+b-1, x) = a); b - 1 first, as a + b - 1 can round below a
        return (1.0 - x) * math.exp(_log_pmf(a + (b - 1), a, x))
    # b/(a+b) P(Bin(a+b, x) = a); at b = 1 it gives I_{1/2}(1,1) = 0.5000000000000002
    return b / (a + b) * math.exp(_log_pmf(a + b, a, x))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) to ~1e-13 absolute accuracy,
    clamped to [0, 1], which that error can leave at tiny shapes."""
    _interval("x", x, 0, 1, "[]")
    _interval("shape a", a, 0, math.inf)
    _interval("shape b", b, 0, math.inf)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    # a front factor of 0.0 makes the tail 0.0, and the continued fraction,
    # which need not converge there, is not run
    if x < (a + 1.0) / (a + b + 2.0):
        front = _front_over_a(x, a, b)
        value = front * _betacf(a, b, x) if front else 0.0
    else:
        front = _front_over_a(1.0 - x, b, a)
        value = 1.0 - front * _betacf(b, a, 1.0 - x) if front else 1.0
    return min(max(value, 0.0), 1.0)


def _exact_n(name: str, n) -> int:
    """``n`` from 1 to 2**53, where shapes and crossing indices are exact floats;
    the inner check keeps the message for n < 1."""
    return _integer(name, _integer(name, n, 1), 1, 2 ** 53, "2**53, the exact route's limit")


def crossing_index(n: int, p: float, x: float) -> int:
    """The count at which the pmfs of Bin(n,p) and Bin(n,p+x) cross; lies
    between ceil(n p) and ceil(n (p+x))."""
    n = _exact_n("n", n)
    _interval("p", p, 0, 1)
    _interval("x", x, 0, 1.0 - p, "(]")
    return _crossing(n, p, x)


def _crossing(n: int, p: float, x: float) -> int:
    q = 1.0 - p
    if x == q:
        return n
    num = -n * math.log1p(-x / q)
    den = math.log1p(x / p) - math.log1p(-x / q)
    return math.ceil(num / den)


def binom_tv(n: int, p: float, x: float) -> float:
    """Total variation between Bin(n, p) and Bin(n, p+x), via the incomplete
    beta difference at the crossing index."""
    n = _exact_n("n", n)
    _interval("p", p, 0, 1, "[]")
    _interval("x", x, 0, 1.0 - p, "[]")
    return _binom_tv(n, p, x)


def _binom_tv(n: int, p: float, x: float, tails: dict | None = None) -> float:
    """:func:`binom_tv` on checked arguments; ``tails`` maps l to I_p(l, n-l+1)."""
    if x == 0.0:
        return 0.0
    if p == 0.0:
        return 1.0 - (1.0 - x) ** n  # point mass at 0 vs Bin(n, x)
    if p + x == 1.0:
        return 1.0 - p ** n          # mirrored point-mass case
    ell = _crossing(n, p, x)
    upper = reg_inc_beta(p + x, ell, n - ell + 1)  # first: its error wins
    tails = {} if tails is None else tails
    if ell not in tails:
        tails[ell] = reg_inc_beta(p, ell, n - ell + 1)
    return upper - tails[ell]


def tv_bound_exact(m: int, alpha: float, *, _tails: dict | None = None) -> float:
    """Worst-case distance from uniform over m-bit blocks at asymmetry alpha:
    the total variation between Bin(m, 1/2) and Bin(m, (1+alpha)/2); m <= 2**53.
    Calls at one m that share a dict ``_tails`` compute each alpha-free half-tail
    I_{1/2}(l, m-l+1), l the crossing index, once."""
    m = _exact_n("m", m)
    _interval("alpha", alpha, 0, 1, "[)")
    return _binom_tv(m, 0.5, 0.5 * alpha, _tails)


def tv_bound_naive(m: int, alpha: float) -> float:
    """Crude exponential bound ((1+alpha)^m - 1) / 2; may exceed 1."""
    m = _integer("m", m, 1)
    _interval("alpha", alpha, 0, 1, "[)")
    t = m * math.log1p(alpha)
    if t > 700.0:
        return math.inf
    return 0.5 * math.expm1(t)


def naive_alpha_for_rho(m: int, rho: float) -> float:
    """Inverse of the crude bound: (1+2 rho)^{1/m} - 1; raises past alpha = 1."""
    m = _integer("m", m, 1)
    _interval("rho", rho, 0, math.inf, "[)")
    return _alpha_at_most_one(m, rho, math.expm1(math.log1p(2.0 * rho) / m))


def _alpha_at_most_one(m: int, rho: float, alpha: float) -> float:
    """``alpha`` if it lies in the bounds' domain; an inverse bound past
    alpha = 1 (or overflowing to inf) means rho is out of reach at this m."""
    if not alpha <= 1.0:
        raise ValidationError(
            f"rho = {rho} is too large for m = {m}: it needs alpha = {alpha!r} > 1")
    return alpha


def _linear_slope(m: int) -> float:
    m = _integer("m", m, 3)  # the linear bound's own domain
    return math.sqrt((m + 1) / (2.0 * math.pi * (1.0 - 2.0 / m)))


def linear_bound(m: int, alpha: float) -> float:
    """First-order bound alpha * sqrt((m+1) / (2 pi (1 - 2/m))); m >= 3."""
    _interval("alpha", alpha, 0, math.inf, "[)")  # nan and inf: "must be finite"
    _interval("alpha", alpha, 0, 1, "[)")
    return alpha * _linear_slope(m)


def linear_alpha_for_rho(m: int, rho: float) -> float:
    """Inverse of the linear bound: rho * sqrt(2 pi (1 - 2/m) / (m+1)); raises
    past alpha = 1."""
    _interval("rho", rho, 0, math.inf, "[)")
    return _alpha_at_most_one(m, rho, rho / _linear_slope(m))


def _tv_slope(m: int, alpha: float) -> float:
    """d tv_bound_exact(m, alpha) / d alpha = (m/2) pmf(m-1, l-1; (1+alpha)/2),
    l the crossing index; at alpha = 0 it is the limit from above, l = m//2 + 1."""
    ell = _crossing(m, 0.5, 0.5 * alpha) if alpha > 0.0 else m // 2 + 1
    return 0.5 * m * math.exp(_log_pmf(m - 1, ell - 1, 0.5 + 0.5 * alpha))


def calibrate_alpha(m: int, rho: float) -> float:
    """Largest alpha whose exact worst-case bound stays within rho: the float
    that bisection on the (monotone) exact bound from (0, 1 - 1e-9) returns.

    Safeguarded Newton steps on the closed-form slope (``rtsafe``) close an
    evaluated bracket a < b, tv(a) <= rho < tv(b), to width 1/16 of the
    bisection's final width ``_CALIBRATE_TOL``; the bisection's midpoints are
    then replayed, and only one strictly inside (a, b) is evaluated.  The
    evaluations share one half-tail store (:func:`tv_bound_exact`).
    """
    _interval("rho", rho, 0, 1)
    m = _exact_n("m", m)
    tails = {}
    hi = 1.0 - 1e-9
    if tv_bound_exact(m, hi, _tails=tails) <= rho:
        return hi
    w = _CALIBRATE_TOL / 16.0
    a, b = 0.0, hi
    x, fx = 0.0, -rho  # tv(0) = 0: the first step needs no evaluation
    last = before = hi  # the last two steps
    while b - a > w:
        slope = _tv_slope(m, x)
        step = fx / slope if slope > 0.0 else math.inf
        if abs(step) < 0.5 * w:  # probe just across the root; x is a or b
            step = -0.5 * w if fx <= 0.0 else 0.5 * w
        elif not a < x - step < b or abs(step) > 0.5 * abs(before):
            step = x - 0.5 * (a + b)
        before, last = last, step
        x -= step
        fx = tv_bound_exact(m, x, _tails=tails) - rho
        if fx <= 0.0:
            a = x
        else:
            b = x
    lo = 0.0
    while hi - lo > _CALIBRATE_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and tv_bound_exact(m, mid, _tails=tails) <= rho):
            lo = mid
        else:
            hi = mid
    return lo


def calibrate_delta(p0: float, beta: float, alpha: float) -> float:
    """Drift speed delta at which the worst-case asymmetry reaches alpha,
    inverting the :func:`alpha_max` closed form for fixed p0 and beta.

    A delta above beta lies outside the model, and :func:`alpha_max`
    refuses it; it means that alpha is out of the drift's reach: every
    speed the model admits (delta <= beta) meets the target, since
    alpha_max(p0, beta, beta) < alpha."""
    _interval("p0", p0, 0, 1)
    p1 = 1.0 - p0
    _interval("beta", beta, 0, min(p0, p1), "[)")
    _interval("alpha", alpha, 0, math.inf, "[)")
    gap = abs(p0 - p1)
    num = 2.0 * alpha * (p0 * p1 - beta * beta - gap * beta)
    den = 1.0 - 2.0 * alpha * (beta + 0.5 * gap)
    if den <= 0.0 or num < 0.0:
        raise ValidationError(
            f"no feasible drift speed for alpha = {alpha} at p0 = {p0}, beta = {beta}")
    delta = num / den
    check = p0 * p1 - beta * (beta - delta) - gap * (beta - 0.5 * delta)
    if check <= 0.0:
        raise ValidationError(
            f"calibration landed outside the valid region (denominator {2 * check!r})")
    return delta


def u_value(p0: float, eps: float, gamma: float) -> float:
    """Asymmetry |gamma| / (q(01) + q(10)) of one unequal pair whose first bit
    has offset eps and whose offset then steps by gamma."""
    p1 = 1.0 - p0
    factors = {
        "p0 - eps": p0 - eps,
        "p1 + eps + gamma": p1 + eps + gamma,
        "p1 + eps": p1 + eps,
        "p0 - eps - gamma": p0 - eps - gamma,
    }
    for name, v in factors.items():
        _interval(f"factor {name}", v, 0, 1)
    den = ((p0 - eps) * (p1 + eps + gamma) + (p1 + eps) * (p0 - eps - gamma))
    if den <= 0.0:
        raise ValidationError(f"unequal-pair mass {den!r} is not positive")
    return abs(gamma) / den


def alpha_max(p0: float, beta: float, delta: float) -> float:
    """Closed-form worst case of :func:`u_value` over all offsets within
    amplitude beta and steps within delta:
    delta / (2 [p0 p1 - beta (beta - delta) - |p0 - p1| (beta - delta/2)])."""
    params = DriftParams(p0, beta, delta)
    p1 = params.p1
    den = 2.0 * (p0 * p1 - beta * (beta - delta) - abs(p0 - p1) * (beta - 0.5 * delta))
    if den <= 0.0:
        raise ValidationError(f"denominator {den!r} is not positive")
    return delta / den
