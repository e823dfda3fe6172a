"""Output checks, run outside the timed region.

Bit data and reports must be byte-identical to the goldens captured on the
commit that added the benchmark.  Numeric outputs are checked against an
independent route at 1e-12 (scipy for the bounds, a pair-level dynamic
program for the exact tables); for those a golden mismatch is reported as
drift, not as a failure, because the numbers may legitimately move in the
last digits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re

import numpy as np

TOL = 1e-12


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def file_digest(path) -> str:
    """digest(read(path)), in 1 MiB chunks so hashing adds nothing to peak RSS."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    h.update(b"\0")
    return h.hexdigest()[:16]


def output_hashes(op, res) -> dict:
    """Hash of every output of one op: its files, stdout and exit status."""
    out = {"exit": res["exit"], "stdout": digest(res["stdout"])}
    for label, path in op.outputs.items():
        out[label] = file_digest(path) if res["exit"] == 0 else None
    if op.call is not None and res["exit"] == 0:
        out["value"] = digest("\n".join(sorted(str(s) for s in res["value"])))
    return out


def trace_fingerprint(path) -> list:
    eps = np.array(read(path).split(), dtype=np.float64)
    return [len(eps), float(eps.sum()), float(np.abs(eps).sum())]


def golden_extra(op, res) -> dict:
    """Golden values beyond hashes that a check needs."""
    if op.check == "walk" and res["exit"] == 0:
        return {"trace_fp": trace_fingerprint(op.outputs["trace"])}
    if op.check == "markov" and res["exit"] == 0:
        row = _markov_row(op)
        return {"tv_empirical": float(row["tv_empirical"]),
                "stderr": res["stderr"].strip()}
    return {}


# ---------------------------------------------------------------------------
# independent routes

def _crossing(m: int, q1: float, q2: float) -> int:
    """Smallest k at which the Bin(m, q2) pmf reaches the Bin(m, q1) pmf."""
    num = m * (math.log1p(-q1) - math.log1p(-q2))
    den = math.log(q2) - math.log(q1) + math.log1p(-q1) - math.log1p(-q2)
    return max(0, min(m, math.ceil(num / den)))


def tv_reference(m: int, alpha: float, precise: bool = False) -> float:
    """TV(Bin(m, 1/2), Bin(m, (1+alpha)/2)) = P_q(X >= l) - P_p(X >= l) at the
    crossing index l, through scipy's binomial tail.

    scipy's tail is itself off by ~1e-12 at m = 10^9, so ``precise`` instead
    integrates d/dt P_t(X >= l) = m * pmf(m-1, l-1; t) from p to q with
    50-digit mpmath quadrature; checks use it when scipy disagrees.
    """
    if alpha == 0.0:
        return 0.0
    q1, q2 = 0.5, 0.5 * (1.0 + alpha)
    ell = _crossing(m, q1, q2)
    if not precise:
        from scipy.stats import binom
        return float(binom.sf(ell - 1, m, q2) - binom.sf(ell - 1, m, q1))
    if ell == 0:
        return 0.0
    import mpmath as mp
    with mp.workdps(50):
        c = mp.log(m) + mp.loggamma(m) - mp.loggamma(ell) - mp.loggamma(m - ell + 1)
        density = lambda t: mp.exp(c + (ell - 1) * mp.log(t)  # noqa: E731
                                   + (m - ell) * mp.log1p(-t))
        # the integrand is a Beta(l, m-l+1) density: beyond 40 sigma of its
        # mode it is below e^-800, so integrate only that window
        mode = mp.mpf(ell - 1) / max(m - 1, 1)
        sigma = mp.sqrt(mode * (1 - mode) / m) if 0 < mode < 1 else mp.mpf(1)
        lo, hi = max(mp.mpf(q1), mode - 40 * sigma), min(mp.mpf(q2), mode + 40 * sigma)
        if lo >= hi:
            return 0.0
        return float(mp.quad(density, mp.linspace(lo, hi, 41)))


def _tv_agrees(v: float, m: int, alpha: float, holds) -> bool:
    """holds(v, reference) with the scipy reference, else the precise one."""
    return holds(v, tv_reference(m, alpha)) or holds(v, tv_reference(m, alpha, True))


def _zero_prob_fn(p: dict, n: int):
    """P(bit i = 0 | last k bits h) for the independent-bit and Markov sources."""
    kind = p["kind"]
    if kind == "constant":
        return 0, lambda i, h: p["p0"]
    if kind in ("adversarial", "sine"):
        idx = np.arange(1, n + 1)
        if kind == "adversarial":
            sign = -1.0 if p["p0"] > 1.0 - p["p0"] else 1.0
            eps = np.where(idx % 2 == 1, sign * p["beta"], sign * (p["beta"] - p["delta"]))
        else:
            eps = p["beta"] * np.sin(2.0 * math.pi * idx / p["period"])
        return 0, lambda i, h: p["p0"] - eps[i]
    if kind == "markov":
        k = p["k"]
        cond = [p["table"][format(h, f"0{k}b") if k else ""] for h in range(1 << k)]
        return k, lambda i, h: p["p0"] if i < k else cond[h]
    raise ValueError(kind)


def vn_dp(p: dict) -> np.ndarray:
    """Distribution of the von Neumann output conditioned on length m, by a
    forward pass over input pairs.  State: last k input bits and the output
    so far, encoded with a leading 1 bit (code 1 is the empty output)."""
    n, m = p["n"], p["m"]
    if p["kind"] == "pairwise":
        k, pairs = 0, p["pairs"]
        pair_prob = lambda t, h, b1, b2: pairs[t % len(pairs)][2 * b1 + b2]  # noqa: E731
    else:
        k, q0 = _zero_prob_fn(p, n)

        def pair_prob(t, h, b1, b2):
            pa = q0(2 * t, h) if b1 == 0 else 1.0 - q0(2 * t, h)
            h1 = ((h << 1) | b1) & ((1 << k) - 1)
            pb = q0(2 * t + 1, h1) if b2 == 0 else 1.0 - q0(2 * t + 1, h1)
            return pa * pb
    mask = (1 << k) - 1
    top = 1 << m
    state = np.zeros((1 << k, 2 * top))
    state[0, 1] = 1.0
    for t in range(n // 2):
        nxt = np.zeros_like(state)
        for h in range(1 << k):
            src = state[h]
            for b1 in (0, 1):
                for b2 in (0, 1):
                    w = pair_prob(t, h, b1, b2)
                    h2 = ((((h << 1) | b1) << 1) | b2) & mask
                    if b1 == b2:
                        nxt[h2] += w * src
                    else:  # append b1; outputs already m long overflow
                        nxt[h2, 2 + b1::2] += w * src[1:top]
        state = nxt
    acc = state[:, top:].sum(axis=0)
    return acc / acc.sum()


def _csv_table(path, length: int) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(read(path).decode())))
    if len(rows) != 1 << length:
        raise AssertionError(f"{len(rows)} rows, expected {1 << length}")
    want = [format(i, f"0{length}b") for i in range(1 << length)]
    if [r[0] for r in rows] != want:
        raise AssertionError("table rows not in lexicographic order")
    return np.array([float(r[1]) for r in rows])


def _markov_row(op) -> dict:
    rows = list(csv.DictReader(io.StringIO(read(op.outputs["csv"]).decode())))
    if len(rows) != 1:
        raise AssertionError(f"{len(rows)} markov rows, expected 1")
    return rows[0]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _scalars(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, val = line.partition(" ")
        out[key] = float(val)
    return out


def _check_tv(op, res, gold):
    m, alpha = op.params["m"], op.params["alpha"]
    v = float(res["stdout"].strip())
    if not _tv_agrees(v, m, alpha, _close):
        raise AssertionError(f"tv {v!r} vs reference {tv_reference(m, alpha, True)!r}")


def _check_calibrate(op, res, gold):
    p = op.params
    vals = _scalars(res["stdout"])
    a, d, m, rho = vals["alpha"], vals["delta"], p["m"], p["rho"]
    _expect(_tv_agrees(rho, m, a, lambda r, ref: ref <= r + TOL),
            f"tv(alpha={a!r}) exceeds rho {rho!r}")
    # bisection stops within 1e-10 of the crossing alpha
    above = min(a + 1.01e-10, 1 - 1e-9)
    _expect(a >= 1 - 2e-9 or _tv_agrees(rho, m, above, lambda r, ref: ref >= r - TOL),
            f"alpha {a!r} is not the largest alpha within rho {rho!r}")
    p0, beta = p["p0"], p["beta"]
    back = d / (2.0 * (p0 * (1 - p0) - beta * (beta - d) - abs(2 * p0 - 1) * (beta - d / 2)))
    _expect(abs(back - a) <= 1e-10 * max(a, 1e-300),
            f"delta {d!r} maps back to alpha {back!r}, not {a!r}")


def _check_sweep(op, res, gold):
    p = op.params
    rows = list(csv.DictReader(io.StringIO(read(op.outputs["csv"]).decode())))
    alphas = np.logspace(np.log10(p["alpha_min"]), np.log10(p["alpha_max"]), p["points"])
    _expect(len(rows) == len(p["ms"]) * len(alphas), f"{len(rows)} sweep rows")
    for r, (m, alpha) in zip(rows, ((m, a) for m in p["ms"] for a in alphas)):
        _expect(int(r["m"]) == m and _close(float(r["alpha"]), float(alpha), 1e-15),
                f"sweep grid point {r['m']},{r['alpha']}")
        _expect(_tv_agrees(float(r["tv_exact"]), m, float(alpha), _close),
                f"sweep tv_exact at m={m}, alpha={alpha!r}")
        lin = (alpha * math.sqrt((m + 1) / (2 * math.pi * (1 - 2 / m))) if m >= 3
               else math.nan)
        t = m * math.log1p(alpha)
        naive = math.inf if t > 700 else 0.5 * math.expm1(t)
        _expect(_close(float(r["tv_linear"]), lin, TOL * max(1.0, abs(lin))),
                f"sweep tv_linear at m={m}")
        _expect(_close(float(r["tv_naive"]), naive, TOL * max(1.0, abs(naive))),
                f"sweep tv_naive at m={m}")


def _check_dist(op, res, gold):
    got = _csv_table(op.outputs["csv"], op.params["m"])
    ref = vn_dp(op.params)
    err = float(np.abs(got - ref).max())
    _expect(err <= TOL, f"max |table - pair DP| = {err:.3g}")


def _check_raw(op, res, gold):
    n, pairs = op.params["n"], np.array(op.params["pairs"])
    got = _csv_table(op.outputs["csv"], n)
    idx = np.arange(1 << n)
    ref = np.ones(1 << n)
    for t in range(n // 2):
        ref *= pairs[t % len(pairs)][(idx >> (n - 2 - 2 * t)) & 3]
    err = float((np.abs(got - ref) / ref).max())
    _expect(err <= TOL, f"max relative |table - pair product| = {err:.3g}")


def _check_markov(op, res, gold):
    from debias.markov import random_markov_source
    p = op.params
    row = _markov_row(op)
    for key in ("k", "m", "n", "samples", "seed"):
        _expect(int(row[key]) == p[key], f"markov column {key} = {row[key]}")
    src = random_markov_source(p["k"], p["kappa"], p["p0"], p["seed"])
    ref = vn_dp({"kind": "markov", "n": p["n"], "m": p["m"], "k": p["k"],
                 "p0": p["p0"], "table": src.table})
    tv = 0.5 * float(np.abs(ref - 0.5 ** p["m"]).sum())
    _expect(_close(float(row["tv_exact"]), tv), f"tv_exact {row['tv_exact']} vs DP {tv!r}")
    _expect(_close(float(row["tv_empirical"]), gold["tv_empirical"]),
            f"tv_empirical {row['tv_empirical']} vs golden {gold['tv_empirical']!r}")
    accepted = re.search(r"accepted (\d+/\d+)", res["stderr"])
    _expect(accepted is not None and accepted.group(1) in gold["stderr"].split(),
            f"accepted trials differ from golden ({gold['stderr']!r})")


def _check_exact(op, res, gold):
    got = output_hashes(op, res)
    bad = [k for k, v in got.items() if gold.get(k) != v]
    _expect(not bad, f"differs from golden: {', '.join(bad)}")


def _check_walk(op, res, gold):
    got = output_hashes(op, res)
    _expect(got["bits"] == gold["bits"], "bit file differs from golden")
    if got["trace"] == gold["trace"]:
        return
    n, s, a = trace_fingerprint(op.outputs["trace"])
    gn, gs, ga = gold["trace_fp"]
    _expect(n == gn and abs(s - gs) <= 1e-9 * max(1.0, abs(gs))
            and abs(a - ga) <= 1e-9 * max(1.0, ga), "drift trace differs from golden")


CHECKS = {"exact": _check_exact, "walk": _check_walk, "dist": _check_dist,
          "raw": _check_raw, "markov": _check_markov, "tv": _check_tv,
          "calibrate": _check_calibrate, "sweep": _check_sweep}
NUMERIC = ("dist", "raw", "markov", "tv", "calibrate", "sweep")


def check(op, res, gold: dict) -> str | None:
    """None if the op's output is right, else why not."""
    try:
        CHECKS[op.check](op, res, gold)
    except (AssertionError, ValueError, KeyError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
