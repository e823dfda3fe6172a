"""Seeded, reproducible bit-source models.

Every source is a frozen dataclass; :func:`sample` is a pure function of
(spec, n, seed).  Randomness comes from numpy's default generator (PCG64),
seeded per call, so golden outputs in the test suite are stable.

For a drifting source, bit i is 0 with probability ``p0 - eps_i`` where the
per-bit offsets eps_i are capped in amplitude (|eps_i| <= beta) and in step
size (|eps_{i+1} - eps_i| <= delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .bits import BitString, QaryString, _write_rows
from .errors import ValidationError, _integer, _interval

PAIR_KEYS = ("00", "01", "10", "11")

TRAJECTORIES = ("walk", "sine", "fixed", "adversarial")

# a k-memory source tabulates 2**k histories; the cap keeps that table small
MAX_MARKOV_K = 16
_K_LIMIT = f"MAX_MARKOV_K = {MAX_MARKOV_K}"

# draws per lane of the speculative pass in the walk and the Markov sampler
_BLOCK = 1024


def check_markov_k(k: int) -> int:
    """``k`` as an ``int``; rejects a memory length outside 0..MAX_MARKOV_K."""
    return _integer("memory length k", k, 0, MAX_MARKOV_K, _K_LIMIT)


def _records(path, width: int):
    """``(lineno, fields)`` for each line of a parameter file that is neither
    blank nor a ``#`` comment; every such line has ``width`` fields."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != width:
                raise ValidationError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
            yield lineno, fields


def _number(path, lineno: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{path}: line {lineno}: not {what}: {text!r}") from None


@dataclass(frozen=True)
class DriftParams:
    """Base zero-probability p0 with drift amplitude bound beta and speed bound delta."""

    p0: float
    beta: float
    delta: float

    def __post_init__(self):
        _interval("p0", self.p0, 0, 1)
        _interval("beta", self.beta, 0, math.inf, "[]")  # NaN: "beta must be >= 0"
        _interval("beta", self.beta, 0, min(self.p0, self.p1), "[)")
        _interval("delta", self.delta, 0, self.beta, "[]")

    @property
    def p1(self) -> float:
        return 1.0 - self.p0


class DriftTrace:
    """Realized per-bit offsets eps_1..eps_n of a drifting source."""

    __slots__ = ("epsilons",)

    def __init__(self, epsilons):
        arr = np.asarray(epsilons, dtype=np.float64).reshape(-1).copy()
        arr.flags.writeable = False
        self.epsilons = arr

    @property
    def gammas(self) -> np.ndarray:
        """Successive differences eps_{i+1} - eps_i."""
        return np.diff(self.epsilons)

    def __len__(self) -> int:
        return len(self.epsilons)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DriftTrace(self.epsilons[i])
        return float(self.epsilons[i])

    def __eq__(self, other):
        if not isinstance(other, DriftTrace):
            return NotImplemented
        return np.array_equal(self.epsilons, other.epsilons)

    def __repr__(self) -> str:
        return f"DriftTrace({self.epsilons.tolist()!r})"

    def save(self, path) -> None:
        """Write one decimal offset per line."""
        _write_rows(path, "", [("%r\n", [self.epsilons], 0)])

    @classmethod
    def load(cls, path) -> "DriftTrace":
        """Read one decimal offset per line; blank and ``#`` lines are skipped."""
        return cls([_number(path, i, f[0], "a decimal offset") for i, f in _records(path, 1)])


@dataclass(frozen=True)
class TraceViolation:
    """First point where a trace breaks an amplitude or speed bound (1-based index)."""

    kind: str  # "amplitude" or "speed"
    index: int
    value: float
    bound: float

    def __str__(self) -> str:
        name = "|eps|" if self.kind == "amplitude" else "|gamma|"
        return (f"{self.kind} bound violated at index {self.index}: "
                f"{name} = {self.value:.6g} > {self.bound:.6g}")


_BOUND_SLACK = 1e-12  # absorbs representation error in traces sitting on a bound


def validate_trace(trace: DriftTrace, params: DriftParams) -> Optional[TraceViolation]:
    """None if the trace obeys both drift bounds (to within floating-point
    slack), else the first violation."""
    eps = trace.epsilons
    over = ~(np.abs(eps) <= params.beta + _BOUND_SLACK)  # NaN is over every bound
    if over.any():
        i = int(np.argmax(over))
        return TraceViolation("amplitude", i + 1, abs(float(eps[i])), params.beta)
    gam = np.diff(eps)
    over = ~(np.abs(gam) <= params.delta + _BOUND_SLACK)
    if over.any():
        i = int(np.argmax(over))
        return TraceViolation("speed", i + 1, abs(float(gam[i])), params.delta)
    return None


def adversarial_trace(params: DriftParams, n: int) -> DriftTrace:
    """Worst-case trace: odd positions sit at the amplitude cap, each followed
    by a maximal step back, on the side determined by the sign of p0 - p1."""
    n = _integer("n", n, 0)
    idx = np.arange(1, n + 1)
    if params.p0 > params.p1:
        hi, lo = -params.beta, -params.beta + params.delta
    else:
        hi, lo = params.beta, params.beta - params.delta
    return DriftTrace(np.where(idx % 2 == 1, hi, lo))


@dataclass(frozen=True)
class ConstantSource:
    """i.i.d. bits, each 0 with probability p0."""

    p0: float

    def __post_init__(self):
        _interval("p0", self.p0, 0, 1)


@dataclass(frozen=True)
class DriftingSource:
    """Independent bits whose zero-probability drifts as p0 - eps_i.

    Trajectories:
      walk        eps_1 = 0, then a uniform step in [-delta, delta] clamped
                  to [-beta, beta] (clamping never increases a step)
      sine        eps_i = beta * sin(2 pi i / period); requires
                  beta * 2 pi / period <= delta
      fixed       a user-supplied trace, validated against the bounds
      adversarial the worst-case corner trace
    """

    params: DriftParams
    trajectory: str = "walk"
    period: float | None = None
    trace: DriftTrace | None = None

    def __post_init__(self):
        if self.trajectory not in TRAJECTORIES:
            raise ValidationError(
                f"unknown trajectory {self.trajectory!r}; expected one of {TRAJECTORIES}")
        if self.trajectory == "sine":
            if self.period is None:
                raise ValidationError("sine trajectory needs a positive period")
            _interval("period", self.period, 0, math.inf, "(]")
            step = self.params.beta * 2.0 * math.pi / self.period
            if step > self.params.delta:
                raise ValidationError(
                    f"sine step bound beta*2*pi/period = {step:.6g} exceeds delta = "
                    f"{self.params.delta:.6g}")
        if self.trajectory == "fixed":
            if self.trace is None:
                raise ValidationError("fixed trajectory needs a trace")
            bad = validate_trace(self.trace, self.params)
            if bad is not None:
                raise ValidationError(f"fixed trace invalid: {bad}")

    def realized_trace(self, n: int) -> DriftTrace:
        """The eps-sequence of an n-bit run of a deterministic trajectory
        (sine, fixed or adversarial); a walk's trace comes from :func:`sample`."""
        n = _integer("n", n, 0)
        if self.trajectory == "walk":
            raise ValidationError("walk trajectory has no deterministic trace; use sine, fixed, "
                                  "or adversarial (or fix the realized trace of a sampled run)")
        if self.trajectory == "fixed":
            if len(self.trace) < n:
                raise ValidationError(
                    f"fixed trace has {len(self.trace)} entries, need {n}")
            return self.trace[:n]
        if self.trajectory == "adversarial":
            return adversarial_trace(self.params, n)
        i = np.arange(1, n + 1, dtype=np.float64)
        return DriftTrace(self.params.beta * np.sin(2.0 * math.pi * i / self.period))

    def _walk(self, n: int, rng) -> DriftTrace:
        """eps_1 = 0, then eps_{i+1} = min(beta, max(-beta, eps_i + step_i))
        with steps uniform in [-delta, delta]; bit-identical to running that
        recurrence one step at a time.

        The steps are cut into blocks of ``_BLOCK``, and one lockstep pass
        walks every block from a guessed start of 0.  The blocks are then
        repaired in order from the true start.  The step map is monotone and
        deterministic, so once the true walk meets the guessed one the rest
        of the block is already right; until then the walk is a running sum
        from the true state (``np.cumsum`` adds left to right, as the loop
        did), restarted after each clamp.  A clamp can make the two meet, so
        a walk that clamps often is repaired in few steps, and one that
        rarely clamps needs few restarts.
        """
        beta, delta = self.params.beta, self.params.delta
        if n == 0:
            return DriftTrace(np.empty(0))
        lanes = max(1, -(-(n - 1) // _BLOCK))
        # w[i + 1] is step i; a running sum from eps_i first writes eps_i to w[i]
        w = np.zeros(lanes * _BLOCK + 1)
        w[1:n] = rng.uniform(-delta, delta, size=n - 1)
        steps = w[1:].reshape(lanes, _BLOCK)
        # guess[j, t] is eps at index j * _BLOCK + t, walked from guess[j, 0] = 0
        guess = np.zeros((lanes, _BLOCK + 1))
        nxt = np.empty(lanes)
        for t in range(_BLOCK):
            np.add(guess[:, t], steps[:, t], out=nxt)
            nxt[nxt <= -beta] = -beta  # ties fall as in min(beta, max(-beta, x))
            nxt[nxt >= beta] = beta
            guess[:, t + 1] = nxt
        # block 0 starts at the true eps_1 = 0; block j starts at block j-1's end
        for j in range(1, lanes):
            row = guess[j]
            pattern = row.view(np.int64)  # compared bit for bit, signed zeros too
            run = w[j * _BLOCK:(j + 1) * _BLOCK + 1]
            e, t = guess[j - 1, _BLOCK], 0
            while e.view(np.int64) != pattern[t]:
                row[t] = e
                if t == _BLOCK:
                    break
                run[t] = e
                sums = np.cumsum(run[t:])[1:]
                # the sums are the walk up to the first clamp or meeting
                stop = (np.abs(sums) >= beta) | (sums.view(np.int64) == pattern[t + 1:])
                c = int(np.argmax(stop))
                if not stop[c]:
                    row[t + 1:] = sums
                    break
                row[t + 1:t + 1 + c] = sums[:c]
                t += c + 1
                e = np.float64(min(beta, max(-beta, float(sums[c]))))
        # every step is used, so w takes the walk
        w[:-1].reshape(lanes, _BLOCK)[:] = guess[:, :-1]
        w[-1] = guess[-1, -1]
        return DriftTrace(w[:n])


@dataclass(frozen=True)
class MarkovSource:
    """Bits whose zero-probability, given the previous k bits, stays within
    kappa of the base marginal p0.  The first k bits use the base marginal.

    ``table`` maps each k-bit history string to the probability of emitting 0.
    """

    k: int
    kappa: float
    p0: float
    table: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))
        object.__setattr__(self, "k", check_markov_k(self.k))
        _interval("kappa", self.kappa, 0, math.inf, "[]")
        _interval("p0", self.p0, 0, 1)
        want = 1 << self.k
        if len(self.table) != want:
            raise ValidationError(
                f"table must cover all {want} histories of length {self.k}, "
                f"got {len(self.table)} entries")
        for h, p in self.table.items():
            if len(h) != self.k or any(c not in "01" for c in h):
                raise ValidationError(f"bad history key {h!r}")
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"P(0|{h}) = {p} outside [0,1]")
            if abs(p - self.p0) > self.kappa + 1e-15:
                raise ValidationError(
                    f"P(0|{h}) = {p} deviates from p0 = {self.p0} by more than kappa = "
                    f"{self.kappa}")

    def cond_zero_probs(self) -> np.ndarray:
        """P(bit = 0 | history) indexed by the history's MSB-first integer value."""
        out = np.empty(1 << self.k, dtype=np.float64)
        for h, p in self.table.items():
            out[int(h, 2) if self.k else 0] = p
        return out


@dataclass(frozen=True)
class PairwiseSource:
    """Bits emitted as independent pairs; pair slot i draws from the i-th pair
    distribution (the list is cycled when the run is longer).

    Equality of the 01 and 10 weights is *not* required; whether a given list
    normalizes to uniform is for the exact-distribution machinery to decide.
    """

    pair_dists: tuple

    def __init__(self, pair_dists):
        dists = tuple(dict(d) for d in pair_dists)
        if not dists:
            raise ValidationError("need at least one pair distribution")
        for i, d in enumerate(dists):
            if set(d) != set(PAIR_KEYS):
                raise ValidationError(
                    f"pair distribution {i} must have exactly the keys {PAIR_KEYS}")
            if any(not v >= 0.0 for v in d.values()):  # NaN fails too
                raise ValidationError(f"pair distribution {i} has a negative or NaN weight")
            total = math.fsum(d.values())
            if not abs(total - 1.0) <= 1e-12:
                raise ValidationError(
                    f"pair distribution {i} sums to {total!r}, expected 1")
        object.__setattr__(self, "pair_dists", dists)

    def pair_matrix(self, pairs: int) -> np.ndarray:
        """(pairs, 4) matrix of pair probabilities in 00,01,10,11 order, cycled."""
        base = np.array([[d[k] for k in PAIR_KEYS] for d in self.pair_dists])
        reps = -(-pairs // len(base))
        return np.tile(base, (reps, 1))[:pairs]


SourceSpec = Union[ConstantSource, DriftingSource, MarkovSource, PairwiseSource]


def _bits_from_zero_probs(q0: np.ndarray, rng) -> BitString:
    # one uniform draw per bit, compared against the zero-probability
    u = rng.random(len(q0))
    return BitString.from_array((u >= q0).astype(np.uint8))


def _markov_bits(spec: MarkovSource, n: int, rng) -> np.ndarray:
    """Bit i is 1 iff uniform draw i >= P(0 | the previous k bits), or >= p0
    for the first k bits; bit-identical to a loop over i.

    The draws after the first k are cut into blocks of ``_BLOCK``, and one
    lockstep pass runs every block from a guessed history of 0.  The blocks
    are then repaired in order from the true history: once it equals the
    guessed one the rest of the block is already right, and until then a
    scalar loop over Python lists advances it.  The histories meet once k
    bits in a row come out the same on both sides.
    """
    k, mask, cond = spec.k, (1 << spec.k) - 1, spec.cond_zero_probs()
    head = min(k, n)
    lanes = -(-(n - head) // _BLOCK)
    u = np.zeros(head + lanes * _BLOCK)
    rng.random(out=u[:n])
    out = np.empty(n, dtype=np.uint8)
    out[:head] = u[:head] >= spec.p0
    h = int(out[:head] @ (1 << np.arange(head - 1, -1, -1)))
    draws = u[head:].reshape(lanes, _BLOCK)
    bits = np.empty((lanes, _BLOCK), dtype=np.uint8)
    # hist[j, t] is the guessed history before draw t of block j; k <= 16 fits
    hist = np.zeros((lanes, _BLOCK + 1), dtype=np.uint16)
    for t in range(_BLOCK):
        bits[:, t] = draws[:, t] >= cond[hist[:, t]]
        hist[:, t + 1] = ((hist[:, t] << 1) | bits[:, t]) & mask
    cl = cond.tolist()
    for j in range(lanes):
        if h != hist[j, 0]:
            ul, hl, fixed = draws[j].tolist(), hist[j].tolist(), bytearray()
            for t in range(_BLOCK):
                if h == hl[t]:
                    break
                bit = ul[t] >= cl[h]
                fixed.append(bit)
                h = ((h << 1) | bit) & mask
            bits[j, :len(fixed)] = np.frombuffer(fixed, dtype=np.uint8)
            if len(fixed) == _BLOCK:
                continue  # never met: h is already the true history
        h = int(hist[j, _BLOCK])
    out[head:] = bits.reshape(-1)[:n - head]
    return out


def sample(spec: SourceSpec, n: int, seed: int) -> tuple[BitString, Optional[DriftTrace]]:
    """Draw n bits from the model.  Pure in (spec, n, seed).

    A drifting source also returns its realized trace; other sources return
    None in the second slot.

    Each bit compares one uniform draw with its zero-probability.  The walk
    trace and the Markov bits are defined one step at a time; both are
    computed block-parallel (``DriftingSource._walk``, ``_markov_bits``) and
    are bit-identical to the step-by-step definitions.  A pairwise source
    draws one uniform per pair against that slot's cumulative weights.
    """
    n = _integer("n", n, 0)
    rng = np.random.default_rng(_integer("seed", seed, 0))

    if isinstance(spec, ConstantSource):
        return _bits_from_zero_probs(np.full(n, spec.p0), rng), None

    if isinstance(spec, DriftingSource):
        if spec.trajectory == "walk":
            trace = spec._walk(n, rng)  # consumes rng before the bit draws
        else:
            trace = spec.realized_trace(n)
        return _bits_from_zero_probs(spec.params.p0 - trace.epsilons, rng), trace

    if isinstance(spec, MarkovSource):
        return BitString.from_array(_markov_bits(spec, n, rng)), None

    if isinstance(spec, PairwiseSource):
        if n % 2:
            raise ValidationError("pairwise source emits whole pairs; n must be even")
        cum = np.cumsum(spec.pair_matrix(len(spec.pair_dists)), axis=1)
        u = rng.random(n // 2)
        slot = np.arange(n // 2) % len(cum)
        idx = np.zeros(n // 2, dtype=np.uint8)  # pair value 0..3
        for c in range(3):
            idx += u >= cum[slot, c]
        out = np.empty(n, dtype=np.uint8)
        out[0::2] = idx >> 1
        out[1::2] = idx & 1
        return BitString.from_array(out), None

    raise ValidationError(f"unknown source spec {spec!r}")


def sample_symbols(probs, n: int, seed: int) -> QaryString:
    """n i.i.d. symbols over an alphabet with the given probabilities."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or len(p) < 2:
        raise ValidationError("need at least two symbol probabilities")
    if not (p >= 0.0).all() or not abs(p.sum() - 1.0) <= 1e-12:  # NaN fails too
        raise ValidationError("symbol probabilities must be nonnegative and sum to 1")
    n = _integer("n", n, 0)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    cum = np.cumsum(p)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    return QaryString(np.minimum(idx, len(p) - 1), q=len(p))


def load_markov_table(path, k: int) -> dict:
    """Read a conditional table: one line per history, ``history p0``.

    For k = 0 the history field is the placeholder '-'.
    """
    table = {}
    for lineno, (field, p) in _records(path, 2):
        p = _number(path, lineno, p, "a probability")
        hist = "" if field == "-" else field
        if len(hist) != k or any(c not in "01" for c in hist):
            raise ValidationError(
                f"{path}: line {lineno}: history {field!r} is not a {k}-bit string")
        if hist in table:
            raise ValidationError(f"{path}: line {lineno}: duplicate history {field!r}")
        table[hist] = p
    return table


def load_pair_dists(path) -> list:
    """Read pair distributions: one line per pair slot, four weights in
    00 01 10 11 order."""
    return [dict(zip(PAIR_KEYS, (_number(path, lineno, v, "a weight") for v in fields)))
            for lineno, fields in _records(path, 4)]
