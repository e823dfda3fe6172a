"""Seeded, reproducible bit-source models.

Every source is a frozen dataclass; :func:`sample` is a pure function of
(spec, n, seed).  Randomness comes from numpy's default generator (PCG64),
seeded per call, so golden outputs in the test suite are stable.

Bits are drawn in chunks of ``_STREAM`` positions, whatever the source, and
:func:`sample` is the concatenation of those chunks; ``generate`` writes
each chunk as it comes, so its memory does not grow with n.  A source
carries its state from one chunk to the next: the walk its last offset,
the Markov sampler its k-bit history, the pairwise source its slot index.

For a drifting source, bit i is 0 with probability ``p0 - eps_i`` where the
per-bit offsets eps_i are capped in amplitude (|eps_i| <= beta) and in step
size (|eps_{i+1} - eps_i| <= delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Union

import numpy as np

from .bits import BitString, QaryString, _key_rank, _keyed_array, _write_rows, format_bits
from .errors import ValidationError, _integer, _interval
from .params import TRAJECTORIES, DriftParams

PAIR_KEYS = ("00", "01", "10", "11")

# a k-memory source tabulates 2**k histories; the cap keeps that table small
MAX_MARKOV_K = 16
_K_LIMIT = f"MAX_MARKOV_K = {MAX_MARKOV_K}"

# steps per lane of the walk's lockstep pass; also the most draws that the
# Markov sampler's one-bit sweep lists at once
_BLOCK = 1024

# draws per lane of the Markov sampler's lockstep pass.  No power of two:
# each lockstep step reads one draw per lane, _LANE * 8 bytes apart, and the
# pass ran slower at 64 and at 128 than at every width around them
_LANE = 136

# walkers that the Markov sampler leaves to its one-bit sweep rather than
# step all at once, at most
_FEW = 32

# the walk takes the lockstep pass when more than this share of its blocks,
# each summed from 0, reach a wall
_WALLS = 0.75

# blocks of the walk summed from 0 at a time to see which reach a wall:
# as many floats as the longest window of running sums in _walk_run
_REACH = 16

# steps per running sum of a walk with no clamp in sight, at most
_WINDOW = 1 << 14

# steps walked one at a time after a clamp, at most; a run of _SCALAR // 2
# without a clamp ends them
_SCALAR = 64

# bit positions per chunk of a run: 2 MiB per float64 array.  Even, so that a
# pairwise chunk holds whole pairs, and a multiple of _BLOCK.  A lockstep
# pass takes _LANE or _BLOCK Python-level steps per chunk, each an array
# operation over the chunk's lanes, which stay cheap against the chunk's
# array work only at this size or more
_STREAM = 1 << 18

# draws per sub-block of a chunk of a constant, drifting or pairwise source:
# 64 KiB per float64 buffer
_SUB = 1 << 13


def check_markov_k(k: int) -> int:
    """``k`` as an ``int``; rejects a memory length outside 0..MAX_MARKOV_K."""
    return _integer("memory length k", k, 0, MAX_MARKOV_K, _K_LIMIT)


def _records(path, width: int):
    """``(lineno, fields)`` for each line of a parameter file that is neither
    blank nor a ``#`` comment; every such line has ``width`` fields.  The
    file is UTF-8 text."""
    # undecodable bytes become lone surrogates, which no UTF-8 line holds
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError(f"{path}: line {lineno}: not UTF-8 text") from None
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != width:
                raise ValidationError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
            yield lineno, fields


def _mapping(value, name: str) -> dict:
    """``dict(value)``, or ValidationError if ``value`` is neither a mapping
    nor a sequence of key-value pairs."""
    try:
        return dict(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must map 0/1 strings to numbers, "
                              f"got a {type(value).__name__}") from None


def _number(path, lineno: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{path}: line {lineno}: not {what}: {text!r}") from None


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
        """Write one decimal offset per line, as ``repr`` prints it, to a
        path, an open binary file or an open text file."""
        _save_offsets(path, self.epsilons)

    @classmethod
    def load(cls, path) -> "DriftTrace":
        """Read one decimal offset per line; blank and ``#`` lines are skipped."""
        return cls([_number(path, i, f[0], "a decimal offset") for i, f in _records(path, 1)])


def _save_offsets(file, eps: np.ndarray) -> None:
    """Write ``eps`` one decimal offset per line, as ``repr`` prints it, to a
    path, an open binary file or an open text file; chunks of a trace
    written in order make the trace's file."""
    _write_rows(file, "", [("%r\n", [eps], 0)])


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
    return DriftTrace(_adversarial(params, 0, _integer("n", n, 0)))


def _adversarial(params: DriftParams, lo: int, hi: int) -> np.ndarray:
    """Offsets lo + 1 .. hi of the adversarial trace."""
    if params.p0 > params.p1:
        cap, back = -params.beta, -params.beta + params.delta
    else:
        cap, back = params.beta, params.beta - params.delta
    eps = np.full(hi - lo, back)
    eps[lo % 2::2] = cap  # the odd 1-based positions
    return eps


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
        return DriftTrace(self._offsets(0, self._deterministic(n)))

    def _deterministic(self, n: int) -> int:
        """``n`` as an ``int``, once the trajectory is known to fix ``n``
        offsets: it is not a walk, and a fixed trace is long enough."""
        n = _integer("n", n, 0)
        if self.trajectory == "walk":
            raise ValidationError("walk trajectory has no deterministic trace; use sine, fixed, "
                                  "or adversarial (or fix the realized trace of a sampled run)")
        if self.trajectory == "fixed" and len(self.trace) < n:
            raise ValidationError(f"fixed trace has {len(self.trace)} entries, need {n}")
        return n

    def _offsets(self, lo: int, hi: int) -> np.ndarray:
        """Offsets lo + 1 .. hi of a deterministic trajectory checked by
        :meth:`_deterministic`; a fixed trace's are a read-only view."""
        if self.trajectory == "fixed":
            return self.trace.epsilons[lo:hi]
        if self.trajectory == "adversarial":
            return _adversarial(self.params, lo, hi)
        # beta * sin(2 pi i / period), one operation at a time in place
        eps = np.arange(lo + 1, hi + 1, dtype=np.float64)
        eps *= 2.0 * math.pi
        eps /= self.period
        np.sin(eps, out=eps)
        eps *= self.params.beta
        return eps


def _walk(w: np.ndarray, beta: float) -> None:
    """Walk in place.  On entry w[0] is the start offset and w[i + 1] is
    step i; on exit w[i] is the offset after i steps of
    eps -> min(beta, max(-beta, eps + step)), bit-identical to running that
    recurrence one step at a time.  ``len(w) - 1`` is a multiple of
    ``_BLOCK``.

    Between clamps the walk is a running sum (``np.cumsum`` adds left to
    right, as the loop did).  Each block of ``_BLOCK`` steps is first summed
    from 0 (:func:`_reaching`).  A block whose sum never reaches a wall
    never clamps, so a walk guessed from 0 there cannot meet the true walk
    from another start.  Unless more than a share ``_WALLS`` of the blocks
    reach a wall, the walk runs in place from the true start through the
    chunk (:func:`_walk_run`).  Otherwise a (blocks, ``_BLOCK`` + 1) buffer
    of guesses is made, and one lockstep pass walks block 0 from the true
    start and every other block from a guessed start of 0; the blocks are
    then repaired in order from the true start.  The step map is monotone
    and deterministic, so once the true walk meets the guessed one the rest
    of the block is already right; a walk that clamps often meets its guess
    in few steps.
    """
    lanes = (len(w) - 1) // _BLOCK
    steps = w[1:].reshape(lanes, _BLOCK)
    if _reaching(steps, beta) <= _WALLS * lanes:
        _walk_run(w, w, float(w[0]), beta, np.empty(min(len(w) - 1, _WINDOW) + 1))
        return
    # guess[j, t] is the offset after j * _BLOCK + t steps, walked from guess[j, 0]
    guess = np.empty((lanes, _BLOCK + 1))
    guess[:, 0] = 0.0
    guess[0, 0] = w[0]
    nxt = np.empty(lanes)
    for t in range(_BLOCK):
        np.add(guess[:, t], steps[:, t], out=nxt)
        nxt[nxt <= -beta] = -beta  # ties fall as in min(beta, max(-beta, x))
        nxt[nxt >= beta] = beta
        guess[:, t + 1] = nxt
    # block 0 is already right; block j starts at block j-1's end
    scratch = np.empty(_BLOCK + 1)
    for j in range(1, lanes):
        _walk_run(guess[j], w[j * _BLOCK:(j + 1) * _BLOCK + 1], float(guess[j - 1, _BLOCK]),
                  beta, scratch, meet=True)
    # every step is used, so w takes the walk
    w[:-1].reshape(lanes, _BLOCK)[:] = guess[:, :-1]
    w[-1] = guess[-1, -1]


def _reaching(steps: np.ndarray, beta: float) -> int:
    """How many rows of ``steps``, each summed from 0, reach a wall.  The
    rows are summed ``_REACH`` at a time in one buffer, freed on return."""
    sums = np.empty((min(len(steps), _REACH), steps.shape[1]))
    reach = 0
    for r in range(0, len(steps), _REACH):
        part = np.cumsum(steps[r:r + _REACH], axis=1, out=sums[:len(steps) - r])
        reach += int(np.count_nonzero((part.max(axis=1) >= beta) | (part.min(axis=1) <= -beta)))
    return reach


def _same(a: float, b: float) -> bool:
    """``a`` and ``b`` are the same float, signed zeros apart."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _walk_run(out: np.ndarray, steps: np.ndarray, e: float, beta: float,
              scratch: np.ndarray, meet: bool = False) -> None:
    """out[i] = the offset after i of the steps steps[1], steps[2], ...,
    walked from out[0] = e; steps[i] is overwritten once offset i is known,
    and ``steps`` may be ``out`` itself, to walk in place.  With ``meet``,
    ``out`` holds a guessed walk on entry, and the run stops where it meets
    that walk bit for bit, at a clamp or in the steps walked one at a time
    after one: the rest of ``out`` is then already right.

    The walk is a running sum up to its next clamp, taken over windows of
    ``_BLOCK`` steps that double, up to ``_WINDOW``, while no clamp comes.
    Each window is summed into ``scratch``, of at least
    ``min(len(out) - 1, _WINDOW) + 1`` floats, and only the sums before its
    first clamp are copied out, so the steps past a clamp are still there
    to be read.  Clamps come in runs at a wall, so after one the next
    ``_SCALAR`` steps at most are walked as Python floats, until
    ``_SCALAR // 2`` in a row do not clamp.
    """
    n, t, m = len(out) - 1, 0, _BLOCK
    out[0] = e
    while t < n:
        # out[t] == e is the walk after t steps: a running sum up to the
        # next clamp (with ``meet``, out holds the guess beyond t)
        m = min(m, n - t)
        steps[t] = e
        sums = np.cumsum(steps[t:t + m + 1], out=scratch[:m + 1])[1:]
        hit = np.abs(sums) >= beta
        c = int(np.argmax(hit))
        if not hit[c]:
            out[t + 1:t + m + 1] = sums
            t, e, m = t + m, float(sums[-1]), min(2 * m, _WINDOW)
            continue
        out[t + 1:t + 1 + c] = sums[:c]
        t, e = t + c + 1, beta if sums[c] >= beta else -beta
        if meet and _same(e, float(out[t])):
            return
        out[t] = e
        # clamps come in runs at a wall: walk the next steps as Python floats
        walked, quiet = [], 0
        guessed = out[t + 1:t + 1 + _SCALAR].tolist() if meet else ()
        for s in steps[t + 1:t + 1 + _SCALAR].tolist():
            x = e + s
            if -beta < x < beta:
                e, quiet = x, quiet + 1
            else:
                e, quiet = beta if x >= beta else -beta, 0
            if meet and _same(e, guessed[len(walked)]):
                out[t + 1:t + 1 + len(walked)] = walked
                return
            walked.append(e)
            if quiet == _SCALAR // 2:
                break
        out[t + 1:t + 1 + len(walked)] = walked
        t, m = t + len(walked), _BLOCK


@dataclass(frozen=True)
class MarkovSource:
    """Bits whose zero-probability, given the previous k bits, stays within
    kappa of the base marginal p0.  The first k bits use the base marginal.

    ``table`` maps each k-bit history string to the probability of emitting 0;
    it is kept as a read-only view, validated once into the array that
    :meth:`cond_zero_probs` returns.
    """

    k: int
    kappa: float
    p0: float
    table: Mapping[str, float]
    _cond: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = _mapping(self.table, "table")
        object.__setattr__(self, "table", MappingProxyType(table))
        object.__setattr__(self, "k", check_markov_k(self.k))
        _interval("kappa", self.kappa, 0, math.inf, "[]")
        _interval("p0", self.p0, 0, 1)
        want = 1 << self.k
        if len(table) != want:
            raise ValidationError(
                f"table must cover all {want} histories of length {self.k}, "
                f"got {len(table)} entries")
        p = _keyed_array(table, self.k, "table", "bad history key {!r}")
        for bad, what in ((~((p >= 0.0) & (p <= 1.0)), "outside [0,1]"),  # NaN too
                          (np.abs(p - self.p0) > self.kappa + 1e-15,
                           f"deviates from p0 = {self.p0} by more than kappa = {self.kappa}")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValidationError(f"P(0|{format_bits(i, self.k)}) = {p[i]} {what}")
        p.flags.writeable = False
        object.__setattr__(self, "_cond", p)

    def cond_zero_probs(self) -> np.ndarray:
        """P(bit = 0 | history) indexed by the history's MSB-first integer
        value, as a read-only array."""
        return self._cond


@dataclass(frozen=True)
class PairwiseSource:
    """Bits emitted as independent pairs; pair slot i draws from the i-th pair
    distribution (the list is cycled when the run is longer).

    Each distribution is kept as a read-only view of its own copy,
    validated once into the matrix that :meth:`pair_matrix` tiles.
    Equality of the 01 and 10 weights is *not* required; whether a given list
    normalizes to uniform is for the exact-distribution machinery to decide.
    """

    pair_dists: tuple
    _w: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, pair_dists):
        dists = tuple(MappingProxyType(_mapping(d, f"pair_dists[{i}]"))
                      for i, d in enumerate(pair_dists))
        if not dists:
            raise ValidationError("need at least one pair distribution")
        w = np.array([_keyed_array(d, 2, f"pair_dists[{i}]", f"pair distribution {i} "
                                   f"must have exactly the keys {PAIR_KEYS}")
                      for i, d in enumerate(dists)])  # one row per slot
        bad = ~(w >= 0.0).all(axis=1)  # NaN fails too
        if bad.any():
            raise ValidationError(
                f"pair distribution {int(np.argmax(bad))} has a negative or NaN weight")
        total = w.sum(axis=1)
        bad = ~(np.abs(total - 1.0) <= 1e-12)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"pair distribution {i} sums to {float(total[i])!r}, expected 1")
        w.flags.writeable = False
        object.__setattr__(self, "pair_dists", dists)
        object.__setattr__(self, "_w", w)

    def pair_matrix(self, pairs: int) -> np.ndarray:
        """(pairs, 4) matrix of pair probabilities in 00,01,10,11 order, cycled."""
        return np.tile(self._w, (-(-pairs // len(self._w)), 1))[:pairs]


SourceSpec = Union[ConstantSource, DriftingSource, MarkovSource, PairwiseSource]


def _spans(n: int):
    """``(lo, hi)`` of each chunk of an n-bit run, in order."""
    return ((lo, min(lo + _STREAM, n)) for lo in range(0, n, _STREAM))


def _shift_in(h: int, bits: np.ndarray, mask: int) -> int:
    """The history ``h`` after the bits ``bits``, keeping ``mask``'s bits."""
    for bit in bits.tolist():
        h = ((h << 1) | bit) & mask
    return h


def _walk_chunks(params: DriftParams, n: int, rng):
    """The offsets of an n-bit walk, one array per chunk: eps_1 = 0, then one
    step uniform in [-delta, delta] from ``rng`` per offset.  Each chunk's
    walk starts from the last offset of the chunk before."""
    beta, delta = params.beta, params.delta
    w = np.zeros(max(1, -(-min(n, _STREAM) // _BLOCK)) * _BLOCK + 1)
    for lo, hi in _spans(n):
        first = int(lo == 0)  # chunk 0 holds eps_1 itself, so one step fewer
        s = hi - lo - first
        rows = max(1, -(-s // _BLOCK))
        # what Generator.uniform(-delta, delta) draws: low + (high - low) * u
        steps = w[1:s + 1]
        rng.random(out=steps)
        steps *= delta - -delta
        steps += -delta
        # past step s, w holds the last chunk's steps: they move only
        # offsets that are never read
        _walk(w[:rows * _BLOCK + 1], beta)
        yield w[1 - first:s + 1]
        w[0] = w[s]


def _bernoulli_chunks(p0: float, offsets, n: int, draws):
    """Bit i is 1 iff uniform draw i from ``draws`` >= p0 - eps_i, the
    offsets coming one array per chunk from ``offsets``; each chunk's
    zero-probabilities and draws are made ``_SUB`` at a time, in order."""
    u, q0 = np.empty((2, min(n, _SUB)))
    bits = np.empty(min(n, _STREAM), dtype=np.uint8)
    for eps in offsets:
        for lo in range(0, len(eps), _SUB):
            m = min(_SUB, len(eps) - lo)
            np.subtract(p0, eps[lo:lo + m], out=q0[:m])
            draws.random(out=u[:m])
            np.greater_equal(u[:m], q0[:m], out=bits[lo:lo + m])
        yield bits[:len(eps)], eps


def _markov_bits(draws: np.ndarray, h: int, cond: np.ndarray, cl: list,
                 bits: np.ndarray, hist: np.ndarray) -> None:
    """bits[j, t] = 1 iff draws[j, t] >= cond[the k-bit history before it],
    the draws read row by row after the history ``h``; bit-identical to a
    loop over the draws.  ``cl`` is ``cond`` as a list, and ``hist`` a
    (lane + 1, rows) uint16 scratch buffer (k <= 16 fits) for (rows, lane)
    draws.

    One lockstep pass runs lane 0 from ``h`` and every other lane from a
    guessed history of 0.  Lane j's true start is lane j - 1's end, and
    once a lane's history equals the guessed one the rest of the lane is
    already right: the histories meet once k bits in a row come out the
    same on both sides.  Each lane that starts wrong then gets a walker
    from the end of the lane before.  The walkers draw at once, a lane
    apart, so the first holds the true history; one unmet at the end of
    its lane carries on into the next.  A met walker only redraws what is
    stored, so met walkers are dropped once half have met.  Once few are
    left, or fewer than 1/16 meet within a lane (a deterministic table
    never meets), the rest is drawn bit by bit (:func:`_markov_sweep`).
    """
    rows, lane = draws.shape
    mask = len(cl) - 1
    # hist[t, j] is the guessed history before draw t of lane j
    hist[0] = 0
    hist[0, 0] = h
    p, one, nxt = np.empty(rows), np.empty(rows, dtype=bool), np.empty(rows, dtype=np.uint16)
    for t in range(lane):
        np.take(cond, hist[t], out=p)
        np.greater_equal(draws[:, t], p, out=one)
        bits[:, t] = one
        np.left_shift(hist[t], 1, out=nxt)
        nxt |= one
        np.bitwise_and(nxt, mask, out=hist[t + 1])
    u, b, g = draws.reshape(-1), bits.reshape(-1), hist.reshape(-1)
    # a walker for each lane j that starts wrong: its next draw u[i], the
    # guessed history g[at] before it and its own history hc
    q = np.flatnonzero(hist[0, 1:] != hist[lane, :-1]) + 1
    i, at, hc = q * lane, q, hist[lane, q - 1]
    while len(i) > _FEW:
        live = len(i)
        g[at] = hc
        for _ in range(lane):
            up = u[i] >= cond[hc]
            b[i] = up
            hc = ((hc << 1) | up) & mask
            i += 1
            at += rows
            same = hc == g[at]
            g[at] = hc
            if 2 * np.count_nonzero(same) >= len(same):
                i, at, hc, same = i[~same], at[~same], hc[~same], same[~same]
                if not len(i):
                    break
        left = len(i) - int(np.count_nonzero(same))
        # on into the next lane, unless it starts right or the chunk ends
        at -= lane * rows - 1
        on = ~same & (at < rows) & (hc != g[at])
        i, at, hc = i[on], at[on], hc[on]
        if 16 * (live - left) < live:
            break
    if len(i):
        _markov_sweep(draws, int(hc[0]), cl, bits, hist, at)


def _markov_sweep(draws: np.ndarray, h: int, cl: list, bits: np.ndarray,
                  hist: np.ndarray, wrong: np.ndarray) -> None:
    """Finish the bits of lanes wrong[0], wrong[0] + 1, ... one at a time
    from the true history ``h`` before lane wrong[0].  Each lane is a walk
    from its guessed start, and the lanes ``wrong`` are those that do not
    start where the lane before ends.  A lane stops as soon as its history
    meets the guessed one; the next lane to draw is then the next wrong one.
    """
    rows, lane = draws.shape
    mask = len(cl) - 1
    wrong = iter(wrong.tolist())
    j, group = next(wrong), 1
    while j < rows:
        # lanes listed at a time: one after a meeting, more while none meets
        group = min(group, rows - j)
        ul, hl = draws[j:j + group].ravel().tolist(), hist[:, j:j + group].T.ravel().tolist()
        out = bytearray(bits[j:j + group].tobytes())
        met = None
        for r in range(group):
            # hl[i + r] is the guessed history before draw i
            for i in range(r * lane, (r + 1) * lane):
                if h == hl[i + r]:
                    met = j + r
                    break
                if ul[i] >= cl[h]:
                    out[i] = 1
                    h = ((h << 1) | 1) & mask
                else:
                    out[i] = 0
                    h = (h << 1) & mask
            if met is not None:
                break
        bits[j:j + group] = np.frombuffer(out, dtype=np.uint8).reshape(group, lane)
        if met is None:  # h is already the true history
            j, group = j + group, min(2 * group, max(1, _BLOCK // lane))
            continue
        while j <= met:
            j = next(wrong, rows)
        h, group = int(hist[lane, j - 1]), 1


def _markov_chunks(spec: MarkovSource, n: int, rng):
    """Bit i is 1 iff uniform draw i >= P(0 | the previous k bits), or >= p0
    for the first k bits of the run; the history carries over from chunk to
    chunk.  A chunk's draws after its first k are cut into lanes of
    ``_LANE`` and drawn once (:func:`_markov_bits`)."""
    k, cond = spec.k, spec.cond_zero_probs()
    cl, mask = cond.tolist(), len(cond) - 1
    # the head's draws sit before the lanes, which may run past the chunk
    rows = -(-min(n, _STREAM) // _LANE)
    u = np.zeros(k + rows * _LANE)
    bits = np.empty(len(u), dtype=np.uint8)
    hist = np.empty(rows * (_LANE + 1), dtype=np.uint16)
    h = 0
    for lo, hi in _spans(n):
        m = hi - lo
        rng.random(out=u[:m])
        head = min(max(k - lo, 0), m)
        np.greater_equal(u[:head], spec.p0, out=bits[:head])
        h = _shift_in(h, bits[:head], mask)
        if m > head:
            rows = -(-(m - head) // _LANE)
            lanes = slice(head, head + rows * _LANE)
            _markov_bits(u[lanes].reshape(rows, _LANE), h, cond, cl,
                         bits[lanes].reshape(rows, _LANE),
                         hist[:rows * (_LANE + 1)].reshape(_LANE + 1, rows))
        h = _shift_in(h, bits[max(head, m - k):m], mask)
        yield bits[:m], None


def _pairwise_chunks(spec: PairwiseSource, n: int, rng):
    """One uniform draw per pair against its slot's cumulative weights,
    ``_SUB`` pairs at a time; the slot index carries over from one block of
    pairs to the next, and chunk lengths are even."""
    cum = np.cumsum(spec._w, axis=1)
    sub = min(n // 2, _SUB)
    u, cut = np.empty((2, sub))
    slot = np.arange(sub) % len(cum)  # of each pair in the block
    idx, up = np.empty((2, sub), dtype=np.uint8)  # pair value 0..3
    bits = np.empty(min(n, _STREAM), dtype=np.uint8)
    for lo, hi in _spans(n):
        for s in range(0, (hi - lo) // 2, sub):
            p = min(sub, (hi - lo) // 2 - s)
            rng.random(out=u[:p])
            idx[:p] = 0
            for c in range(3):
                np.take(cum[:, c], slot[:p], out=cut[:p])
                np.greater_equal(u[:p], cut[:p], out=up[:p])
                idx[:p] += up[:p]
            np.right_shift(idx[:p], 1, out=bits[2 * s:2 * (s + p):2])
            np.bitwise_and(idx[:p], 1, out=bits[2 * s + 1:2 * (s + p):2])
            slot += p
            slot %= len(cum)
        yield bits[:hi - lo], None


def _chunks(spec: SourceSpec, n: int, seed: int):
    """Check (spec, n, seed), then return an iterator over the run's chunks
    of ``_STREAM`` bits (the last may be shorter), each ``(bits, eps)``:
    the chunk's 0/1 ``uint8`` bits and, for a drifting source, its offsets
    (None for other sources).  Both are buffers the iterator reuses, so read
    a chunk before asking for the next.  Every source draws from one
    ``default_rng(seed)``; a constant source, and a k = 0 Markov source, is
    a drifting one whose offsets are all zero."""
    n = _integer("n", n, 0)
    seed = _integer("seed", seed, 0)
    draws = np.random.default_rng(seed)
    if isinstance(spec, ConstantSource) or isinstance(spec, MarkovSource) and spec.k == 0:
        # a k = 0 Markov source has no history, so its one P(0) is its p0.
        # The offsets are read-only zeros that take no memory: p0 - 0.0 == p0
        p0 = spec.p0 if isinstance(spec, ConstantSource) else spec.cond_zero_probs()[0]
        zeros = (np.broadcast_to(0.0, (hi - lo,)) for lo, hi in _spans(n))
        return ((bits, None) for bits, _ in _bernoulli_chunks(p0, zeros, n, draws))
    if isinstance(spec, DriftingSource):
        if spec.trajectory == "walk":
            # the walk's n - 1 steps come first in the seed's stream, then one
            # draw per bit: a second generator walks the steps, and the
            # draws skip them
            offsets = _walk_chunks(spec.params, n, np.random.default_rng(seed))
            draws.bit_generator.advance(max(n - 1, 0))
        else:
            spec._deterministic(n)
            offsets = (spec._offsets(lo, hi) for lo, hi in _spans(n))
        return _bernoulli_chunks(spec.params.p0, offsets, n, draws)
    if isinstance(spec, MarkovSource):
        return _markov_chunks(spec, n, draws)
    if isinstance(spec, PairwiseSource):
        if n % 2:
            raise ValidationError("pairwise source emits whole pairs; n must be even")
        return _pairwise_chunks(spec, n, draws)
    raise ValidationError(f"unknown source spec {spec!r}")


def sample(spec: SourceSpec, n: int, seed: int) -> tuple[BitString, Optional[DriftTrace]]:
    """Draw n bits from the model.  Pure in (spec, n, seed).

    A drifting source also returns its realized trace; other sources return
    None in the second slot.

    The result is the concatenation of the run's chunks.  Each bit compares
    one uniform draw with its zero-probability.  The walk trace and the
    Markov bits are defined one step at a time; both are computed
    block-parallel (``_walk``, ``_markov_bits``) from the state the chunk
    before left, and are bit-identical to the step-by-step definitions.  A
    walk draws its n - 1 steps before its n bit draws.  A pairwise source
    draws one uniform per pair against that slot's cumulative weights.
    """
    n = _integer("n", n, 0)
    bits = np.empty(n, dtype=np.uint8)
    eps = np.empty(n) if isinstance(spec, DriftingSource) else None
    lo = 0
    for b, e in _chunks(spec, n, seed):
        bits[lo:lo + len(b)] = b
        if eps is not None:
            eps[lo:lo + len(b)] = e
        lo += len(b)
    return BitString._of(bits.tobytes()), None if eps is None else DriftTrace(eps)


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
        if _key_rank(hist, k) < 0:
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
