import tracemalloc

import numpy as np
import pytest

from debias import (BitString, ConstantSource, DriftParams, DriftTrace,
                    DriftingSource, MarkovSource, PairwiseSource,
                    ValidationError, adversarial_trace, normalized_dist, sample,
                    sample_symbols, validate_trace)
from debias import sources
from debias.sources import _BLOCK as BLOCK
from debias.sources import _LANE as LANE
from debias.sources import _STREAM as STREAM
from debias.sources import PAIR_KEYS, _save_offsets, load_markov_table, load_pair_dists
from string_oracles import trace_text


def test_drift_params_invariants():
    DriftParams(0.5, 0.1, 0.01)
    with pytest.raises(ValidationError):
        DriftParams(1.2, 0.1, 0.01)
    with pytest.raises(ValidationError):
        DriftParams(0.5, 0.6, 0.01)   # beta >= min(p0, p1)
    with pytest.raises(ValidationError):
        DriftParams(0.9, 0.15, 0.01)  # beta >= p1
    with pytest.raises(ValidationError):
        DriftParams(0.5, 0.1, 0.2)    # delta > beta
    with pytest.raises(ValidationError):
        DriftParams(0.5, -0.1, 0.0)


def test_sample_deterministic():
    specs = [
        ConstantSource(0.7),
        DriftingSource(DriftParams(0.5, 0.1, 0.01)),
        MarkovSource(k=1, kappa=0.1, p0=0.5, table={"0": 0.55, "1": 0.45}),
        PairwiseSource([{"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}]),
    ]
    for spec in specs:
        a, ta = sample(spec, 512, seed=99)
        b, tb = sample(spec, 512, seed=99)
        assert a == b
        assert (ta is None and tb is None) or ta == tb
        c, _ = sample(spec, 512, seed=100)
        assert c != a  # overwhelmingly


def test_sample_empty():
    bits, trace = sample(ConstantSource(0.3), 0, seed=1)
    assert bits == BitString("")
    assert trace is None


def test_constant_balance_million():
    bits, _ = sample(ConstantSource(0.5), 10**6, seed=20177)
    ones = bits.count(1)
    assert abs(ones - 500_000) <= 2000  # 4 sigma, sigma = 500


def test_constant_bias_direction():
    bits, _ = sample(ConstantSource(0.9), 10**5, seed=3)
    # zeros should dominate at p0 = 0.9
    assert bits.count(0) > 85_000


def test_walk_trace_is_legal():
    spec = DriftingSource(DriftParams(0.5, 0.1, 0.01), trajectory="walk")
    bits, trace = sample(spec, 1000, seed=5)
    assert len(bits) == len(trace) == 1000
    assert np.abs(trace.epsilons).max() <= 0.1
    assert np.abs(trace.gammas).max() <= 0.01
    assert validate_trace(trace, spec.params) is None


def test_sine_trajectory():
    params = DriftParams(0.5, 0.1, 0.01)
    spec = DriftingSource(params, trajectory="sine", period=100.0)
    _, trace = sample(spec, 500, seed=1)
    assert validate_trace(trace, params) is None
    with pytest.raises(ValidationError):
        # beta * 2 pi / period > delta
        DriftingSource(params, trajectory="sine", period=10.0)
    for period in (np.nan, 0.0, -100.0):
        with pytest.raises(ValidationError, match="period must be > 0"):
            DriftingSource(params, trajectory="sine", period=period)


def test_fixed_trajectory():
    params = DriftParams(0.5, 0.1, 0.01)
    trace = DriftTrace([0.05, 0.055, 0.06])
    spec = DriftingSource(params, trajectory="fixed", trace=trace)
    bits, realized = sample(spec, 3, seed=8)
    assert realized == trace
    with pytest.raises(ValidationError):
        sample(spec, 10, seed=8)  # trace too short
    with pytest.raises(ValidationError):
        DriftingSource(params, trajectory="fixed", trace=DriftTrace([0.2]))
    with pytest.raises(ValidationError):
        DriftingSource(params, trajectory="fixed")  # no trace given


def test_adversarial_examples():
    t = adversarial_trace(DriftParams(0.5, 0.1, 0.01), 4)
    assert np.allclose(t.epsilons, [0.1, 0.09, 0.1, 0.09])
    t = adversarial_trace(DriftParams(0.7, 0.1, 0.02), 2)
    assert np.allclose(t.epsilons, [-0.1, -0.08])
    t = adversarial_trace(DriftParams(0.4, 0.05, 0.0), 5)
    assert np.allclose(t.epsilons, [0.05] * 5)
    assert np.allclose(t.gammas, 0.0)


def test_adversarial_is_legal_and_sampled():
    params = DriftParams(0.45, 0.08, 0.004)
    trace = adversarial_trace(params, 101)
    assert validate_trace(trace, params) is None
    spec = DriftingSource(params, trajectory="adversarial")
    _, realized = sample(spec, 101, seed=0)
    assert realized == trace


def test_validate_trace_reports():
    params = DriftParams(0.5, 0.1, 0.01)
    assert validate_trace(DriftTrace([0.05, 0.05]), params) is None
    v = validate_trace(DriftTrace([0.05, 0.08]), params)
    assert v.kind == "speed" and v.index == 1
    assert v.value == pytest.approx(0.03)
    assert "0.03" in str(v)
    v = validate_trace(DriftTrace([0.15]), params)
    assert v.kind == "amplitude" and v.index == 1
    # NaN lies within no bound
    v = validate_trace(DriftTrace([0.0, np.nan, 0.0]), params)
    assert v.kind == "amplitude" and v.index == 2
    assert validate_trace(DriftTrace([0.0, np.inf]), params).index == 2


def test_markov_validation():
    with pytest.raises(ValidationError):
        MarkovSource(k=1, kappa=0.01, p0=0.5, table={"0": 0.55, "1": 0.45})  # off-band
    with pytest.raises(ValidationError):
        MarkovSource(k=1, kappa=0.1, p0=0.5, table={"0": 0.5})  # missing history
    with pytest.raises(ValidationError):
        MarkovSource(k=1, kappa=0.1, p0=0.5, table={"0": 0.5, "x": 0.5})
    with pytest.raises(ValidationError):
        MarkovSource(k=0, kappa=0.6, p0=0.5, table={"": 1.2})
    for k in (-1, 17):  # outside 0..MAX_MARKOV_K, before any table is built
        with pytest.raises(ValidationError, match="MAX_MARKOV_K = 16"):
            MarkovSource(k=k, kappa=0.1, p0=0.5, table={})


def test_markov_table_is_a_read_only_view_of_one_validated_array():
    given = {"0": 0.55, "1": 0.45}
    spec = MarkovSource(k=1, kappa=0.1, p0=0.5, table=given)
    given["0"] = 0.9  # the source keeps its own copy
    assert spec.table == {"0": 0.55, "1": 0.45} and len(spec.table) == 2
    assert spec.table["1"] == 0.45 and sorted(spec.table.values()) == [0.45, 0.55]
    with pytest.raises(TypeError):
        spec.table["0"] = 0.9
    p = spec.cond_zero_probs()
    assert p is spec.cond_zero_probs() and p.tolist() == [0.55, 0.45]
    with pytest.raises(ValueError):
        p[0] = 0.9
    assert spec == MarkovSource(k=1, kappa=0.1, p0=0.5, table={"1": 0.45, "0": 0.55})
    assert "_cond" not in repr(spec)


def test_pair_dists_are_read_only_views_of_one_validated_matrix():
    given = [{"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}]
    spec = PairwiseSource(given)
    given[0]["00"] = 0.9  # the source keeps its own copy
    assert spec.pair_dists == (dict.fromkeys(PAIR_KEYS, 0.25),)
    # a weight written after validation could make sample() return all
    # ones (a negative weight) or normalized_dist() return a table (5.0)
    for bad in (-0.5, 5.0):
        with pytest.raises(TypeError):
            spec.pair_dists[0]["00"] = bad
    with pytest.raises(ValueError):
        spec._w[0, 0] = -0.5
    assert sample(spec, 8, 1) == sample(PairwiseSource(
        [dict.fromkeys(PAIR_KEYS, 0.25)]), 8, 1)
    assert normalized_dist(spec, 4, 1).probs.tolist() == [0.5, 0.5]
    assert spec == PairwiseSource([dict.fromkeys(PAIR_KEYS, 0.25)])
    assert "_w" not in repr(spec)


def test_markov_conditional_frequencies():
    table = {"00": 0.55, "01": 0.48, "10": 0.52, "11": 0.45}
    spec = MarkovSource(k=2, kappa=0.06, p0=0.5, table=table)
    bits, _ = sample(spec, 10**6, seed=42)
    arr = bits.to_array()
    hist = (arr[:-2].astype(np.int64) << 1) | arr[1:-1]
    nxt = arr[2:]
    for h_val, h_str in enumerate(["00", "01", "10", "11"]):
        sel = hist == h_val
        n_h = int(sel.sum())
        p_hat = 1.0 - nxt[sel].mean()  # empirical P(0 | history)
        p = table[h_str]
        sigma = np.sqrt(p * (1 - p) / n_h)
        assert abs(p_hat - p) <= 4 * sigma


def test_pairwise_validation():
    with pytest.raises(ValidationError):
        PairwiseSource([])
    with pytest.raises(ValidationError):
        PairwiseSource([{"00": 0.5, "01": 0.5}])
    with pytest.raises(ValidationError):
        PairwiseSource([{"00": 0.5, "01": 0.2, "10": 0.2, "11": 0.2}])
    with pytest.raises(ValidationError):
        PairwiseSource([{"00": -0.1, "01": 0.5, "10": 0.3, "11": 0.3}])


def test_pairwise_frequencies():
    d1 = {"00": 0.0, "01": 1 / 3, "10": 2 / 3, "11": 0.0}
    d2 = {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}
    spec = PairwiseSource([d1, d2])
    bits, _ = sample(spec, 2 * 10**5, seed=11)
    arr = bits.to_array()
    pairs = (arr[0::2].astype(np.int64) << 1) | arr[1::2]
    for slot, dist in ((0, d1), (1, d2)):
        sel = pairs[slot::2]
        n = len(sel)
        for val, key in enumerate(["00", "01", "10", "11"]):
            p = dist[key]
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs((sel == val).mean() - p) <= 4 * sigma + 1e-9


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_draw_equal_to_threshold_goes_up(seed):
    # a bit (or pair value) moves past a cumulative weight when the uniform
    # draw is >= it: a draw exactly on the threshold must land above it
    u0 = np.random.default_rng(seed).random()
    w = (1.0 - u0) / 3.0
    pair = PairwiseSource([{"00": u0, "01": w, "10": w, "11": w}])
    assert sample(pair, 2, seed)[0] == BitString("01")
    assert sample(ConstantSource(u0), 1, seed)[0] == BitString("1")
    markov = MarkovSource(0, 0.0, u0, {"": u0})
    assert sample(markov, 1, seed)[0] == BitString("1")


def test_pairwise_odd_length_rejected():
    spec = PairwiseSource([{"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}])
    with pytest.raises(ValidationError):
        sample(spec, 5, seed=1)


def test_sample_symbols():
    x = sample_symbols([0.5, 0.3, 0.2], 50_000, seed=9)
    assert len(x) == 50_000 and x.q == 3
    counts = np.bincount(x.symbols, minlength=3)
    for i, p in enumerate([0.5, 0.3, 0.2]):
        sigma = np.sqrt(p * (1 - p) * 50_000)
        assert abs(counts[i] - p * 50_000) <= 4 * sigma
    assert sample_symbols([0.5, 0.5], 10, seed=1) == sample_symbols([0.5, 0.5], 10, seed=1)
    with pytest.raises(ValidationError):
        sample_symbols([0.7, 0.2], 10, seed=1)  # does not sum to 1


def test_trace_file_round_trip(tmp_path):
    trace = DriftTrace([0.01, -0.02, 0.0305])
    path = tmp_path / "trace.txt"
    trace.save(path)
    assert DriftTrace.load(path) == trace
    (tmp_path / "bad.txt").write_text("0.01\nnope\n")
    with pytest.raises(ValidationError):
        DriftTrace.load(tmp_path / "bad.txt")


def save_markov_table(table, path) -> None:
    """Write ``table`` as the ``history p0`` lines ``load_markov_table`` reads."""
    with open(path, "w") as f:
        for h in sorted(table):
            f.write(f"{h or '-'} {float(table[h])!r}\n")


def test_markov_table_file_round_trip(tmp_path):
    table = {"0": 0.52, "1": 0.48}
    path = tmp_path / "table.txt"
    save_markov_table(table, path)
    assert load_markov_table(path, 1) == table
    save_markov_table({"": 0.5}, tmp_path / "t0.txt")
    assert load_markov_table(tmp_path / "t0.txt", 0) == {"": 0.5}
    (tmp_path / "bad.txt").write_text("01 0.5\n")
    with pytest.raises(ValidationError):
        load_markov_table(tmp_path / "bad.txt", 1)


def test_pair_dist_file(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("# slot dists\n0.25 0.25 0.25 0.25\n0 0.5 0.5 0\n")
    dists = load_pair_dists(path)
    assert len(dists) == 2
    assert dists[1]["01"] == 0.5
    (tmp_path / "bad.txt").write_text("0.5 0.5\n")
    with pytest.raises(ValidationError):
        load_pair_dists(tmp_path / "bad.txt")


@pytest.mark.parametrize("load, body, want, bad_lines", [
    (DriftTrace.load, "0.01\n-0.02\n", DriftTrace([0.01, -0.02]),
     [("0.01 0.02", "expected 1 fields, got 2"), ("nope", "not a decimal offset: 'nope'")]),
    (lambda path: load_markov_table(path, 1), "0 0.52\n1 0.48\n", {"0": 0.52, "1": 0.48},
     [("0 0.5 0.5", "expected 2 fields, got 3"), ("0 x", "not a probability: 'x'"),
      ("01 0.5", "history '01' is not a 1-bit string"),
      ("0 0.9", "duplicate history '0'")]),
    (load_pair_dists, "0 0.5 0.5 0\n", [dict(zip(PAIR_KEYS, (0.0, 0.5, 0.5, 0.0)))],
     [("0.5 0.5", "expected 4 fields, got 2"), ("0 0.5 0.5 y", "not a weight: 'y'")]),
])
def test_parameter_files_skip_comments_and_name_bad_lines(tmp_path, load, body, want,
                                                          bad_lines):
    path = tmp_path / "params.txt"
    # comments and blank lines before, between and after the records
    first, rest = body.split("\n", 1)
    path.write_text(f"# header\n\n  \t\n{first}\n   # indented note\n\n{rest}\n#\n")
    assert load(path) == want
    for line, needle in bad_lines:
        path.write_text(f"# header\n\n{body}{line}\n")
        with pytest.raises(ValidationError) as exc:
            load(path)
        lineno = 3 + body.count("\n")
        assert str(exc.value) == f"{path}: line {lineno}: {needle}"


def test_nan_weights_rejected():
    nan = float("nan")
    with pytest.raises(ValidationError, match="negative or NaN weight"):
        PairwiseSource([{"00": nan, "01": 0.5, "10": 0.5, "11": 0.0}])
    with pytest.raises(ValidationError, match="nonnegative and sum to 1"):
        sample_symbols([nan, nan], 5, seed=1)
    with pytest.raises(ValidationError, match="kappa must be >= 0"):
        MarkovSource(1, nan, 0.5, {"0": 0.01, "1": 0.99})
    with pytest.raises(ValidationError, match="beta must be >= 0"):
        DriftParams(0.5, nan, 0.0)


def test_walk_has_no_realized_trace():
    spec = DriftingSource(DriftParams(0.55, 0.05, 0.01), trajectory="walk")
    with pytest.raises(ValidationError, match="walk trajectory has no deterministic trace"):
        spec.realized_trace(10)


# The loops below are the sequential routes that `sample` used before its
# block-parallel ones, kept verbatim as oracles: output must match byte for
# byte, walk trace included.

def _walk_loop(params, n, rng):
    beta, delta = params.beta, params.delta
    eps = np.empty(n, dtype=np.float64)
    if n == 0:
        return DriftTrace(eps)
    steps = rng.uniform(-delta, delta, size=max(n - 1, 0))
    e = 0.0
    eps[0] = e
    for i in range(n - 1):
        e = min(beta, max(-beta, e + steps[i]))
        eps[i + 1] = e
    return DriftTrace(eps)


def _markov_loop(spec, n, rng):
    cond = spec.cond_zero_probs()
    u = rng.random(n)
    out = np.empty(n, dtype=np.uint8)
    mask = (1 << spec.k) - 1
    h = 0
    for i in range(n):
        p = spec.p0 if i < spec.k else cond[h]
        bit = 0 if u[i] < p else 1
        out[i] = bit
        h = ((h << 1) | bit) & mask
    return BitString.from_array(out)


def _pairwise_tiled(spec, n, rng):
    mat = spec.pair_matrix(n // 2)
    cum = np.cumsum(mat, axis=1)
    u = rng.random(n // 2)
    idx = (u[:, None] >= cum[:, :3]).sum(axis=1)  # pair value 0..3
    out = np.empty(n, dtype=np.uint8)
    out[0::2] = idx >> 1
    out[1::2] = idx & 1
    return BitString.from_array(out)



WALK_DELTAS = [0.0, 1e-4, 1e-3, 3e-3, 0.01, 0.05]


def _assert_walk_matches_loop(delta):
    spec = DriftingSource(DriftParams(0.55, 0.05, delta), trajectory="walk")
    for seed in (1, 2, 3):
        for n in (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 10**5):
            bits, trace = sample(spec, n, seed)
            rng = np.random.default_rng(seed)
            want = _walk_loop(spec.params, n, rng)
            assert trace.epsilons.tobytes() == want.epsilons.tobytes(), (seed, n)
            q0 = spec.params.p0 - want.epsilons
            assert bits.to_array().tobytes() == (rng.random(n) >= q0).astype(np.uint8).tobytes()


@pytest.mark.parametrize("delta", WALK_DELTAS)
def test_walk_matches_loop_oracle(delta):
    # beta = 0.05: delta = beta clamps about every third step, delta = 1e-4
    # almost never, and delta = 0 never moves.  Up to 3e-3 few blocks summed
    # from 0 reach a wall and the lockstep pass is skipped; from 0.01 every
    # block does, and the blocks are repaired from their guesses
    _assert_walk_matches_loop(delta)


@pytest.mark.parametrize("scalar", [0, 3])
@pytest.mark.parametrize("delta", WALK_DELTAS)
def test_walk_steps_after_a_clamp_match_loop_oracle(monkeypatch, delta, scalar):
    # steps walked one at a time after a clamp: none, or a few (the run
    # ends after one step without a clamp) instead of the default 64
    monkeypatch.setattr("debias.sources._SCALAR", scalar)
    _assert_walk_matches_loop(delta)


@pytest.mark.parametrize("walls", [-1.0, 1.0], ids=["lockstep", "no-guesses"])
@pytest.mark.parametrize("delta", [1e-3, 0.01])
def test_walk_paths_match_loop_oracle(monkeypatch, delta, walls):
    # the share of blocks that reach a wall picks the path: force each one
    # where the other would be taken, so the lockstep pass repairs blocks
    # that never clamp and the walk from the true start meets many clamps
    monkeypatch.setattr("debias.sources._WALLS", walls)
    spec = DriftingSource(DriftParams(0.55, 0.05, delta), trajectory="walk")
    for seed in (1, 2):
        for n in (BLOCK + 1, 3 * BLOCK + 7, 10**5):
            _, trace = sample(spec, n, seed)
            want = _walk_loop(spec.params, n, np.random.default_rng(seed))
            assert trace.epsilons.tobytes() == want.epsilons.tobytes(), (seed, n)


def _markov_specs():
    rng = np.random.default_rng(17)
    for k in (0, 1, 3, 16):
        vals = rng.uniform(0.55, 0.65, size=1 << k)
        yield MarkovSource(k=k, kappa=0.05, p0=0.6,
                           table={format(h, f"0{k}b") if k else "": float(v)
                                  for h, v in enumerate(vals)})
    # deterministic tables: a history fixes the next bit, so a wrong guess
    # never meets the true history (k = 1 alternates 0101...)
    yield MarkovSource(k=1, kappa=0.5, p0=0.5, table={"0": 0.0, "1": 1.0})
    yield MarkovSource(k=3, kappa=0.5, p0=0.5,
                       table={format(h, "03b"): float(v)
                              for h, v in enumerate([0, 1, 1, 0, 1, 0, 0, 1])})
    # two histories part on about 3 draws in 10 and meet only after 12 equal
    # bits in a row: a guess meets the true history after about 200 draws
    vals = rng.uniform(0.05, 0.95, size=1 << 12)
    yield MarkovSource(k=12, kappa=0.45, p0=0.5,
                       table={format(h, "012b"): float(v) for h, v in enumerate(vals)})


def _markov_id(spec):
    return f"k{spec.k}" + ("-deterministic" if spec.kappa == 0.5 else "")


def _assert_markov_matches_loop(spec):
    k = spec.k
    for seed in (1, 2, 3):
        for n in sorted({0, 1, k, k + 1, BLOCK - 1, BLOCK, BLOCK + k, BLOCK + k + 1,
                         3 * BLOCK + 5, 10**5}):
            bits, _ = sample(spec, n, seed)
            assert bits == _markov_loop(spec, n, np.random.default_rng(seed)), (seed, n)


@pytest.mark.parametrize("spec", list(_markov_specs()), ids=_markov_id)
def test_markov_matches_loop_oracle(spec):
    _assert_markov_matches_loop(spec)


@pytest.mark.parametrize("lane", [1, 3])
@pytest.mark.parametrize("spec", list(_markov_specs()), ids=_markov_id)
def test_markov_lanes_match_loop_oracle(monkeypatch, spec, lane):
    # lanes of one draw or of a few instead of the default _LANE: many
    # walkers carry on through several lanes
    monkeypatch.setattr("debias.sources._LANE", lane)
    _assert_markov_matches_loop(spec)


# the benchmark's k = 3 table, input set 0
BENCH_K3 = MarkovSource(3, 0.05, 0.6, {format(h, "03b"): float(v) for h, v in enumerate(
    np.random.default_rng([0, 1]).uniform(0.6 - 0.05, 0.6 + 0.05, size=8))})


@pytest.mark.parametrize("spec", [
    BENCH_K3,
    next(s for s in _markov_specs() if s.k == 12),
    next(s for s in _markov_specs() if s.k == 0),
    MarkovSource(k=0, kappa=0.5, p0=0.5, table={"": 0.0}),
    MarkovSource(k=0, kappa=0.5, p0=0.5, table={"": 1.0}),
], ids=["bench-k3", "k12", "k0", "k0-zero", "k0-one"])
def test_markov_draws_each_chunk_once(monkeypatch, spec):
    # a 10^6-bit run is four chunks, each drawn in one call in lanes of
    # _LANE, whether the histories meet within a few draws (k = 3) or the
    # walkers carry on through many lanes (k = 12).  A k = 0 table has no
    # history: its bits are drawn as a constant source's, with no lanes
    shapes, markov_bits = [], sources._markov_bits

    def record(draws, *args):
        shapes.append(draws.shape)
        return markov_bits(draws, *args)

    monkeypatch.setattr("debias.sources._markov_bits", record)
    bits = BitString(b"".join(b.tobytes() for b, _ in sources._chunks(spec, 10**6, 10_001)))
    assert bits == _markov_loop(spec, 10**6, np.random.default_rng(10_001))
    heads = [spec.k] + [0] * 3
    sizes = [STREAM] * 3 + [10**6 - 3 * STREAM]
    assert shapes == ([] if spec.k == 0 else
                      [(-(-(m - head) // LANE), LANE) for m, head in zip(sizes, heads)])


def test_pairwise_matches_tiled_oracle():
    rng = np.random.default_rng(4)
    for slots in (1, 3, 11):
        w = rng.uniform(0.5, 1.5, size=(slots, 4))
        w[0, 1] = 0.0  # an empty pair value
        w /= w.sum(axis=1, keepdims=True)
        spec = PairwiseSource([dict(zip(("00", "01", "10", "11"), r)) for r in w.tolist()])
        for n in (0, 2, 2 * slots, 2 * slots + 4, 10**5):
            bits, _ = sample(spec, n, seed=slots)
            assert bits == _pairwise_tiled(spec, n, np.random.default_rng(slots))


def test_trace_save_writes_one_repr_per_line(tmp_path):
    # more offsets than one write chunk, so the chunk seam is covered
    spec = DriftingSource(DriftParams(0.55, 0.05, 0.01), trajectory="walk")
    _, trace = sample(spec, 70_000, seed=8)
    trace.save(tmp_path / "t.txt")
    want = "".join(f"{float(e)!r}\n" for e in trace.epsilons)
    assert (tmp_path / "t.txt").read_text() == want
    assert DriftTrace.load(tmp_path / "t.txt") == trace


def test_trace_save_matches_repr_oracle(monkeypatch, tmp_path):
    # 5-row chunk seams (250 bytes of 49-byte padded rows), repr's exponent
    # forms, a negative zero, a subnormal and an empty trace, in traces of
    # 320, 8, 0 and 1 offsets
    monkeypatch.setattr("debias.bits._CHUNK", 250)
    special = [-0.0, 5e-324, 1e16, 1 / 3, 1e-05, -2.5e-07, 0.1, 1e22]
    for eps in (special * 40, special, [], [0.0]):
        trace = DriftTrace(eps)
        trace.save(tmp_path / "t.txt")
        assert (tmp_path / "t.txt").read_bytes() == trace_text(trace).encode()


def test_trace_writer_memory_is_per_block():
    # a 10^6-offset walk (8 MB of offsets, over 20 MB of text) is written a
    # block at a time: the writer peaks below 4 MiB of new allocations
    _, trace = sample(DriftingSource(DriftParams(0.55, 0.05, 1e-4), trajectory="walk"),
                      10**6, seed=17)

    class Sink:
        size = 0

        def write(self, data):
            self.size += len(data)

    sink = Sink()
    tracemalloc.start()
    try:
        _save_offsets(sink, trace.epsilons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 20 * 10**6
    assert peak < 4 << 20


@pytest.mark.parametrize("spec, limit_mib", [
    (DriftingSource(DriftParams(0.55, 0.05, 1e-4), trajectory="walk"), 2.66 + 0.75),
    (DriftingSource(DriftParams(0.55, 0.05, 1e-3), trajectory="walk"), 2.66 + 0.75),
    (DriftingSource(DriftParams(0.55, 0.05, 0.05), trajectory="walk"), 4.40 + 0.75),
    (next(s for s in _markov_specs() if s.k == 3), 2.76 + 0.75),
    (next(s for s in _markov_specs() if s.k == 16), 4.76 + 0.75),
], ids=["walk-delta1e-4", "walk-delta1e-3", "walk-delta0.05", "markov-k3", "markov-k16"])
def test_chunk_memory_does_not_grow_per_chunk(spec, limit_mib):
    # a 10^6-bit run is four chunks; each reuses the buffers of the one
    # before, so a per-chunk copy of the draws (2 MiB) or a second buffer
    # of guesses shows.  Each limit is a measured peak plus 0.75 MiB.  The
    # walk at delta 1e-4 and 1e-3 runs in place and makes no guesses: 2.66
    # MiB, against 4.55 and 4.53 while every chunk came with a (blocks,
    # _BLOCK + 1) buffer.  At delta 0.05 it takes the lockstep pass.  The
    # Markov limits are from before its lanes shrank to _LANE draws
    tracemalloc.start()
    try:
        for _ in sources._chunks(spec, 10**6, 17):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20, peak / 2**20


def test_trace_save_mostly_repr_fallback_to_an_open_file(monkeypatch, tmp_path):
    # offsets near 1e-300 are outside the integer route and go to repr in one
    # batch per chunk; a few ordinary ones sit between them, across the
    # 5-row seams, and the file is an open text file rather than a path
    monkeypatch.setattr("debias.bits._CHUNK", 250)
    rng = np.random.default_rng(15)
    eps = rng.uniform(-1, 1, 400) * 10.0 ** rng.integers(-310, -290, 400)
    eps[::7] = rng.uniform(-0.05, 0.05, 58)
    trace = DriftTrace(eps)
    with open(tmp_path / "t.txt", "w", newline="") as f:
        trace.save(f)
    assert (tmp_path / "t.txt").read_bytes() == trace_text(trace).encode()
    assert DriftTrace.load(tmp_path / "t.txt") == trace


# chunk sizes for the seam tests: the smallest (one packed byte), three
# walk blocks and a byte, and one that is no multiple of _BLOCK
STREAMS = [8, 3 * BLOCK + 8, 1000]


def _seam_lengths(stream):
    return sorted({0, 1, 2, stream - 1, stream, stream + 1, 2 * stream - 2, 2 * stream + 3})


def _drift_specs():
    params = DriftParams(0.55, 0.05, 1e-4)
    yield DriftingSource(params, trajectory="walk")
    for delta in (1e-3, 3e-3):  # runs of clamps at a wall, few blocks guessed
        yield DriftingSource(DriftParams(0.55, 0.05, delta), trajectory="walk")
    yield DriftingSource(DriftParams(0.55, 0.05, 0.05), trajectory="walk")  # clamps often
    yield DriftingSource(params, trajectory="sine", period=3500.0)
    yield DriftingSource(params, trajectory="adversarial")
    eps = sample(DriftingSource(params), 20_000, seed=6)[1]
    yield DriftingSource(params, trajectory="fixed", trace=eps)


def seam_oracles():
    """(spec, oracle(n, seed) -> (bits, trace)) for every source kind, each
    oracle a whole-run route independent of the chunk size."""
    def drifting(spec):
        def run(n, seed):
            rng = np.random.default_rng(seed)
            if spec.trajectory == "walk":
                trace = _walk_loop(spec.params, n, rng)
            else:
                trace = spec.realized_trace(n)
            q0 = spec.params.p0 - trace.epsilons
            return BitString.from_array(rng.random(n) >= q0), trace
        return run

    yield ConstantSource(0.7), lambda n, seed: (
        BitString.from_array(np.random.default_rng(seed).random(n) >= 0.7), None)
    for spec in _drift_specs():
        yield spec, drifting(spec)
    for spec in _markov_specs():
        yield spec, lambda n, seed, spec=spec: (
            _markov_loop(spec, n, np.random.default_rng(seed)), None)
    pairs = PairwiseSource([dict(zip(PAIR_KEYS, w)) for w in
                            ([0.1, 0.2, 0.3, 0.4], [0.4, 0.0, 0.5, 0.1], [0.25] * 4)])
    yield pairs, lambda n, seed: (_pairwise_tiled(pairs, n, np.random.default_rng(seed)), None)


def seam_cases():
    for spec, oracle in seam_oracles():
        if isinstance(spec, DriftingSource):
            name = f"{spec.trajectory}-delta{spec.params.delta}"
        elif isinstance(spec, MarkovSource):
            name = "markov-" + _markov_id(spec)
        else:
            name = type(spec).__name__
        yield pytest.param(spec, oracle, id=name)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("spec, oracle", seam_cases())
def test_chunk_seams_match_whole_run_oracles(monkeypatch, stream, spec, oracle):
    monkeypatch.setattr("debias.sources._STREAM", stream)
    for n in _seam_lengths(stream):
        if isinstance(spec, PairwiseSource):
            n -= n % 2
        bits, trace = sample(spec, n, seed=n)
        want_bits, want_trace = oracle(n, n)
        assert bits == want_bits, n
        if want_trace is None:
            assert trace is None
        else:
            assert trace.epsilons.tobytes() == want_trace.epsilons.tobytes(), n
