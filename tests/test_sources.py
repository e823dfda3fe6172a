import numpy as np
import pytest

from debias import (BitString, ConstantSource, DriftParams, DriftTrace,
                    DriftingSource, MarkovSource, PairwiseSource,
                    ValidationError, adversarial_trace, sample, sample_symbols,
                    validate_trace)
from debias.sources import _BLOCK as BLOCK
from debias.sources import PAIR_KEYS, load_markov_table, load_pair_dists
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



@pytest.mark.parametrize("delta", [0.0, 1e-4, 0.01, 0.05])
def test_walk_matches_loop_oracle(delta):
    # beta = 0.05: delta = beta clamps about every third step, delta = 1e-4
    # almost never, and delta = 0 never moves
    spec = DriftingSource(DriftParams(0.55, 0.05, delta), trajectory="walk")
    for seed in (1, 2, 3):
        for n in (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 10**5):
            bits, trace = sample(spec, n, seed)
            rng = np.random.default_rng(seed)
            want = _walk_loop(spec.params, n, rng)
            assert trace.epsilons.tobytes() == want.epsilons.tobytes(), (seed, n)
            q0 = spec.params.p0 - want.epsilons
            assert bits.to_array().tobytes() == (rng.random(n) >= q0).astype(np.uint8).tobytes()


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


def _markov_id(spec):
    return f"k{spec.k}" + ("-deterministic" if spec.kappa == 0.5 else "")


@pytest.mark.parametrize("spec", list(_markov_specs()), ids=_markov_id)
def test_markov_matches_loop_oracle(spec):
    k = spec.k
    for seed in (1, 2, 3):
        for n in sorted({0, 1, k, k + 1, BLOCK - 1, BLOCK, BLOCK + k, BLOCK + k + 1,
                         3 * BLOCK + 5, 10**5}):
            bits, _ = sample(spec, n, seed)
            assert bits == _markov_loop(spec, n, np.random.default_rng(seed)), (seed, n)


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
