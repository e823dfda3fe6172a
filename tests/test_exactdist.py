import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import debias
from debias import (BitString, ConstantSource, DegenerateSourceError,
                    DistributionTable, DriftParams, DriftTrace, DriftingSource,
                    MarkovSource, PairwiseSource, ValidationError,
                    check_independence, exact_source_dist, normalized_dist,
                    random_markov_source, total_variation, uniform_dist,
                    vn_normalize, worst_case_product_dist)
from debias.cli import run
from string_oracles import csv_writer_table, pn_prob, rn_prob

PAIR_EX_SYM = {"00": 0.0, "01": 1 / 3, "10": 1 / 3, "11": 1 / 3}
PAIR_EX_ASYM = {"00": 0.0, "01": 1 / 3, "10": 2 / 3, "11": 0.0}


def table_from(mapping, m):
    probs = np.zeros(1 << m)
    for s, p in mapping.items():
        probs[int(s, 2)] = p
    return DistributionTable(m, probs)


def test_pn_prob_examples():
    assert pn_prob(BitString("01"), 0.7) == pytest.approx(0.21, abs=1e-15)
    assert pn_prob(BitString("0110"), 0.5) == 0.0625
    assert pn_prob(BitString(""), 0.3) == 1.0
    with pytest.raises(ValidationError):
        pn_prob(BitString("01"), 1.0)
    # the production route: one entry of the exact table
    for p0 in (0.3, 0.5, 0.7):
        t = exact_source_dist(ConstantSource(p0), 6)
        for v in range(64):
            x = BitString.from_int(v, 6)
            assert t.prob(x) == pytest.approx(pn_prob(x, p0), rel=1e-14)


def test_rn_prob_examples():
    tr = DriftTrace([0.1, -0.1])
    assert rn_prob(BitString("01"), tr, 0.5) == pytest.approx(0.16, abs=1e-15)
    assert rn_prob(BitString(""), tr, 0.5) == 1.0
    with pytest.raises(ValidationError):
        rn_prob(BitString("011"), tr, 0.5)
    # the production route: one entry of the exact table over the fixed trace
    spec = DriftingSource(DriftParams(0.5, 0.2, 0.2), trajectory="fixed", trace=tr)
    t = exact_source_dist(spec, 2)
    for v in range(4):
        x = BitString.from_int(v, 2)
        assert t.prob(x) == pytest.approx(rn_prob(x, tr, 0.5), rel=1e-14)


def test_rn_prob_pair_gap_is_step():
    # q(01) - q(10) equals the offset step, for any legal configuration
    rng = np.random.default_rng(4)
    for _ in range(100):
        p0 = rng.uniform(0.2, 0.8)
        beta = rng.uniform(0, min(p0, 1 - p0) * 0.9)
        e1 = rng.uniform(-beta, beta)
        e2 = rng.uniform(max(-beta, e1 - beta), min(beta, e1 + beta))
        tr = DriftTrace([e1, e2])
        gap = rn_prob(BitString("01"), tr, p0) - rn_prob(BitString("10"), tr, p0)
        assert gap == pytest.approx(e2 - e1, abs=1e-14)
    tr = DriftTrace([0.1, -0.1])
    assert rn_prob(BitString("01"), tr, 0.5) - rn_prob(BitString("10"), tr, 0.5) \
        == pytest.approx(-0.2, abs=1e-15)


def test_rn_prob_splits_as_product():
    tr = DriftTrace([0.01, -0.02, 0.0, 0.03, 0.02])
    x, y = BitString("01"), BitString("101")
    whole = rn_prob(x + y, tr, 0.6)
    split = rn_prob(x, tr, 0.6) * rn_prob(y, tr[2:], 0.6)
    assert whole == pytest.approx(split, rel=1e-14)


def test_exact_source_dist_examples():
    t = exact_source_dist(ConstantSource(0.5), 2)
    assert np.allclose(t.probs, 0.25)
    t = exact_source_dist(PairwiseSource([PAIR_EX_ASYM]), 2)
    assert t.prob("00") == 0.0
    assert t.prob("01") == pytest.approx(1 / 3, abs=1e-15)
    assert t.prob("10") == pytest.approx(2 / 3, abs=1e-15)
    assert t.prob("11") == 0.0
    t = exact_source_dist(ConstantSource(0.7), 1)
    assert t.prob("0") == pytest.approx(0.7) and t.prob("1") == pytest.approx(0.3)


def test_exact_source_dist_guard():
    with pytest.raises(ValidationError):
        exact_source_dist(ConstantSource(0.5), 27)


def test_exact_source_dist_drifting_matches_per_string_product():
    params = DriftParams(0.6, 0.05, 0.01)
    trace = DriftTrace([0.05, 0.045, 0.04, 0.031, 0.03])
    spec = DriftingSource(params, trajectory="fixed", trace=trace)
    t = exact_source_dist(spec, 5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = BitString.from_array(rng.integers(0, 2, 5, dtype=np.uint8))
        assert t.prob(x) == pytest.approx(rn_prob(x, trace, 0.6), rel=1e-14)
    assert t.probs.sum() == pytest.approx(1.0, abs=1e-13)


def test_exact_source_dist_walk_rejected():
    spec = DriftingSource(DriftParams(0.5, 0.1, 0.01), trajectory="walk")
    with pytest.raises(ValidationError):
        exact_source_dist(spec, 4)


def test_exact_source_dist_markov_chain_product():
    spec = MarkovSource(k=1, kappa=0.2, p0=0.5, table={"0": 0.6, "1": 0.35})
    t = exact_source_dist(spec, 3)
    # first bit uses the base marginal, later bits the conditional table
    for v in range(8):
        x = BitString.from_int(v, 3)
        bits = list(x)
        p = 0.5
        for prev, b in zip(bits, bits[1:]):
            c = spec.table[str(prev)]
            p *= c if b == 0 else 1 - c
        assert t.prob(x) == pytest.approx(p, rel=1e-14)
    assert t.probs.sum() == pytest.approx(1.0, abs=1e-14)


def test_pairwise_odd_n_rejected():
    with pytest.raises(ValidationError):
        exact_source_dist(PairwiseSource([PAIR_EX_SYM]), 3)


def _chain_prob(spec, bits):
    p = 1.0
    for i, b in enumerate(bits):
        z = spec.p0 if i < spec.k else spec.table["".join(map(str, bits[i - spec.k:i]))]
        p *= z if b == 0 else 1.0 - z
    return p


def test_tables_match_enumeration():
    # oracle: every length-n string's probability computed on its own, then
    # pushed through vn_normalize
    pairs = [{"00": 0.1, "01": 0.3, "10": 0.4, "11": 0.2},
             {"00": 0.25, "01": 0.2, "10": 0.3, "11": 0.25}]
    drift = DriftingSource(DriftParams(0.55, 0.05, 0.004), "adversarial")
    sine = DriftingSource(DriftParams(0.5, 0.05, 0.01), "sine", period=40)
    for n in range(1, 13):
        specs = [(ConstantSource(0.7), lambda x: pn_prob(x, 0.7))]
        for d in (drift, sine):
            trace = d.realized_trace(n)
            specs.append((d, lambda x, d=d, t=trace: rn_prob(x, t, d.params.p0)))
        for k in (0, 1, 2, 3, 5):
            mk = random_markov_source(k, 0.2, 0.5, 11 + k)
            specs.append((mk, lambda x, mk=mk: _chain_prob(mk, list(x))))
        if n % 2 == 0:
            specs.append((PairwiseSource(pairs), lambda x: math.prod(
                pairs[t % 2][x.to01()[2 * t:2 * t + 2]] for t in range(n // 2))))
        strings = [BitString.from_int(v, n) for v in range(1 << n)]
        outs = [vn_normalize(x) for x in strings]
        for spec, prob in specs:
            raw = np.array([prob(x) for x in strings])
            assert np.abs(exact_source_dist(spec, n).probs - raw).max() <= 1e-12
            for m in range(1, n // 2 + 1):
                acc = np.zeros(1 << m)
                for y, p in zip(outs, raw):
                    if len(y) == m:
                        acc[y.to_int()] += p
                got = normalized_dist(spec, n, m).probs
                assert np.abs(got - acc / acc.sum()).max() <= 1e-12, (spec, n, m)


def test_uniform_dist_examples():
    assert list(uniform_dist(1).items()) == [("0", 0.5), ("1", 0.5)]
    assert np.allclose(uniform_dist(2).probs, 0.25)
    assert list(uniform_dist(0).items()) == [("", 1.0)]
    with pytest.raises(ValidationError):
        uniform_dist(27)


def test_normalized_dist_constant_is_uniform():
    t = normalized_dist(ConstantSource(0.7), 4, 2)
    assert np.allclose(t.probs, 0.25, atol=1e-15)
    assert total_variation(t, uniform_dist(2)) <= 1e-15


def test_normalized_dist_pair_examples():
    t = normalized_dist(PairwiseSource([PAIR_EX_SYM]), 2, 1)
    assert t.prob("0") == pytest.approx(0.5, abs=1e-15)
    assert t.prob("1") == pytest.approx(0.5, abs=1e-15)
    t = normalized_dist(PairwiseSource([PAIR_EX_ASYM]), 2, 1)
    assert t.prob("0") == pytest.approx(1 / 3, abs=1e-15)
    assert t.prob("1") == pytest.approx(2 / 3, abs=1e-15)


def test_normalized_dist_guards():
    with pytest.raises(ValidationError):
        normalized_dist(ConstantSource(0.5), 4, 3)  # m > n/2
    with pytest.raises(ValidationError):
        normalized_dist(ConstantSource(0.5), 4, 0)
    degenerate = PairwiseSource([{"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}])
    with pytest.raises(DegenerateSourceError):
        normalized_dist(degenerate, 2, 1)
    # the forward pass's state of 2^(k + m + 1) entries is guarded at 2^26
    with pytest.raises(ValidationError, match=r"k \+ m \+ 1 <= 26"):
        normalized_dist(random_markov_source(13, 0.1, 0.5, 1), 26, 13)


def test_normalized_dist_guard_comes_before_the_pair_masses():
    # k = 16 masses for a 26-bit run are about 90 MiB; a refused call
    # builds none of them
    spec = random_markov_source(16, 0.1, 0.5, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError,
                           match=r"state of 2\^30 entries exceeds the guard k \+ m \+ 1 <= 26"):
            normalized_dist(spec, 26, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_total_variation_examples():
    u1 = uniform_dist(1)
    assert total_variation(u1, u1) == 0.0
    skew = table_from({"0": 1 / 3, "1": 2 / 3}, 1)
    assert total_variation(u1, skew) == pytest.approx(1 / 6, abs=1e-15)
    a = table_from({"0": 1.0, "1": 0.0}, 1)
    b = table_from({"0": 0.0, "1": 1.0}, 1)
    assert total_variation(a, b) == 1.0
    with pytest.raises(ValidationError):
        total_variation(u1, uniform_dist(2))


def test_total_variation_equals_subset_maximum():
    # half-sum equals the maximum event-probability gap (exhaustive subsets)
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        size = 1 << m
        masks = (np.arange(1 << size)[:, None] >> np.arange(size)[None, :]) & 1
        for _ in range(20):
            p = rng.dirichlet(np.ones(size))
            q = rng.dirichlet(np.ones(size))
            P = DistributionTable(m, p)
            Q = DistributionTable(m, q)
            subset_max = np.abs(masks @ (p - q)).max()
            assert total_variation(P, Q) == pytest.approx(subset_max, abs=1e-12)


def test_marginal_of_infix_is_string_probability():
    # summing the table over a window reproduces the bare string probability
    rng = np.random.default_rng(23)
    for n in (4, 7, 10):
        p0 = rng.uniform(0.2, 0.8)
        probs = exact_source_dist(ConstantSource(p0), n).probs
        for _ in range(10):
            lx = int(rng.integers(1, n + 1))
            k = int(rng.integers(0, n - lx + 1))
            x = BitString.from_array(rng.integers(0, 2, lx, dtype=np.uint8))
            shaped = probs.reshape(1 << k, 1 << lx, -1)
            got = shaped[:, x.to_int(), :].sum()
            assert got == pytest.approx(pn_prob(x, p0), rel=1e-12)


def test_check_independence_verdicts():
    assert check_independence(exact_source_dist(ConstantSource(0.7), 3)) is None
    params = DriftParams(0.55, 0.05, 0.01)
    trace = DriftTrace([0.05, 0.041, 0.033])
    drift = DriftingSource(params, trajectory="fixed", trace=trace)
    assert check_independence(exact_source_dist(drift, 3)) is None
    v = check_independence(table_from(PAIR_EX_SYM, 2))
    assert v is not None
    assert v.k == 2 and v.prefix == "00"
    assert v.lhs == pytest.approx(0.0)
    assert v.rhs == pytest.approx(1 / 9, abs=1e-15)
    with pytest.raises(ValidationError):
        check_independence(uniform_dist(17))


def test_worst_case_product_dist():
    t = worst_case_product_dist(0.2, 1, sign=1)
    assert t.prob("0") == pytest.approx(0.6, abs=1e-15)
    assert t.prob("1") == pytest.approx(0.4, abs=1e-15)
    for sign in (1, -1):
        t = worst_case_product_dist(0.0, 3, sign=sign)
        assert np.allclose(t.probs, uniform_dist(3).probs)
    assert total_variation(worst_case_product_dist(0.2, 1), uniform_dist(1)) \
        == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValidationError):
        worst_case_product_dist(1.0, 2)
    with pytest.raises(ValidationError):
        worst_case_product_dist(0.2, 2, sign=0)


def test_normalized_drifting_matches_pair_product_form():
    # for n = 2m the normalized probability factors over pairs:
    # prod_i q(2i-1, f(y_i)) / (q(2i-1, 01) + q(2i-1, 10))
    p0 = 0.55
    trace = DriftTrace([0.04, 0.031, 0.025, 0.016, 0.01, 0.005])
    spec = DriftingSource(DriftParams(p0, 0.06, 0.01), "fixed", trace=trace)
    t = normalized_dist(spec, 6, 3)

    def q(i, bit):
        return (p0 - trace[i]) if bit == 0 else ((1 - p0) + trace[i])

    for v in range(8):
        y = [(v >> 2) & 1, (v >> 1) & 1, v & 1]
        prod = 1.0
        for i, b in enumerate(y):
            j = 2 * i
            prod *= (q(j, b) * q(j + 1, 1 - b)) / (
                q(j, 0) * q(j + 1, 1) + q(j, 1) * q(j + 1, 0))
        assert t.probs[v] == pytest.approx(prod, abs=1e-14)


def test_adversarial_trace_attains_worst_case_product():
    # the corner trace's normalized output IS the worst-case i.i.d. measure
    from debias import alpha_max, tv_bound_exact
    for p0, sign in ((0.45, -1), (0.5, -1), (0.62, 1)):
        spec = DriftingSource(DriftParams(p0, 0.05, 0.004), "adversarial")
        m = 5
        t = normalized_dist(spec, 2 * m, m)
        a = alpha_max(p0, 0.05, 0.004)
        w = worst_case_product_dist(a, m, sign)
        assert np.abs(t.probs - w.probs).max() <= 1e-13
        assert total_variation(t, uniform_dist(m)) == pytest.approx(
            tv_bound_exact(m, a), abs=1e-13)


def test_distribution_table_validation():
    with pytest.raises(ValidationError):
        DistributionTable(1, [0.6, 0.6])
    with pytest.raises(ValidationError):
        DistributionTable(1, [-0.1, 1.1])
    with pytest.raises(ValidationError):
        DistributionTable(2, [0.5, 0.5])  # wrong size
    with pytest.raises(ValidationError):
        DistributionTable(1, [math.nan, math.nan])
    for text, line in (("00,0.5\n1,0.5\n", 2),  # key length differs
                       ("1,x\n", 1), ("0,0.5\n2,0.5\n", 2),
                       ("1,0.5,7\n", 1), ("0,0.5\n\n0,0.5\n", 3)):
        with pytest.raises(ValidationError, match=f"CSV line {line}:"):
            DistributionTable.from_csv(io.StringIO(text))
    with pytest.raises(ValidationError, match="duplicate"):
        DistributionTable.from_csv(io.StringIO("1,0.5\n1,0.5\n"))


def test_distribution_table_accessors():
    t = exact_source_dist(ConstantSource(0.7), 2)
    assert t.prob(BitString("01")) == t.prob("01") == t.prob(1)
    with pytest.raises(ValidationError):
        t.prob("011")
    with pytest.raises(ValidationError):
        t.prob(4)
    items = list(t.items())
    assert [s for s, _ in items] == ["00", "01", "10", "11"]


def test_distribution_table_csv_round_trip():
    t = normalized_dist(PairwiseSource([PAIR_EX_ASYM]), 2, 1)
    buf = io.StringIO()
    t.to_csv(buf)
    buf.seek(0)
    back = DistributionTable.from_csv(buf)
    assert back.length == 1
    assert np.array_equal(back.probs, t.probs)


def _oracle_csv(table) -> str:
    buf = io.StringIO()
    csv_writer_table(table, buf)
    return buf.getvalue()


def _csv_tables(n, rng):
    """A smooth table, a random one and, from n = 3 up, one whose rows need
    repr's exponent form (1e-300, 1e-05), a zero and a negative zero."""
    yield exact_source_dist(ConstantSource(0.7), n)
    probs = rng.dirichlet(np.ones(1 << n))
    yield DistributionTable(n, probs)
    if n >= 3:
        probs[:4] = (1e-300, 1e-05, 0.0, -0.0)
        probs[4:] *= (1.0 - 1e-05) / probs[4:].sum()
        yield DistributionTable(n, probs)


def test_csv_matches_csv_writer_oracle(tmp_path):
    rng = np.random.default_rng(31)
    for n in range(17):  # from 2^9 rows up, tables cross 2^8-row chunk seams
        for table in _csv_tables(n, rng):
            want = _oracle_csv(table)
            buf = io.StringIO()
            table.to_csv(buf)
            assert buf.getvalue() == want, n
            assert want.count("\r\n") == 1 << n
    # through a path, in bytes; the oracle opens its file the same way
    table = DistributionTable(3, [0.5, 1e-300, 1e-05, 0.0, 0.25, 0.125, 0.0625, 0.0625 - 1e-05])
    table.to_csv(tmp_path / "new.csv")
    csv_writer_table(table, tmp_path / "old.csv")
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "old.csv").read_bytes()
    assert got.startswith(b"000,0.5\r\n001,1e-300\r\n010,1e-05\r\n011,0.0\r\n")


def test_csv_chunk_seams(monkeypatch):
    # 250-byte chunks of 51 + n-byte padded rows: 4 rows, so seams fall
    # inside every table from length 3 up
    monkeypatch.setattr("debias.bits._CHUNK", 250)
    rng = np.random.default_rng(32)
    for n in range(10):
        for table in _csv_tables(n, rng):
            buf = io.StringIO()
            table.to_csv(buf)
            assert buf.getvalue() == _oracle_csv(table), n


def test_csv_mostly_repr_fallback(monkeypatch, tmp_path):
    # p0 = 1e-30 puts every row but one far below the integer route's range
    # (down to 0.0 by underflow), so repr writes them, in one batch per
    # 4-row chunk; written to a path and to an open text file
    monkeypatch.setattr("debias.bits._CHUNK", 250)
    table = exact_source_dist(ConstantSource(1e-30), 12)
    want = _oracle_csv(table).encode()
    assert want.count(b"e-") > 4000 and b",0.0\r\n" in want
    table.to_csv(tmp_path / "path.csv")
    with open(tmp_path / "file.csv", "w", newline="") as f:
        table.to_csv(f)
    assert (tmp_path / "path.csv").read_bytes() == want
    assert (tmp_path / "file.csv").read_bytes() == want


def test_csv_through_cli_stdout(capsysbinary):
    argv = ["dist", "--source", "constant", "--p0", "0.7", "-n", "15"]
    assert run(argv) == 0
    want = _oracle_csv(exact_source_dist(ConstantSource(0.7), 15)).encode()
    assert capsysbinary.readouterr().out == want
    # a fresh interpreter's own sys.stdout writes the same bytes
    src = os.path.dirname(os.path.dirname(debias.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", "from debias.cli import main; main()", *argv],
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert fresh.stdout == want


def test_csv_memory_is_per_chunk():
    # rows are formatted a chunk at a time: 2^20 rows (an 8 MiB table and
    # about 30 MB of text) peak below 4 MiB of new allocations
    table = exact_source_dist(ConstantSource(0.7), 20)

    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        table.to_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 20 << 20
    assert peak < 4 << 20


def test_csv_lexicographic_order():
    buf = io.StringIO()
    uniform_dist(2).to_csv(buf)
    lines = [ln.split(",")[0] for ln in buf.getvalue().strip().splitlines()]
    assert lines == sorted(lines) == ["00", "01", "10", "11"]


def test_built_tables_are_not_copied():
    # a built table is handed over, not copied: the fold's last step holds
    # the table and its quarter-size predecessor, about 1.25x the table
    n = 20
    tracemalloc.start()
    try:
        table = exact_source_dist(ConstantSource(0.7), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.probs.nbytes == 8 << n
    assert peak < 1.5 * table.probs.nbytes
    # the public constructor still copies, since its caller keeps the array
    probs = np.full(4, 0.25)
    table = DistributionTable(2, probs)
    probs[0] = 1.0
    assert table.probs[0] == 0.25 and not table.probs.flags.writeable
