import io
import math
import tracemalloc

import numpy as np
import pytest

from debias import (BitString, BorelReport, QaryString, ValidationError, borel_counts,
                    empirical_block_dist, sweep, symbol_block_counts,
                    tv_bound_exact, uniform_dist, write_borel_csv,
                    write_sweep_csv)
from debias.bounds import alpha_max, linear_bound, tv_bound_naive
from string_oracles import borel_csv, borel_table, sweep_csv


def test_borel_counts_examples():
    r = borel_counts(BitString("0110"), 1)
    assert r.counts.tolist() == [2, 2]
    r = borel_counts(BitString("0110"), 2, "non-overlapping")
    assert r.counts.tolist() == [0, 1, 1, 0]
    r = borel_counts(BitString("0110"), 2, "overlapping")
    assert r.counts.tolist() == [0, 1, 1, 1]  # windows 01, 11, 10


def test_borel_totals():
    rng = np.random.default_rng(3)
    x = BitString.from_array(rng.integers(0, 2, 1003, dtype=np.uint8))
    for m in (1, 2, 3, 5):
        non = borel_counts(x, m, "non-overlapping")
        assert non.counts.sum() == non.total == 1003 // m
        over = borel_counts(x, m, "overlapping")
        assert over.counts.sum() == over.total == 1003 - m + 1


def test_borel_guards():
    with pytest.raises(ValidationError):
        borel_counts(BitString("0"), 2)
    with pytest.raises(ValidationError):
        borel_counts(BitString("0110"), 0)
    with pytest.raises(ValidationError):
        borel_counts(BitString("0110"), 2, "diagonal")
    # a 2^m-entry count table is refused above the enumeration limit, before
    # bincount is asked for 2^27 (or, at m = 64, an overflowing 2^64) entries
    x = BitString("01" * 40)
    for m in (27, 40, 64):
        with pytest.raises(ValidationError, match="enumeration guard 26"):
            borel_counts(x, m)


def test_borel_report_deviations():
    r = borel_counts(BitString("00000000"), 1)
    assert r.expected == 4.0
    assert r.sigma == pytest.approx(math.sqrt(8 * 0.25))
    assert r.deviations.tolist() == pytest.approx([4 / r.sigma * 1.0, -4 / r.sigma])
    assert r.max_abs_deviation == pytest.approx(4 / r.sigma)
    table = r.format_table()
    assert "block" in table and "0" in table
    buf = io.StringIO()
    write_borel_csv([r], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "m,mode,block,count,expected,deviation_sigma"
    assert len(lines) == 3


def test_borel_csv_and_table_match_oracles(monkeypatch, tmp_path):
    # 500-byte chunks hold 2 or 3 CSV rows and 4 table lines, so seams fall
    # inside every report's CSV rows from m = 2 up and table from m = 3 up;
    # from m = 9 the block column is wider than its 8-character header and
    # has no padding
    monkeypatch.setattr("debias.bits._CHUNK", 500)
    rng = np.random.default_rng(41)
    x = BitString.from_array((rng.random(3000) < 0.55).astype(np.uint8))
    for mode in ("non-overlapping", "overlapping"):
        reports = [borel_counts(x, m, mode) for m in range(1, 11)]
        buf = io.StringIO()
        write_borel_csv(reports, buf)
        assert buf.getvalue() == borel_csv(reports)
        write_borel_csv(reports, tmp_path / "borel.csv")
        assert (tmp_path / "borel.csv").read_bytes() == borel_csv(reports).encode()
        for r in reports:
            assert r.format_table() == borel_table(r)


def test_borel_report_validates_mode(monkeypatch):
    # a hand-built report with a mode outside MODES is refused: "a,b" would
    # be written as two CSV fields
    for mode in ("a,b", "50%{}", "", "Overlapping"):
        with pytest.raises(ValidationError, match="unknown mode"):
            BorelReport(m=2, mode=mode, total=4, counts=np.array([1, 1, 1, 1]))
    # borel_counts still refuses a bad mode before it counts a block
    def no_count(*args):
        raise AssertionError("counted blocks for a bad mode")
    monkeypatch.setattr("debias.stats._block_values", no_count)
    with pytest.raises(ValidationError, match="unknown mode 'a,b'"):
        borel_counts(BitString("0110"), 2, "a,b")


def test_empirical_block_dist():
    t = empirical_block_dist(BitString("0101"), 2)
    assert t.prob("01") == 1.0 and t.prob("00") == 0.0
    t = empirical_block_dist(BitString("00011011"), 2)
    assert np.allclose(t.probs, 0.25)
    with pytest.raises(ValidationError):
        empirical_block_dist(BitString("0"), 2)


def test_symbol_block_counts():
    x = QaryString.from_letters("abcab", "abc")
    counts = symbol_block_counts(x, 1)
    assert counts.tolist() == [2, 2, 1]
    counts = symbol_block_counts(x, 2)  # blocks ab, ca
    assert counts[0 * 3 + 1] == 1 and counts[2 * 3 + 0] == 1
    assert counts.sum() == 2


@pytest.mark.parametrize("m", range(1, 11))
def test_borel_counts_match_per_window_count(m):
    rng = np.random.default_rng(m)
    for _ in range(3):
        n = m * int(rng.integers(1, 60)) + (int(rng.integers(1, m)) if m > 1 else 0)
        arr = (rng.random(n) >= rng.uniform(0.2, 0.8)).astype(np.uint8)
        s = "".join(map(str, arr.tolist()))
        for mode, step in (("non-overlapping", m), ("overlapping", 1)):
            want = np.zeros(1 << m, dtype=np.int64)
            for i in range(0, n - m + 1, step):
                want[int(s[i:i + m], 2)] += 1
            r = borel_counts(BitString.from_array(arr), m, mode)
            assert r.counts.tolist() == want.tolist() and r.total == want.sum()


def test_symbol_block_counts_table_guard():
    # q^m above 2^26 is refused before the block values or the table are
    # built: 3^17 counts would take 1 GiB, and 3^40 overflowed bincount
    x = QaryString(np.zeros(42, dtype=np.int64), 3)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError,
                           match=r"q\^m = 3\^17 counts exceed 2\^MAX_ENUM_N = 2\^26"):
            symbol_block_counts(x, 17)
        with pytest.raises(ValidationError, match="m = 40 exceeds the enumeration guard 26"):
            symbol_block_counts(x, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_symbol_block_counts_match_per_block_count(q, m):
    rng = np.random.default_rng(10 * q + m)
    for _ in range(3):
        n = m * int(rng.integers(1, 80)) + (int(rng.integers(1, m)) if m > 1 else 0)
        codes = rng.integers(0, q, n)
        s = "".join(map(str, codes.tolist()))
        want = np.zeros(q ** m, dtype=np.int64)
        for i in range(0, n - m + 1, m):
            want[int(s[i:i + m], q)] += 1
        assert symbol_block_counts(QaryString(codes, q), m).tolist() == want.tolist()


def test_sweep_rows():
    rows = sweep([2, 100], [0.0, 0.1, 0.2])
    by_key = {(r.m, r.alpha): r for r in rows}
    assert by_key[(2, 0.2)].tv_exact == pytest.approx(0.11, abs=1e-12)
    assert by_key[(2, 0.0)].tv_exact == 0.0
    assert by_key[(2, 0.0)].tv_naive == 0.0
    assert math.isnan(by_key[(2, 0.1)].tv_linear)  # undefined below m = 3
    assert by_key[(100, 0.1)].tv_linear == pytest.approx(linear_bound(100, 0.1))
    assert by_key[(100, 0.1)].tv_naive == pytest.approx(tv_bound_naive(100, 0.1))
    # monotone in alpha for fixed m
    for m in (2, 100):
        vals = [by_key[(m, a)].tv_exact for a in (0.0, 0.1, 0.2)]
        assert vals == sorted(vals)


def sweep_drift(ms, drift_grid):
    """``sweep`` over the worst-case asymmetry of each (p0, beta, delta)."""
    return sweep(ms, [alpha_max(p0, beta, delta) for p0, beta, delta in drift_grid])


def test_sweep_drift_maps_alpha():
    rows = sweep_drift([10], [(0.5, 0.1, 0.01)])
    a = alpha_max(0.5, 0.1, 0.01)
    assert rows[0].alpha == pytest.approx(a)
    assert rows[0].tv_exact == pytest.approx(tv_bound_exact(10, a))


def test_write_sweep_csv(tmp_path):
    rows = sweep([3], [0.1])
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "m,alpha,tv_exact,tv_linear,tv_naive"
    assert lines[1].startswith("3,0.1,")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert path.read_text().strip().splitlines()[0] == lines[0]


def test_sweep_csv_matches_csv_writer_oracle(monkeypatch, tmp_path):
    # a NaN linear column below m = 3, 2-row chunk seams (500 bytes of
    # 246-byte padded rows), and a header-only file
    monkeypatch.setattr("debias.bits._CHUNK", 500)
    rows = sweep([1, 2, 3, 100], np.logspace(-6, -0.5, 4))
    for points in (rows, []):
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        assert buf.getvalue() == sweep_csv(points)
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == sweep_csv(rows).encode()
    assert sweep_csv([]) == "m,alpha,tv_exact,tv_linear,tv_naive\r\n"


def test_sweep_csv_plain_floats_from_numpy_grid(tmp_path):
    # grids usually come from np.logspace; every cell must parse as a float
    rows = sweep([100], np.logspace(-6, -1, 4))
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    for line in buf.getvalue().strip().splitlines()[1:]:
        cells = line.split(",")
        assert "np." not in line
        assert all(float(c) >= 0 for c in cells)
