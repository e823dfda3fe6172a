import io
import math
import os

import numpy as np
import pytest

from debias import (BitString, ConstantSource, DriftingSource, DriftParams,
                    MarkovExperiment, MarkovSource, PairwiseSource, ValidationError,
                    borel_counts, bounds,
                    cli, empirical_block_dist, exact_source_dist, normalized_dist,
                    parity_normalize, parse_bits,
                    peres_normalize, run_markov_experiment, sample, serialize_bits,
                    sweep, total_variation, tv_bound_exact, uniform_dist,
                    vn_normalize, write_borel_csv)
from debias.cli import DEFAULT_SEED, build_parser, run
from child import run_cli, run_python
from string_oracles import (borel_csv, borel_table, csv_writer_table, markov_csv,
                            sweep_csv, trace_text)
from test_sources import STREAMS, save_markov_table, seam_cases


def read_bits(path, fmt="ascii"):
    return parse_bits(path.read_bytes(), fmt)


def test_tv_matches_library(capsys):
    assert run(["tv", "--m", "2", "--alpha", "0.2", "--method", "exact"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{tv_bound_exact(2, 0.2):.12g}" == "0.11"
    assert run(["tv", "--m", "100", "--alpha", "0.01", "--method", "linear"]) == 0
    assert capsys.readouterr().out.strip() == f"{bounds.linear_bound(100, 0.01):.12g}"
    # only the exact route stops at m = 2**53
    big = str(10**155)
    assert run(["tv", "--m", big, "--alpha", "0.5", "--method", "naive"]) == 0
    assert capsys.readouterr().out.strip() == "inf"
    assert run(["calibrate", "--m", big, "--rho", "0.01", "--method", "linear"]) == 0
    want = bounds.linear_alpha_for_rho(10**155, 0.01)
    assert capsys.readouterr().out.strip() == f"alpha {want:.12g}"


def test_calibrate_output(capsys):
    assert run(["calibrate", "--m", "1000000", "--rho", "0.01",
                "--method", "linear"]) == 0
    out = capsys.readouterr().out.strip()
    value = float(out.split()[1])
    assert out.startswith("alpha ")
    assert value == pytest.approx(2.5066e-5, abs=1e-9)
    assert run(["calibrate", "--m", "2", "--rho", "0.11",
                "--p0", "0.5", "--beta", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    alpha = float(lines[0].split()[1])
    delta = float(lines[1].split()[1])
    assert alpha == pytest.approx(0.2, abs=1e-8)
    assert delta == pytest.approx(bounds.calibrate_delta(0.5, 0.1, alpha), rel=1e-12)
    # the exact method, printed to 12 significant digits
    for m, rho, want in (("1000000", "0.01", "2.50668963167e-05"),
                         ("2", "0.11", "0.199999999986")):
        assert run(["calibrate", "--m", m, "--rho", rho]) == 0
        assert capsys.readouterr().out == f"alpha {want}\n"


def test_calibrate_delta_above_beta_means_every_admitted_speed_meets_rho(capsys):
    # rho = 0.3 at m = 2 allows alpha = 0.483, more than any speed within
    # beta = 0.1 reaches: the printed delta lies past beta, where alpha_max
    # does not apply, and alpha_max(p0, beta, beta) = 0.2 is below alpha
    assert run(["calibrate", "--m", "2", "--rho", "0.3", "--p0", "0.5", "--beta", "0.1"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["alpha", "0.483239697391", "delta", "0.256771490192"]
    alpha, delta = float(out[1]), float(out[3])
    with pytest.raises(ValidationError, match=r"delta must lie in \[0,0.1\]"):
        bounds.alpha_max(0.5, 0.1, delta)
    top = bounds.alpha_max(0.5, 0.1, 0.1)
    assert top == pytest.approx(0.2, rel=1e-12) and top < alpha
    for d in np.linspace(0.0, 0.1, 11):
        assert tv_bound_exact(2, bounds.alpha_max(0.5, 0.1, float(d))) <= 0.3


def test_normalize_discards_equal_pairs(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_bytes(b"0011")
    assert run(["normalize", "--method", "vn", "-i", str(src), "-o", str(dst)]) == 0
    assert dst.read_bytes() == b""


def test_normalize_methods_match_library(tmp_path):
    rng = np.random.default_rng(6)
    x = BitString.from_array(rng.integers(0, 2, 4096, dtype=np.uint8))
    src = tmp_path / "in.txt"
    src.write_bytes(serialize_bits(x, "ascii"))
    for method, expect in [("vn", vn_normalize(x)), ("peres", peres_normalize(x))]:
        dst = tmp_path / f"{method}.txt"
        assert run(["normalize", "--method", method, "-i", str(src),
                    "-o", str(dst)]) == 0
        assert read_bits(dst) == expect
    dst = tmp_path / "par.txt"
    assert run(["normalize", "--method", "parity", "--block", "4",
                "-i", str(src), "-o", str(dst)]) == 0
    assert read_bits(dst) == parity_normalize(x, 4)


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    argv = ["generate", "--source", "constant", "--p0", "0.7", "-n", "500",
            "--seed", "9"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    expect, _ = sample(ConstantSource(0.7), 500, seed=9)
    assert read_bits(a) == expect


def test_generate_packed_and_trace(tmp_path):
    out = tmp_path / "bits.bin"
    trace = tmp_path / "trace.txt"
    assert run(["generate", "--source", "drifting", "--p0", "0.5",
                "--beta", "0.1", "--delta", "0.01", "-n", "200",
                "--seed", "4", "-o", str(out), "--format", "packed",
                "--trace-out", str(trace)]) == 0
    got = read_bits(out, "packed")
    assert len(got) == 200
    eps = [float(line) for line in trace.read_text().split()]
    assert len(eps) == 200
    assert max(abs(e) for e in eps) <= 0.1


def test_generate_markov_and_pairwise(tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("0 0.53\n1 0.47\n")
    out = tmp_path / "m.txt"
    assert run(["generate", "--source", "markov", "--k", "1", "--kappa", "0.05",
                "--p0", "0.5", "--table", str(table), "-n", "100",
                "-o", str(out)]) == 0
    assert len(read_bits(out)) == 100
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0.5 0.5 0\n")
    assert run(["generate", "--source", "pairwise", "--pairs", str(pairs),
                "-n", "100", "-o", str(out)]) == 0
    got = read_bits(out)
    arr = got.to_array()
    assert np.all(arr[0::2] != arr[1::2])  # only 01/10 pairs have weight


def test_dist_matches_library(tmp_path, capsys):
    assert run(["dist", "--source", "constant", "--p0", "0.7", "-n", "4",
                "--m", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    want = {s: p for s, p in normalized_dist(ConstantSource(0.7), 4, 2).items()}
    got = {line.split(",")[0]: float(line.split(",")[1]) for line in out}
    assert got == want
    path = tmp_path / "t.csv"
    assert run(["dist", "--source", "constant", "--p0", "0.7", "-n", "3",
                "-o", str(path)]) == 0
    assert len(path.read_text().strip().splitlines()) == 8


def test_analyze_reports(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"00011011" * 200)
    csv_out = tmp_path / "report.csv"
    assert run(["analyze", "-i", str(src), "--max-m", "2",
                "--csv", str(csv_out)]) == 0
    out = capsys.readouterr().out
    assert "ones frequency: 0.5" in out
    assert "m=2 empirical TV to uniform: 0" in out
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "m,mode,block,count,expected,deviation_sigma"
    assert len(lines) == 1 + 2 + 4


def test_analyze_overlapping_merged_route(tmp_path, capsys):
    rng = np.random.default_rng(8)
    bits = BitString.from_array(rng.integers(0, 2, 301, dtype=np.uint8))
    assert (borel_counts(bits, 2, "overlapping").counts.tolist()
            != borel_counts(bits, 2).counts.tolist())
    src = tmp_path / "in.txt"
    src.write_bytes(serialize_bits(bits, "ascii"))
    csv_out = tmp_path / "report.csv"
    assert run(["analyze", "-i", str(src), "--mode", "overlapping", "--max-m", "3",
                "--csv", str(csv_out)]) == 0
    out = capsys.readouterr().out
    # the TV line is the disjoint blocks' distance, whatever the mode
    for m in (1, 2, 3):
        tv = total_variation(empirical_block_dist(bits, m), uniform_dist(m))
        assert f"m={m} empirical TV to uniform: {tv:.12g}\n" in out
        assert f"m={m}, mode=overlapping, windows={301 - m + 1}\n" in out
    want = tmp_path / "want.csv"
    write_borel_csv([borel_counts(bits, m, "overlapping") for m in (1, 2, 3)], want)
    assert csv_out.read_bytes() == want.read_bytes()
    lines = csv_out.read_bytes().split(b"\r\n")
    assert lines.count(b"m,mode,block,count,expected,deviation_sigma") == 1
    assert len(lines) == 1 + 2 + 4 + 8 + 1 and lines[-1] == b""


def test_analyze_max_m_above_table_limit(tmp_path, capsys):
    src = tmp_path / "forty.txt"
    src.write_text("0110" * 10)
    csv_out = tmp_path / "report.csv"
    assert run(["analyze", "-i", str(src), "--max-m", "27", "--csv", str(csv_out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not csv_out.exists()
    assert "--max-m = 27 exceeds min(input length, MAX_ENUM_N) = 26" in captured.err


def test_pipeline_million_bits(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    norm = tmp_path / "norm.txt"
    assert run(["generate", "--source", "constant", "--p0", "0.7",
                "-n", "1000000", "-o", str(raw), "--seed", str(DEFAULT_SEED)]) == 0
    assert run(["normalize", "--method", "vn", "-i", str(raw),
                "-o", str(norm)]) == 0
    assert run(["analyze", "-i", str(norm), "--max-m", "1"]) == 0
    out = capsys.readouterr().out
    freq = float(next(line for line in out.splitlines()
                      if line.startswith("ones frequency:")).split(":")[1])
    n_out = len(read_bits(norm))
    sigma = 1.0 / (2.0 * math.sqrt(n_out))
    assert abs(freq - 0.5) <= 4 * sigma


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--m-list", "100,1000", "--alpha-min", "1e-4",
                "--alpha-max", "0.1", "--points", "5", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,alpha,tv_exact,tv_linear,tv_naive"
    assert len(lines) == 1 + 2 * 5


def test_markov_subcommand(tmp_path, capsys):
    out = tmp_path / "markov.csv"
    assert run(["markov", "--k", "1", "--kappa", "0.05", "--m", "2",
                "-n", "12", "--samples", "2000", "--seed", "5",
                "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("k,kappa,m,n,")
    assert lines[1].startswith("1,0.05,2,12,")


def test_markov_odd_n(tmp_path, capsys):
    # the unpaired 17th bit is dropped, not an error: the row is n = 16's but for n
    rows = []
    for n in ("16", "17"):
        out = tmp_path / f"markov{n}.csv"
        assert run(["markov", "--k", "1", "--kappa", "0.05", "--m", "2", "-n", n,
                    "--samples", "100", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[3] == n
        assert "accepted" in capsys.readouterr().err
        rows.append(lines[1].split(","))
    even, odd = rows
    assert even[:3] + even[4:] == odd[:3] + odd[4:]


def test_every_writer_matches_its_oracle_at_small_chunks(monkeypatch, tmp_path,
                                                        capsysbinary):
    # 300-byte chunks put seams inside every output below (1 to 6 rows a
    # chunk); the dist table is mostly below the integer route's range, so
    # most of its rows go to repr in batches
    monkeypatch.setattr("debias.bits._CHUNK", 300)
    argv = ["dist", "--source", "constant", "--p0", "1e-30", "-n", "10"]
    assert run(argv) == 0
    buf = io.StringIO()
    csv_writer_table(exact_source_dist(ConstantSource(1e-30), 10), buf)
    want = buf.getvalue()
    assert capsysbinary.readouterr().out == want.encode()
    assert run(argv + ["-o", str(tmp_path / "dist.csv")]) == 0
    assert (tmp_path / "dist.csv").read_bytes() == want.encode()

    walk = ["--source", "drifting", "--p0", "0.55", "--beta", "0.05", "--delta", "1e-4",
            "--trajectory", "walk"]
    assert run(["generate", *walk, "-n", "3000", "--seed", "9", "-o", str(tmp_path / "w.txt"),
                "--trace-out", str(tmp_path / "trace.txt")]) == 0
    _, trace = sample(DriftingSource(DriftParams(0.55, 0.05, 1e-4), trajectory="walk"), 3000,
                      seed=9)
    assert (tmp_path / "trace.txt").read_bytes() == trace_text(trace).encode()

    assert run(["analyze", "-i", str(tmp_path / "w.txt"), "--max-m", "4",
                "--csv", str(tmp_path / "borel.csv")]) == 0
    bits = read_bits(tmp_path / "w.txt")
    reports = [borel_counts(bits, m) for m in range(1, 5)]
    assert (tmp_path / "borel.csv").read_bytes() == borel_csv(reports).encode()
    out = capsysbinary.readouterr().out.decode()
    assert all(borel_table(r) + "\n" in out for r in reports)

    assert run(["sweep", "--m-list", "2,100", "--alpha-min", "1e-4", "--alpha-max", "0.1",
                "--points", "3"]) == 0
    rows = sweep([2, 100], np.logspace(-4, -1, 3))
    assert capsysbinary.readouterr().out == sweep_csv(rows).encode()

    assert run(["markov", "--k", "1", "--kappa", "0.05", "--m", "2", "-n", "12",
                "--samples", "500", "--seed", "5"]) == 0
    result = run_markov_experiment(MarkovExperiment(k=1, kappa=0.05, m=2, n=12,
                                                    samples=500, seed=5))
    assert capsysbinary.readouterr().out == markov_csv([result]).encode()


def test_small_writers_match_their_oracles(capsysbinary):
    # a 75-row sweep whose tv_linear is NaN at m <= 3, and one-row markov
    # CSVs at and past the exact column's state of MAX_EXACT_STATE = 2^20
    # floats: 2^(10 + 9 + 1) has a tv_exact, 2^21 an empty one
    assert run(["sweep", "--m-list", "1,2,3"]) == 0
    rows = sweep([1, 2, 3], np.logspace(-6, np.log10(0.5), 25))
    assert any(math.isnan(r.tv_linear) for r in rows)
    assert capsysbinary.readouterr().out == sweep_csv(rows).encode()
    for m in (9, 10):
        assert run(["markov", "--k", "10", "--kappa", "0.05", "--m", str(m), "-n", "30",
                    "--samples", "200", "--seed", "5"]) == 0
        result = run_markov_experiment(MarkovExperiment(k=10, kappa=0.05, m=m, n=30,
                                                        samples=200, seed=5))
        assert (result.tv_exact is None) == (m == 10)
        assert capsysbinary.readouterr().out == markov_csv([result]).encode()


def test_exit_codes(tmp_path, capsys):
    # validation error -> 1
    assert run(["tv", "--m", "2", "--alpha", "1.5"]) == 1
    assert "error:" in capsys.readouterr().err
    # missing file -> 2
    assert run(["normalize", "--method", "vn", "-i", str(tmp_path / "nope"),
                "-o", str(tmp_path / "out")]) == 2
    # unknown flag -> 1 (argparse usage error)
    assert run(["tv", "--m", "2", "--alpha", "0.1", "--frobnicate"]) == 1
    # bad numeric range caught before work happens
    assert run(["generate", "--source", "constant", "--p0", "1.7", "-n", "10",
                "-o", str(tmp_path / "x")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, needle", [
    (["markov", "--k", "-1", "--kappa", "0.1", "--m", "2", "-n", "8"], "MAX_MARKOV_K = 16"),
    (["markov", "--k", "17", "--kappa", "0.1", "--m", "2", "-n", "8"], "MAX_MARKOV_K = 16"),
    (["sweep", "--m-list", "10,x"], "--m-list"),
    (["sweep", "--m-list", "10", "--points", "-1"], "--points"),
    (["analyze", "-i", "{bits}", "--max-m", "0", "--csv", "{out}"], "--max-m"),
    (["analyze", "-i", "{bits}", "--max-m", "9", "--csv", "{out}"], "--max-m"),
    (["generate", "--source", "constant", "--p0", "0.7", "-n", "1000", "-o", "{out}",
      "--trace-out", "{bits}.trace"], "no drift trace"),
    (["calibrate", "--m", "10", "--rho", "0.01", "--p0", "0.55"], "both --p0 and --beta"),
    (["calibrate", "--m", "10", "--rho", "0.01", "--method", "linear", "--p0", "0.55",
      "--beta", "0.6"], "beta must lie"),
    (["tv", "--m", "10", "--alpha", "nan", "--method", "linear"], "alpha must be finite"),
    (["tv", "--m", "10", "--alpha", "inf", "--method", "linear"], "alpha must be finite"),
    (["calibrate", "--m", "10", "--rho", "nan", "--method", "naive"], "rho must be finite"),
    (["calibrate", "--m", "10", "--rho", "nan", "--method", "linear", "--p0", "0.55",
      "--beta", "0.05"], "rho must be finite"),
    (["calibrate", "--method", "naive", "--m", "1", "--rho", "1e308"], "rho = 1e+308"),
    (["tv", "--method", "linear", "--m", "3", "--alpha", "1e308"], "alpha must lie in [0,1)"),
    (["tv", "--method", "linear", "--m", "3", "--alpha", "5"], "alpha must lie in [0,1)"),
    (["calibrate", "--method", "naive", "--m", "1", "--rho", "1e300"],
     "rho = 1e+300 is too large for m = 1"),
    (["calibrate", "--method", "linear", "--m", "3", "--rho", "5"],
     "rho = 5.0 is too large for m = 3"),
    (["generate", "--source", "pairwise", "--pairs", "{pairs}", "-n", "8", "-o", "{out}"],
     "negative or NaN weight"),
    (["generate", "--source", "markov", "--k", "1", "--kappa", "0.4", "--p0", "0.5",
      "--table", "{table}", "-n", "8", "-o", "{out}"], "line 2: duplicate history '0'"),
    (["markov", "--k", "1", "--kappa", "0.1", "--m", "27", "-n", "54", "-o", "{out}"],
     "m = 27 exceeds the enumeration guard 26"),
    (["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "sine", "--period", "nan", "-n", "8", "-o", "{out}"],
     "period must be > 0, got nan"),
    (["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "fixed", "--trace-in", "{trace}", "-n", "3", "-o", "{out}"],
     "amplitude bound violated at index 2: |eps| = nan"),
    (["dist", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "sine", "--period", "nan", "-n", "4", "-o", "{out}"],
     "period must be > 0, got nan"),
    (["dist", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "fixed", "--trace-in", "{trace}", "-n", "3", "-o", "{out}"],
     "amplitude bound violated at index 2: |eps| = nan"),
    (["generate", "--source", "constant", "--p0", "0.7", "-n", "8", "--seed", "-1",
      "-o", "{out}"], "seed must be an integer >= 0, got -1"),
    (["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "-n", "8", "-o", "{out}", "--trace-out", "{out}"], "-o and --trace-out name one file"),
    (["dist", "--source", "constant", "--p0", "0.7", "-n", "1", "--m", "1", "-o", "{out}"],
     "m = 1 exceeds n // 2 = 0"),
    (["generate", "--source", "constant", "-n", "8", "-o", "{out}"],
     "constant source needs --p0"),
    (["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "-n", "8",
      "-o", "{out}"], "drifting source needs --p0, --beta and --delta"),
    (["generate", "--source", "markov", "--k", "1", "--kappa", "0.1", "--p0", "0.5",
      "-n", "8", "-o", "{out}"], "markov source needs --k, --kappa, --p0 and --table"),
    (["generate", "--source", "pairwise", "-n", "8", "-o", "{out}"],
     "pairwise source needs --pairs"),
    (["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "fixed", "-n", "8", "-o", "{out}"], "fixed trajectory needs --trace-in"),
    (["sweep", "--m-list", ",", "-o", "{out}"], "--m-list is empty"),
    (["tv", "--method", "naive", "--m", "2", "--alpha", "1.5"], "alpha must lie in [0,1)"),
    # no flag is taken for a prefix of another
    (["tv", "--m", "2", "--alph", "0.2"],
     "debias tv: error: the following arguments are required: --alpha"),
    # the exact route stops at m = 2**53; these raised a traceback before it
    (["tv", "--m", str(10**155), "--alpha", "0.5"],
     f"m = {10**155} exceeds 2**53, the exact route's limit"),
    (["sweep", "--m-list", str(10**200), "-o", "{out}"],
     f"m = {10**200} exceeds 2**53, the exact route's limit"),
    (["tv", "--m", str(10**309), "--alpha", "0.5"],
     f"m = {10**309} exceeds 2**53, the exact route's limit"),
    (["calibrate", "--m", str(10**307), "--rho", "0.01"],
     f"m = {10**307} exceeds 2**53, the exact route's limit"),
    (["tv", "--m", str(2**53 + 1), "--alpha", "0.5"],
     f"m = {2**53 + 1} exceeds 2**53, the exact route's limit"),
])
def test_bad_arguments_fail_fast(argv, needle, tmp_path, capsys):
    bits = tmp_path / "four.txt"
    bits.write_text("0110")
    pairs = tmp_path / "nan.pairs"
    pairs.write_text("nan 0.5 0.5 0\n")
    table = tmp_path / "dup.table"
    table.write_text("0 0.5\n0 0.9\n1 0.5\n")
    trace = tmp_path / "nan.trace"
    trace.write_text("0.0\nnan\n0.0\n")
    out = tmp_path / "out.csv"  # the file no failing command may create
    argv = [a.format(bits=bits, pairs=pairs, table=table, trace=trace, out=out) for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    # argparse prints its usage line before its own ": error: " line
    assert captured.err.startswith("usage: " if ": error: " in needle else "error:")
    assert needle in captured.err
    assert captured.out == "" and not out.exists()


def test_generate_refuses_one_file_for_bits_and_trace(tmp_path, capsys):
    # a spelling of the bits path, or a hard or symbolic link to it, names
    # the same file; neither file is opened
    bits = tmp_path / "bits.txt"
    bits.write_text("kept")
    os.link(bits, tmp_path / "hard.txt")
    (tmp_path / "soft.txt").symlink_to(bits)
    argv = ["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta",
            "0.01", "-n", "8", "-o", str(bits), "--trace-out"]
    for trace in (os.path.join(tmp_path, ".", "bits.txt"), tmp_path / "hard.txt",
                  tmp_path / "soft.txt"):
        assert run(argv + [str(trace)]) == 1
        assert "-o and --trace-out name one file" in capsys.readouterr().err
    assert bits.read_text() == "kept"


# each size argument has one stated limit, checked before any allocation; a
# tree without it would allocate without bound, so these run in a bounded child
@pytest.mark.parametrize("argv, needle", [
    (["sweep", "--m-list", "10", "--points", "100000000", "-o", "{out}"],
     "--points = 100000000 exceeds MAX_SWEEP_POINTS = 10000"),
    (["markov", "--k", "16", "--kappa", "0.05", "--m", "8", "-n", "100",
      "--samples", "1000000000000", "-o", "{out}"],
     "samples = 1000000000000 exceeds MAX_MARKOV_SAMPLES = 1000000"),
    (["markov", "--k", "1", "--kappa", "0.05", "--m", "2", "-n", "100000",
      "--samples", "100000", "-o", "{out}"],
     "n * samples = 10000000000 exceeds MAX_MARKOV_WORK = 1000000000"),
], ids=["sweep-points", "markov-samples", "markov-work"])
def test_size_limits_fail_fast_in_a_bounded_child(argv, needle, tmp_path):
    out = tmp_path / "out.csv"
    done = run_cli(*(a.format(out=out) for a in argv))
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error:") and needle in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == "" and not out.exists()


@pytest.mark.parametrize("m, n", [(8, 22), (9, 26)])
def test_markov_exact_column_past_its_budget_in_a_bounded_child(m, n, tmp_path):
    # k = 16 within the guard k + m + 1 <= 26: a forward pass of 2^25 or
    # 2^26 floats per array would take about 0.6 or 1.2 GiB, so the
    # explorer leaves tv_exact out rather than run out of memory
    out = tmp_path / "out.csv"
    done = run_cli("markov", "--k", "16", "--kappa", "0.05", "--m", str(m), "-n", str(n),
                   "--samples", "10", "-o", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("tv_exact n/a  tv_empirical ")
    assert out.read_text().splitlines()[1].startswith(f"16,0.05,{m},{n},,")


def test_module_runs_as_script():
    done = run_cli("tv", "--m", "2", "--alpha", "0.2")
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.11\n", "")


def test_help_is_the_same_with_one_subcommand_built(monkeypatch, capsys):
    # the help of each subcommand, and the top level's, reads the same in a
    # fresh process as from the parser this process has built and used; the
    # child inherits this process's COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    for argv in [["--help"]] + [[c, "--help"] for c in cli._COMMANDS]:
        assert run(argv) == 0
        done = run_cli(*argv)
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out), argv


def test_parser_built_once_and_dispatch_late_bound(monkeypatch, capsys):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_tv", lambda args: seen.append(args.alpha) or 0)
    assert run(["tv", "--m", "2", "--alpha", "0.2"]) == 0
    assert seen == [0.2] and capsys.readouterr().out == ""
    monkeypatch.undo()
    # a usage error leaves nothing behind in the shared parser
    argv = ["calibrate", "--m", "2", "--rho", "0.11", "--p0", "0.5", "--beta", "0.1"]
    assert run(["calibrate", "--m", "2", "--rho", "x"]) == 1
    assert run(argv) == 0
    out = capsys.readouterr().out
    fresh = run_python("-c", "from debias.cli import main; main()", *argv, check=True)
    assert out == fresh.stdout and out.startswith("alpha 0.199999999986\n")


def test_traced_names_bound_on_first_use_and_kept(monkeypatch, tmp_path, capsys):
    # parse_bits, normalized_dist and exact_source_dist become cli globals when
    # a command first needs them; one bound before that (a wrapper, a test
    # double) is the one every command then calls
    bits = tmp_path / "bits.txt"
    bits.write_text("0110" * 8)
    seen = []

    def spy(fn):
        return lambda *args: seen.append(fn.__name__) or fn(*args)

    for fn in (parse_bits, normalized_dist, exact_source_dist):
        monkeypatch.setattr(cli, fn.__name__, spy(fn), raising=False)
    assert run(["analyze", "-i", str(bits), "--max-m", "2"]) == 0
    for m in (["--m", "2"], []):
        assert run(["dist", "--source", "constant", "--p0", "0.7", "-n", "6", *m]) == 0
    assert seen == ["parse_bits", "normalized_dist", "exact_source_dist"]
    capsys.readouterr()


def _source_flags(spec, tmp_path) -> list:
    """``generate`` flags for ``spec``, with its parameter file written to tmp_path."""
    if isinstance(spec, ConstantSource):
        return ["--source", "constant", "--p0", repr(spec.p0)]
    if isinstance(spec, MarkovSource):
        save_markov_table(spec.table, tmp_path / "table")
        return ["--source", "markov", "--k", str(spec.k), "--kappa", repr(spec.kappa),
                "--p0", repr(spec.p0), "--table", str(tmp_path / "table")]
    if isinstance(spec, PairwiseSource):
        rows = spec.pair_matrix(len(spec.pair_dists)).tolist()
        (tmp_path / "pairs").write_text("".join(" ".join(map(repr, r)) + "\n" for r in rows))
        return ["--source", "pairwise", "--pairs", str(tmp_path / "pairs")]
    p = spec.params
    flags = ["--source", "drifting", "--p0", repr(p.p0), "--beta", repr(p.beta),
             "--delta", repr(p.delta), "--trajectory", spec.trajectory]
    if spec.trajectory == "sine":
        flags += ["--period", repr(spec.period)]
    if spec.trajectory == "fixed":
        spec.trace.save(tmp_path / "trace.in")
        flags += ["--trace-in", str(tmp_path / "trace.in")]
    return flags


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("spec, oracle", [c for c in seam_cases() if c.id != "markov-k16"])
def test_generate_chunk_seams_match_whole_run_oracles(monkeypatch, tmp_path, stream, spec,
                                                      oracle):
    # bits and trace are written a chunk at a time; n sits at and around the
    # chunk edges, and only n = stream fills the packed file's last byte
    monkeypatch.setattr("debias.sources._STREAM", stream)
    flags = _source_flags(spec, tmp_path)
    drifting = isinstance(spec, DriftingSource)
    for n in (stream - 2, stream, stream + 2, 2 * stream + 3):
        n -= n % 2 if isinstance(spec, PairwiseSource) else 0
        want_bits, want_trace = oracle(n, n)
        for fmt in ("ascii", "packed"):
            out, trace = tmp_path / f"bits.{fmt}", tmp_path / "trace.txt"
            argv = ["generate", *flags, "-n", str(n), "--seed", str(n), "--format", fmt,
                    "-o", str(out)]
            assert run(argv + (["--trace-out", str(trace)] if drifting else [])) == 0
            assert out.read_bytes() == serialize_bits(want_bits, fmt), (n, fmt)
            if drifting:
                assert trace.read_bytes() == trace_text(want_trace).encode(), (n, fmt)


# The child prints its own peak resident set, VmHWM, in kB.  Its ru_maxrss
# would not do: Linux carries the high-water mark across exec, so a child
# forked from this test process reads at least the test process's size.
_PEAK_CHILD = """import runpy, sys
try:
    runpy.run_module("debias.cli", run_name="__main__", alter_sys=True)
finally:
    hwm = [line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")]
    print("peak_kb", *hwm, file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("kind", ["constant", "walk", "markov", "pairwise"])
def test_generate_memory_is_independent_of_n(tmp_path, kind):
    (tmp_path / "table").write_text("00 0.5\n01 0.52\n10 0.48\n11 0.55\n")
    (tmp_path / "pairs").write_text("0.1 0.2 0.3 0.4\n0.25 0.25 0.25 0.25\n")
    flags = {"constant": ["--source", "constant", "--p0", "0.7"],
             "walk": ["--source", "drifting", "--p0", "0.55", "--beta", "0.05",
                      "--delta", "1e-4"],
             "markov": ["--source", "markov", "--k", "2", "--kappa", "0.05", "--p0", "0.5",
                        "--table", str(tmp_path / "table")],
             "pairwise": ["--source", "pairwise", "--pairs", str(tmp_path / "pairs")]}[kind]
    peaks = []
    for n in (10**5, 10**7):
        done = run_python("-c", _PEAK_CHILD, "generate", *flags, "-n", str(n),
                          "--format", "packed", "-o", str(tmp_path / "bits"))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "bits").stat().st_size == 8 + -(-n // 8)
        peaks.append(int(done.stderr.split("peak_kb")[-1]) / 1024)
    assert peaks[1] - peaks[0] < 20, peaks  # MiB


def _peak_mib(*argv) -> float:
    """The peak resident set, in MiB, of ``debias`` run with ``argv`` in a
    bounded child, which must exit 0."""
    done = run_python("-c", _PEAK_CHILD, *argv)
    assert done.returncode == 0, done.stderr
    return int(done.stderr.split("peak_kb")[-1]) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_normalized_dist_memory_is_independent_of_n(tmp_path):
    # the forward pass builds a drifting source's pair masses 1,024 pairs at
    # a time, so 10^5 input bits peak as 10^3 do
    flags = ["dist", "--source", "drifting", "--p0", "0.55", "--beta", "0.05", "--delta",
             "0.01", "--trajectory", "adversarial", "--m", "8", "-o", str(tmp_path / "d.csv")]
    small, large = (_peak_mib(*flags, "-n", str(n)) for n in (1000, 100000))
    assert abs(large - small) < 5, (small, large)
    assert len((tmp_path / "d.csv").read_text().splitlines()) == 256


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_markov_memory_is_independent_of_m(tmp_path):
    # the empirical distance counts the kept codes, with no 2^m-entry table:
    # 2^24 entries took about 140 MiB more than 2^18.  Both m are past the
    # exact column's state limit, so neither runs its forward pass
    peaks = [_peak_mib("markov", "--k", "1", "--kappa", "0.1", "--m", str(m), "-n",
                       str(2 * m + 2), "--samples", "10", "-o", str(tmp_path / "m.csv"))
             for m in (18, 24)]
    assert abs(peaks[1] - peaks[0]) < 3, peaks


@pytest.mark.parametrize("flags, body", [
    (["--source", "markov", "--k", "1", "--kappa", "0.1", "--p0", "0.5", "--table"],
     b"0 0.5\n\xff 0.5\n"),
    (["--source", "pairwise", "--pairs"], b"# weights\n0.25 0.25 0.25 0.25\n0.5 \xe9 0.5 0\n"),
    (["--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "fixed", "--trace-in"], b"0.0\n\n0.01\n\xc3(\n"),
])
def test_parameter_file_that_is_not_utf8_fails_on_its_line(tmp_path, capsys, flags, body):
    path = tmp_path / "params"
    path.write_bytes(body)
    out = tmp_path / "bits"
    assert run(["generate", *flags, str(path), "-n", "2", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    lineno = body.count(b"\n")
    assert captured.err == f"error: {path}: line {lineno}: not UTF-8 text\n"
    assert not out.exists()
    # the same characters, UTF-8 encoded, are read as text: not numbers
    path.write_bytes(body.decode("latin-1").encode("utf-8"))
    assert run(["generate", *flags, str(path), "-n", "2", "-o", str(out)]) == 1
    assert "not UTF-8" not in capsys.readouterr().err


def _normalize_and_analyze(tmp_path, capsys) -> dict:
    """The bytes of every normalize output and analyze output (stdout and
    CSV), in both formats, of the bit files in tmp_path."""
    out = {}
    for fmt in ("ascii", "packed"):
        raw = str(tmp_path / f"raw.{fmt}")
        for method, block in (("vn", "2"), ("peres", "2"), ("parity", "3")):
            dst = tmp_path / f"{method}.{fmt}"
            assert run(["normalize", "--method", method, "--block", block, "-i", raw,
                        "-o", str(dst), "--format", fmt]) == 0
            out[method, fmt] = dst.read_bytes()
        for mode in ("non-overlapping", "overlapping"):
            csv = tmp_path / "report.csv"
            assert run(["analyze", "-i", raw, "--mode", mode, "--max-m", "8", "--csv", str(csv),
                        "--format", fmt]) == 0
            out[mode, fmt] = (capsys.readouterr().out, csv.read_bytes())
    return out


@pytest.mark.parametrize("size", [1, 7, 8, 1003])
def test_normalize_and_analyze_bytes_do_not_depend_on_chunk_sizes(monkeypatch, tmp_path,
                                                                  capsys, size):
    rng = np.random.default_rng(size)
    x = BitString.from_array((rng.random(3001) >= 0.6).astype(np.uint8))
    for fmt in ("ascii", "packed"):
        (tmp_path / f"raw.{fmt}").write_bytes(serialize_bits(x, fmt))
    want = _normalize_and_analyze(tmp_path, capsys)  # one chunk each
    assert want["peres", "packed"] == serialize_bits(peres_normalize(x), "packed")
    assert want["parity", "ascii"] == serialize_bits(parity_normalize(x, 3), "ascii")
    monkeypatch.setattr("debias.normalize._OUT", size)
    monkeypatch.setattr("debias.stats._WIN", size)
    assert _normalize_and_analyze(tmp_path, capsys) == want
    # both formats carry a piece's odd bits into the next piece and decode alike
    for method in ("vn", "peres", "parity"):
        assert parse_bits(want[method, "packed"], "packed") == parse_bits(want[method, "ascii"],
                                                                          "ascii")
    # the overlapping counts of each m cover its n - m + 1 windows
    rows = want["overlapping", "packed"][1].decode().split("\r\n")[1:-1]
    sums = {}
    for row in rows:
        m, count = row.split(",")[0], row.split(",")[3]
        sums[int(m)] = sums.get(int(m), 0) + int(count)
    assert len(rows) == 510 and sums == {m: 3001 - m + 1 for m in range(1, 9)}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_normalize_and_analyze_memory_per_input_bit(tmp_path):
    # the peak of a fresh process at 10^5 and at 10^7 input bits: the input
    # takes 1 B a bit, the packed parse a second byte for a moment.  Per-m
    # int64 windows (analyze) and whole-output index arrays (Peres) grew
    # them by 9.0 B and 14.6 B a bit.
    rng = np.random.default_rng(5)
    cmds = {"analyze": ["analyze", "--mode", "overlapping", "--max-m", "8"],
            "peres": ["normalize", "--method", "peres", "-o", str(tmp_path / "out")]}
    peaks = {name: [] for name in cmds}
    for n in (10**5, 10**7):
        raw = tmp_path / "raw"
        raw.write_bytes(n.to_bytes(8, "little") + rng.integers(0, 256, n // 8, np.uint8).tobytes())
        for name, argv in cmds.items():
            done = run_python("-c", _PEAK_CHILD, *argv, "-i", str(raw), "--format", "packed")
            assert done.returncode == 0, done.stderr
            peaks[name].append(int(done.stderr.split("peak_kb")[-1]) * 1024)
    growth = {name: (p[1] - p[0]) / (10**7 - 10**5) for name, p in peaks.items()}
    assert growth["analyze"] < 2.5 and growth["peres"] < 7, growth  # bytes per input bit
