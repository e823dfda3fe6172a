import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from debias import (BitString, ConstantSource, DriftingSource, DriftParams,
                    MarkovExperiment, borel_counts, bounds, cli, empirical_block_dist,
                    exact_source_dist, normalized_dist, parity_normalize, parse_bits,
                    peres_normalize, run_markov_experiment, sample, serialize_bits,
                    sweep, total_variation, tv_bound_exact, uniform_dist,
                    vn_normalize, write_borel_csv)
from debias.cli import DEFAULT_SEED, build_parser, run
from string_oracles import (borel_csv, borel_table, csv_writer_table, markov_csv,
                            sweep_csv, trace_text)


def read_bits(path, fmt="ascii"):
    return parse_bits(path.read_bytes(), fmt)


def test_tv_matches_library(capsys):
    assert run(["tv", "--m", "2", "--alpha", "0.2", "--method", "exact"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{tv_bound_exact(2, 0.2):.12g}" == "0.11"
    assert run(["tv", "--m", "100", "--alpha", "0.01", "--method", "linear"]) == 0
    assert capsys.readouterr().out.strip() == f"{bounds.linear_bound(100, 0.01):.12g}"


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
    # the unpaired 17th bit is dropped, not an error
    out = tmp_path / "markov.csv"
    assert run(["markov", "--k", "1", "--kappa", "0.05", "--m", "2", "-n", "17",
                "--samples", "100", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[3] == "17"
    assert "accepted" in capsys.readouterr().err


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
    # a 75-row sweep whose tv_linear is NaN at m <= 3, and a one-row markov
    # CSV whose tv_exact is empty (n = 30 is past the enumeration guard)
    assert run(["sweep", "--m-list", "1,2,3"]) == 0
    rows = sweep([1, 2, 3], np.logspace(-6, np.log10(0.5), 25))
    assert any(math.isnan(r.tv_linear) for r in rows)
    assert capsysbinary.readouterr().out == sweep_csv(rows).encode()
    assert run(["markov", "--k", "1", "--kappa", "0.05", "--m", "2", "-n", "30",
                "--samples", "200", "--seed", "5"]) == 0
    result = run_markov_experiment(MarkovExperiment(k=1, kappa=0.05, m=2, n=30,
                                                    samples=200, seed=5))
    assert result.tv_exact is None
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
    assert captured.err.startswith("error:") and needle in captured.err
    assert captured.out == "" and not out.exists()


def test_module_runs_as_script():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-m", "debias.cli", "tv", "--m", "2", "--alpha", "0.2"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.11\n", "")


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
    src = os.path.dirname(os.path.dirname(cli.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", "from debias.cli import main; main()", *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out == fresh.stdout and out.startswith("alpha 0.199999999986\n")
