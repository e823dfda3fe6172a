"""What only a fresh process shows: a refused command's exit status, as a
shell pipeline sees it.  The messages themselves are checked in process by
``test_cli.py::test_bad_arguments_fail_fast``."""

import pytest

from child import run_cli


@pytest.mark.parametrize("argv, start", [
    (["analyze", "-i", "{bits}", "--max-m", "27"], "error:"),
    (["generate", "--source", "pairwise", "--pairs", "{pairs}", "-n", "8", "-o", "{out}"],
     "error:"),
    (["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "sine", "--period", "nan", "-n", "8", "-o", "{out}"], "error:"),
    (["generate", "--source", "drifting", "--p0", "0.5", "--beta", "0.1", "--delta", "0.01",
      "--trajectory", "fixed", "--trace-in", "{trace}", "-n", "3", "-o", "{out}"], "error:"),
    (["calibrate", "--method", "naive", "--m", "1", "--rho", "1e308"], "error:"),
    # argparse's usage error: its usage line comes before its "error:" line
    (["tv", "--m", "2", "--alph", "0.2"], "usage: debias tv"),
    # m past the exact route's limit 2**53
    (["tv", "--m", str(10**155), "--alpha", "0.5"], "error:"),
    (["sweep", "--m-list", str(10**200), "-o", "{out}"], "error:"),
    (["tv", "--m", str(10**309), "--alpha", "0.5"], "error:"),
    (["calibrate", "--m", str(10**307), "--rho", "0.01"], "error:"),
], ids=["analyze-max-m", "nan-pairs", "nan-period", "nan-trace", "naive-rho", "abbreviated-flag",
        "tv-m-1e155", "sweep-m-1e200", "tv-m-1e309", "calibrate-m-1e307"])
def test_refused_command_exits_1(argv, start, tmp_path):
    bits = tmp_path / "forty.txt"
    bits.write_text("0110" * 10)
    pairs = tmp_path / "nan.pairs"
    pairs.write_text("nan 0.5 0.5 0\n")
    trace = tmp_path / "nan.trace"
    trace.write_text("0.0\nnan\n0.0\n")
    out = tmp_path / "out.txt"
    done = run_cli(*(a.format(bits=bits, pairs=pairs, trace=trace, out=out) for a in argv))
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(start) and "Traceback" not in done.stderr
    assert done.stdout == "" and not out.exists()
