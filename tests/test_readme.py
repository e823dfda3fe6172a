"""The README's library tour and its command-line block run as written, so an
API or flag change that leaves them stale fails here."""

import os
import re
import shlex
import sys
from pathlib import Path

from child import run_child

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(text, lang) -> list:
    """The bodies of the fenced ``lang`` blocks in ``text``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    blocks = _blocks(README.read_text(), "python")
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the tour writes t.csv and borel.csv
    exec(compile(blocks[0], str(README), "exec"), {})
    assert (tmp_path / "t.csv").exists() and (tmp_path / "borel.csv").exists()


def _crlf_rows(path) -> list:
    rows = path.read_bytes().split(b"\r\n")
    assert rows.pop() == b""
    return rows


def test_readme_command_line_runs(tmp_path):
    # `debias` is this checkout's module runner, through a shim first on PATH
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    blocks = _blocks(section, "sh")
    assert len(blocks) == 1
    shim = tmp_path / "bin" / "debias"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m debias.cli "$@"\n')
    shim.chmod(0o755)
    done = run_child(["sh", "-e", "-c", blocks[0]], cwd=tmp_path,
                     env={"PATH": f"{shim.parent}{os.pathsep}{os.environ['PATH']}"})
    assert done.returncode == 0, done.stderr
    assert "\n0.11\n" in done.stdout  # the tv line
    # the outputs the block writes: a CSV header each, and one row per block
    # of each m = 1..3, per sweep point and per explorer run
    report = _crlf_rows(tmp_path / "report.csv")
    assert report[0] == b"m,mode,block,count,expected,deviation_sigma" and len(report) == 15
    sweep = _crlf_rows(tmp_path / "sweep.csv")
    assert sweep[0] == b"m,alpha,tv_exact,tv_linear,tv_naive" and len(sweep) == 101
    explore = _crlf_rows(tmp_path / "explore.csv")
    assert explore[0] == b"k,kappa,m,n,tv_exact,tv_empirical,samples,seed" and len(explore) == 2
    trace = (tmp_path / "trace.txt").read_bytes().split(b"\n")
    assert trace.pop() == b"" and len(trace) == 10**6 and trace[0] == b"0.0"
