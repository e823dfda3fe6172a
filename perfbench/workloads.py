"""Workload definitions: the inputs and the op list of each workload.

Every input is derived from the *input set* ``seed % INPUT_SETS``; the
goldens in ``goldens/`` were captured for each input set on the commit that
added the benchmark, so every seed has a golden to compare against.

An op is one CLI invocation (through ``debias.cli.run``) or, for
``vn_preimage``, one library call.  Ops run one after another in one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

INPUT_SETS = 16
N_STREAM = 1_000_000

# drifting-source parameters (README examples); the exact workload uses a
# faster drift so that a 20-bit sine period is legal
WALK = {"p0": 0.55, "beta": 0.05, "delta": 1e-4}
DRIFT_EXACT = {"p0": 0.55, "beta": 0.05, "delta": 0.02}
SINE_PERIOD = 20.0
MARKOV3 = {"k": 3, "kappa": 0.05, "p0": 0.6}
PAIR_SLOTS = 11
CAL_DRIFT = {"p0": 0.55, "beta": 0.05}
SWEEP_MS = "100,1000,10000,1000000"

# bounds grid: m on a half-decade log grid from 1 to 10^9
BOUND_MS = [round(10 ** (i / 2)) for i in range(19)]
RHOS = np.logspace(math.log10(1e-4), math.log10(0.3), 6)
ALPHAS = np.logspace(-9, math.log10(0.5), 10)
JITTER_DECADES = 0.02

# Checks, by kind:
#   exact      every output byte-identical to the golden (bit data, reports)
#   walk       bit file byte-identical; drift trace byte-identical or within
#              1e-9 of the golden fingerprint (the walk may move by an ulp)
#   dist       normalized table vs an independent pair DP at 1e-12
#   raw        raw source table vs an independent pair product at 1e-12
#   markov     sampled columns equal the golden, tv_exact vs the pair DP
#   tv, calibrate, sweep   bound values at 1e-12 vs scipy, or vs 50-digit
#              quadrature where scipy itself is off (m near 10^9)
CHECK_KINDS = ("exact", "walk", "dist", "raw", "markov", "tv", "calibrate", "sweep")


@dataclass
class Op:
    name: str
    argv: Optional[list] = None          # CLI arguments for debias.cli.run
    call: Optional[Callable] = None      # or a library call returning a value
    outputs: dict = field(default_factory=dict)  # label -> file path
    inputs: list = field(default_factory=list)   # files the op reads
    check: str = "exact"
    params: dict = field(default_factory=dict)   # what the independent check needs
    golden: Optional[str] = None         # digest group; default: the op name

    def __post_init__(self):
        if self.check not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {self.check!r}")
        if self.golden is None:
            self.golden = self.name


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def _rng(g: int, salt: int):
    return np.random.default_rng([g, salt])


def markov3_table(g: int) -> dict:
    rng = _rng(g, 1)
    p0, kappa = MARKOV3["p0"], MARKOV3["kappa"]
    vals = rng.uniform(p0 - kappa, p0 + kappa, size=1 << MARKOV3["k"])
    return {format(h, f"0{MARKOV3['k']}b"): float(v) for h, v in enumerate(vals)}


def pair_weights(g: int) -> list:
    rng = _rng(g, 2)
    w = rng.uniform(0.5, 1.5, size=(PAIR_SLOTS, 4))
    return (w / w.sum(axis=1, keepdims=True)).tolist()


def make_inputs(g: int, work: Path) -> dict:
    """Write the input files of input set ``g`` into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    table = work / "markov3.table"
    with open(table, "w") as f:
        for h, p in sorted(markov3_table(g).items()):
            f.write(f"{h} {p!r}\n")
    pairs = work / "pairs.txt"
    with open(pairs, "w") as f:
        for row in pair_weights(g):
            f.write(" ".join(repr(v) for v in row) + "\n")
    return {"table": str(table), "pairs": str(pairs)}


def _s(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _drift_flags(d: dict) -> list:
    return ["--p0", _s(d["p0"]), "--beta", _s(d["beta"]), "--delta", _s(d["delta"])]


def _markov_flags(table: str) -> list:
    return ["--k", "3", "--kappa", _s(MARKOV3["kappa"]), "--p0", _s(MARKOV3["p0"]),
            "--table", table]


def stream_ops(g: int, work: Path, inp: dict) -> list:
    """10^6-bit generate -> normalize -> analyze pipelines: ascii from a
    drifting walk (with its trace), packed from a k=3 Markov source analyzed
    with overlapping windows, plus constant and pairwise generators."""
    seed = 10_000 + 4 * g
    n = str(N_STREAM)
    ops = []
    halves = [
        ("walk", "ascii", ["--source", "drifting", *_drift_flags(WALK), "--trajectory",
                           "walk", "--seed", str(seed)],
         ["--max-m", "3"]),
        ("markov", "packed", ["--source", "markov", *_markov_flags(inp["table"]),
                              "--seed", str(seed + 1)],
         ["--mode", "overlapping", "--max-m", "8"]),
    ]
    for src, fmt, flags, analyze_flags in halves:
        raw = str(work / f"{src}.{fmt}")
        argv = ["generate", *flags, "-n", n, "--format", fmt, "-o", raw]
        outputs = {"bits": raw}
        inputs = [inp["table"]] if src == "markov" else []
        if src == "walk":
            trace = str(work / "walk.trace")
            argv += ["--trace-out", trace]
            outputs["trace"] = trace
        ops.append(Op(f"generate.{src}.{fmt}", argv, outputs=outputs, inputs=inputs,
                      check="walk" if src == "walk" else "exact"))
        for method in ("vn", "peres", "parity"):
            out = str(work / f"{src}.{method}.{fmt}")
            block = ["--block", "8"] if method == "parity" else []
            ops.append(Op(f"normalize.{method}.{fmt}",
                          ["normalize", "--method", method, *block, "-i", raw, "-o", out,
                           "--format", fmt],
                          outputs={"bits": out}, inputs=[raw]))
        for method in ("vn", "peres", "parity"):
            src_file = str(work / f"{src}.{method}.{fmt}")
            csv_out = str(work / f"{src}.{method}.{fmt}.csv")
            ops.append(Op(f"analyze.{method}.{fmt}",
                          ["analyze", "-i", src_file, *analyze_flags, "--csv", csv_out,
                           "--format", fmt],
                          outputs={"csv": csv_out}, inputs=[src_file]))
    for src, flags, inputs in (
            ("constant", ["--source", "constant", "--p0", "0.7"], []),
            ("pairwise", ["--source", "pairwise", "--pairs", inp["pairs"]], [inp["pairs"]])):
        out = str(work / f"{src}.packed")
        ops.append(Op(f"generate.{src}.packed",
                      ["generate", *flags, "-n", n, "--seed", str(seed + 2),
                       "--format", "packed", "-o", out],
                      outputs={"bits": out}, inputs=inputs))
    return ops


def _jittered(values, rng) -> list:
    return [float(v * 10 ** rng.uniform(-JITTER_DECADES, JITTER_DECADES)) for v in values]


def bounds_ops(g: int, work: Path, inp: dict) -> list:
    """calibrate (with drift inversion) and tv over an m x rho / m x alpha log
    grid, plus one sweep.  No bit arrays are built."""
    rng = _rng(g, 3)
    ops = []
    for m in BOUND_MS:
        for i, rho in enumerate(_jittered(RHOS, rng)):
            ops.append(Op(f"calibrate.m{m}.rho{i}",
                          ["calibrate", "--m", str(m), "--rho", repr(rho),
                           "--p0", _s(CAL_DRIFT["p0"]), "--beta", _s(CAL_DRIFT["beta"])],
                          check="calibrate", golden="calibrate",
                          params={"m": m, "rho": rho, **CAL_DRIFT}))
    for m in BOUND_MS:
        for i, alpha in enumerate(_jittered(ALPHAS, rng)):
            ops.append(Op(f"tv.m{m}.alpha{i}",
                          ["tv", "--m", str(m), "--alpha", repr(alpha)],
                          check="tv", golden="tv", params={"m": m, "alpha": alpha}))
    out = str(work / "sweep.csv")
    ops.append(Op("sweep", ["sweep", "--m-list", SWEEP_MS, "-o", out],
                  outputs={"csv": out}, check="sweep", golden="sweep",
                  params={"ms": [int(m) for m in SWEEP_MS.split(",")],
                          "alpha_min": 1e-6, "alpha_max": 0.5, "points": 25}))
    return ops


def _preimage():
    import debias.normalize
    from debias.bits import BitString
    return debias.normalize.vn_preimage(BitString("0110"), 22)


def exact_ops(g: int, work: Path, inp: dict) -> list:
    """Exact tables by enumeration (2^22 entries), the k=2 Markov explorer
    and the vn preimage of a 4-bit string at n = 22."""
    p0 = round(0.6 + 0.1 * g / INPUT_SETS, 6)
    specs = [
        ("constant", ["--source", "constant", "--p0", _s(p0)], {"p0": p0}, []),
        ("adversarial", ["--source", "drifting", *_drift_flags(DRIFT_EXACT),
                         "--trajectory", "adversarial"], dict(DRIFT_EXACT), []),
        ("sine", ["--source", "drifting", *_drift_flags(DRIFT_EXACT),
                  "--trajectory", "sine", "--period", _s(SINE_PERIOD)],
         {**DRIFT_EXACT, "period": SINE_PERIOD}, []),
        ("markov", ["--source", "markov", *_markov_flags(inp["table"])],
         {**MARKOV3, "table": markov3_table(g)}, [inp["table"]]),
        ("pairwise", ["--source", "pairwise", "--pairs", inp["pairs"]],
         {"pairs": pair_weights(g)}, [inp["pairs"]]),
    ]
    ops = []
    for kind, flags, params, inputs in specs:
        out = str(work / f"dist.{kind}.csv")
        ops.append(Op(f"dist.{kind}.n22.m8", ["dist", *flags, "-n", "22", "--m", "8",
                                               "-o", out],
                      outputs={"csv": out}, inputs=inputs, check="dist",
                      params={"kind": kind, "n": 22, "m": 8, **params}))
    out = str(work / "dist.raw16.csv")
    ops.append(Op("dist.pairwise.raw16", ["dist", "--source", "pairwise", "--pairs",
                                          inp["pairs"], "-n", "16", "-o", out],
                  outputs={"csv": out}, inputs=[inp["pairs"]], check="raw",
                  params={"n": 16, "pairs": pair_weights(g)}))
    out = str(work / "markov.k2.csv")
    ops.append(Op("markov.k2.n20", ["markov", "--k", "2", "--kappa", "0.1", "--m", "4",
                                    "-n", "20", "--samples", "30000",
                                    "--seed", str(20_000 + g), "-o", out],
                  outputs={"csv": out}, check="markov",
                  params={"k": 2, "kappa": 0.1, "p0": 0.5, "m": 4, "n": 20,
                          "samples": 30000, "seed": 20_000 + g}))
    ops.append(Op("preimage.0110.n22", call=_preimage))
    return ops


WORKLOADS = {"stream": stream_ops, "bounds": bounds_ops, "exact": exact_ops}
