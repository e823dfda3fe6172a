"""Command-line front end.  Every subcommand is a thin shell over the library;
no numeric logic lives here.

The parser is built once per process (`build_parser` is cached), so repeated
in-process calls of `run` only parse; subcommand ``x`` runs the module global
``cmd_x``, looked up at call time.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import bounds, markov, normalize, sources, stats
from .bits import parse_bits, serialize_bits
from .errors import ConvergenceError, ValidationError, _integer, _interval
from .exactdist import (MAX_ENUM_N, DistributionTable, exact_source_dist, normalized_dist,
                        total_variation, uniform_dist)

DEFAULT_SEED = 271828  # fixed default so runs are reproducible without flags


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True,
                   choices=["constant", "drifting", "markov", "pairwise"])
    p.add_argument("--p0", type=float, help="base probability of a 0 bit")
    p.add_argument("--beta", type=float, help="drift amplitude bound")
    p.add_argument("--delta", type=float, help="drift speed bound")
    p.add_argument("--trajectory", default="walk", choices=list(sources.TRAJECTORIES))
    p.add_argument("--period", type=float, help="sine trajectory period (bits)")
    p.add_argument("--trace-in", help="fixed trajectory: file with one offset per line")
    p.add_argument("--k", type=int, help="memory length of a markov source")
    p.add_argument("--kappa", type=float, help="conditional deviation bound")
    p.add_argument("--table", help="markov source: file of 'history p0' lines")
    p.add_argument("--pairs", help="pairwise source: file of '.. .. .. ..' weight lines")


def _source_from_args(args) -> sources.SourceSpec:
    if args.source == "constant":
        if args.p0 is None:
            raise ValidationError("constant source needs --p0")
        return sources.ConstantSource(args.p0)
    if args.source == "drifting":
        if args.p0 is None or args.beta is None or args.delta is None:
            raise ValidationError("drifting source needs --p0, --beta and --delta")
        params = sources.DriftParams(args.p0, args.beta, args.delta)
        trace = None
        if args.trajectory == "fixed":
            if not args.trace_in:
                raise ValidationError("fixed trajectory needs --trace-in")
            trace = sources.DriftTrace.load(args.trace_in)
        return sources.DriftingSource(params, trajectory=args.trajectory,
                                      period=args.period, trace=trace)
    if args.source == "markov":
        if args.k is None or args.kappa is None or args.p0 is None or not args.table:
            raise ValidationError("markov source needs --k, --kappa, --p0 and --table")
        table = sources.load_markov_table(args.table, args.k)
        return sources.MarkovSource(k=args.k, kappa=args.kappa, p0=args.p0, table=table)
    if not args.pairs:
        raise ValidationError("pairwise source needs --pairs")
    return sources.PairwiseSource(sources.load_pair_dists(args.pairs))


def _read_bits(path: str, fmt: str):
    with open(path, "rb") as f:
        return parse_bits(f.read(), fmt)


def cmd_generate(args) -> int:
    spec = _source_from_args(args)
    if args.trace_out and not isinstance(spec, sources.DriftingSource):
        raise ValidationError(f"{args.source} source has no drift trace to write")
    bits, trace = sources.sample(spec, args.n, args.seed)
    with open(args.out, "wb") as f:
        f.write(serialize_bits(bits, args.format))
    if args.trace_out:
        trace.save(args.trace_out)
    return 0


def cmd_normalize(args) -> int:
    bits = _read_bits(args.input, args.format)
    if args.method == "vn":
        out = normalize.vn_normalize(bits)
    elif args.method == "peres":
        out = normalize.peres_normalize(bits)
    else:
        out = normalize.parity_normalize(bits, args.block)
    with open(args.out, "wb") as f:
        f.write(serialize_bits(out, args.format))
    return 0


def cmd_analyze(args) -> int:
    """Block counts for m = 1..--max-m in --mode, each followed by the TV of
    the disjoint m-blocks' frequencies to uniform (whatever the mode); the
    CSV holds every report under one header.  All counting is done before
    the CSV is written and before anything is printed."""
    bits = _read_bits(args.input, args.format)
    limit = min(len(bits), MAX_ENUM_N)
    _integer("--max-m", args.max_m, 1, limit, f"min(input length, MAX_ENUM_N) = {limit}")
    reports = [stats.borel_counts(bits, m, args.mode) for m in range(1, args.max_m + 1)]
    if args.csv:
        stats.write_borel_csv(reports, args.csv)
    for r in reports:
        disjoint = r if r.mode == "non-overlapping" else stats.borel_counts(bits, r.m)
        emp = DistributionTable(r.m, disjoint.counts / disjoint.total)
        tv = total_variation(emp, uniform_dist(r.m))
        print(r.format_table())
        print(f"m={r.m} empirical TV to uniform: {_fmt(tv)}")
        if r.m == 1:
            print(f"ones frequency: {_fmt(bits.count(1) / len(bits))}")
    return 0


def cmd_dist(args) -> int:
    spec = _source_from_args(args)
    if args.m is not None:
        table = normalized_dist(spec, args.n, args.m)
    else:
        table = exact_source_dist(spec, args.n)
    table.to_csv(args.out or sys.stdout)
    return 0


def cmd_tv(args) -> int:
    if args.method == "exact":
        v = bounds.tv_bound_exact(args.m, args.alpha)
    elif args.method == "naive":
        v = bounds.tv_bound_naive(args.m, args.alpha)
    else:
        v = bounds.linear_bound(args.m, args.alpha)
    print(_fmt(v))
    return 0


def cmd_calibrate(args) -> int:
    drift = args.p0 is not None or args.beta is not None
    if drift and (args.p0 is None or args.beta is None):
        raise ValidationError("drift calibration needs both --p0 and --beta")
    if args.method == "exact":
        alpha = bounds.calibrate_alpha(args.m, args.rho)
    elif args.method == "naive":
        alpha = bounds.naive_alpha_for_rho(args.m, args.rho)
    else:
        alpha = bounds.linear_alpha_for_rho(args.m, args.rho)
    # compute (and so validate) every value before printing any
    lines = [f"alpha {_fmt(alpha)}"]
    if drift:
        lines.append(f"delta {_fmt(bounds.calibrate_delta(args.p0, args.beta, alpha))}")
    print("\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    try:
        ms = [int(s) for s in args.m_list.split(",") if s]
    except ValueError:
        raise ValidationError(f"--m-list must be comma-separated integers, "
                              f"got {args.m_list!r}") from None
    if not ms:
        raise ValidationError("--m-list is empty")
    _interval("--alpha-min", args.alpha_min, 0, math.inf)
    _interval("--alpha-max", args.alpha_max, args.alpha_min, math.inf)
    _integer("--points", args.points, 1)
    alphas = np.logspace(np.log10(args.alpha_min), np.log10(args.alpha_max),
                         args.points)
    rows = stats.sweep(ms, alphas)
    stats.write_sweep_csv(rows, args.out or sys.stdout)
    return 0


def cmd_markov(args) -> int:
    exp = markov.MarkovExperiment(k=args.k, kappa=args.kappa, m=args.m, n=args.n,
                                  samples=args.samples, seed=args.seed, p0=args.p0)
    result = markov.run_markov_experiment(exp)
    markov.write_markov_csv([result], args.out or sys.stdout)
    exact = "n/a" if result.tv_exact is None else _fmt(result.tv_exact)
    print(f"tv_exact {exact}  tv_empirical {_fmt(result.tv_empirical)}  "
          f"accepted {result.accepted}/{result.samples}", file=sys.stderr)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="debias",
        description="Bit-source generation, von Neumann-style un-biasing, and "
                    "exact distribution/bound analysis.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a bit source to a file")
    _add_source_flags(p)
    p.add_argument("-n", type=int, required=True, help="number of bits")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--format", default="ascii", choices=["ascii", "packed"])
    p.add_argument("--trace-out", help="write the realized drift trace here")

    p = sub.add_parser("normalize", help="un-bias a bit file")
    p.add_argument("--method", required=True, choices=["vn", "peres", "parity"])
    p.add_argument("--block", type=int, default=2, help="parity block length")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--format", default="ascii", choices=["ascii", "packed"])

    p = sub.add_parser("analyze", help="block-frequency report for a bit file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--mode", default="non-overlapping", choices=list(stats.MODES))
    p.add_argument("--csv", help="also write a machine-readable report here")
    p.add_argument("--format", default="ascii", choices=["ascii", "packed"])

    p = sub.add_parser("dist", help="exact source or normalized-output table (CSV)")
    _add_source_flags(p)
    p.add_argument("-n", type=int, required=True, help="source string length")
    p.add_argument("--m", type=int, help="normalized output length (omit for raw)")
    p.add_argument("-o", "--out")

    p = sub.add_parser("tv", help="worst-case distance from uniform at a given alpha")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", default="exact", choices=["exact", "naive", "linear"])

    p = sub.add_parser("calibrate", help="largest alpha (and drift speed) for a "
                                         "target closeness rho")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--method", default="exact", choices=["exact", "naive", "linear"])
    p.add_argument("--p0", type=float)
    p.add_argument("--beta", type=float)

    p = sub.add_parser("sweep", help="bound-family CSV over an m x alpha grid")
    p.add_argument("--m-list", required=True, help="comma-separated block lengths")
    p.add_argument("--alpha-min", type=float, default=1e-6)
    p.add_argument("--alpha-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("-o", "--out")

    p = sub.add_parser("markov", help="bounded-memory source exploration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--out")

    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        # looked up per call, so a handler replaced after the parser was
        # built (a wrapper, a test double) is the one that runs
        return globals()["cmd_" + args.command](args)
    except (ValidationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
