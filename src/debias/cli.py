"""Command-line front end.  Every subcommand is a thin shell over the library;
no numeric logic lives here.

The parser is built once per process (`build_parser` is cached), with every
subcommand's arguments, so repeated in-process calls of `run` only parse;
subcommand ``x`` runs the module global ``cmd_x``, looked up at call time.

At module level this imports only ``errors`` and the standard library; each
command imports the modules it runs when it is first called, so ``tv`` and
``calibrate`` load ``params`` and ``bounds`` and never numpy.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import os
import sys
from contextlib import nullcontext

from .errors import ConvergenceError, ValidationError, _integer, _interval

DEFAULT_SEED = 271828  # fixed default so runs are reproducible without flags
MAX_SWEEP_POINTS = 10 ** 4  # alphas per m of a sweep: about 5 s for four m


def _bind(module: str, *names: str) -> None:
    """Import ``debias.<module>`` and make each of ``names`` a global of this
    module, unless it is one already.  The commands call these functions
    through the globals, so a wrapper set in place of one after its first
    use (perfbench's tracer, a test double) is the one that runs."""
    owner = importlib.import_module(f"{__package__}.{module}")
    scope = globals()
    for name in names:
        if name not in scope:
            scope[name] = getattr(owner, name)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    from .params import TRAJECTORIES
    p.add_argument("--source", required=True,
                   choices=["constant", "drifting", "markov", "pairwise"])
    p.add_argument("--p0", type=float, help="base probability of a 0 bit")
    p.add_argument("--beta", type=float, help="drift amplitude bound")
    p.add_argument("--delta", type=float, help="drift speed bound")
    p.add_argument("--trajectory", default="walk", choices=list(TRAJECTORIES))
    p.add_argument("--period", type=float, help="sine trajectory period (bits)")
    p.add_argument("--trace-in", help="fixed trajectory: file with one offset per line")
    p.add_argument("--k", type=int, help="memory length of a markov source")
    p.add_argument("--kappa", type=float, help="conditional deviation bound")
    p.add_argument("--table", help="markov source: file of 'history p0' lines")
    p.add_argument("--pairs", help="pairwise source: file of '.. .. .. ..' weight lines")


def _source_from_args(args):
    from . import sources
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
    _bind("bits", "parse_bits")
    with open(path, "rb") as f:
        return parse_bits(f.read(), fmt)  # noqa: F821  (bound by _bind)


def _same_file(a: str, b: str) -> bool:
    """Whether the paths ``a`` and ``b`` name one file: the same path once
    links are resolved, or, if both exist, the same inode."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def cmd_generate(args) -> int:
    """Write the bits, and the trace if asked, chunk by chunk as they are
    drawn; everything is checked before either file is opened."""
    from . import sources
    from .bits import _write_bits
    spec = _source_from_args(args)
    if args.trace_out and not isinstance(spec, sources.DriftingSource):
        raise ValidationError(f"{args.source} source has no drift trace to write")
    if args.trace_out and _same_file(args.out, args.trace_out):
        raise ValidationError(f"-o and --trace-out name one file: {args.trace_out}")
    chunks = sources._chunks(spec, args.n, args.seed)

    def bits(trace):
        for b, eps in chunks:
            if trace is not None:
                sources._save_offsets(trace, eps)
            yield b

    with open(args.out, "wb") as f, \
            (open(args.trace_out, "wb") if args.trace_out else nullcontext()) as t:
        _write_bits(f, args.n, bits(t), args.format)
    return 0


def cmd_normalize(args) -> int:
    """Write the output chunk by chunk as the normalization yields it; the
    input is read whole, and the method checked before the file is opened."""
    from . import normalize
    from .bits import _write_bits
    n_out, chunks = normalize._chunks(_read_bits(args.input, args.format), args.method,
                                      args.block)
    with open(args.out, "wb") as f:
        _write_bits(f, n_out, chunks, args.format)
    return 0


def cmd_analyze(args) -> int:
    """Block counts for m = 1..--max-m in --mode, each followed by the TV of
    the disjoint m-blocks' frequencies to uniform (whatever the mode); the
    CSV holds every report under one header.  Every table, the TV's and
    the ones frequency's too, comes from one window pass
    (:func:`stats.borel_series`), done before the CSV is written and
    before anything is printed."""
    from . import stats
    from .exactdist import DistributionTable, total_variation, uniform_dist
    from .params import MAX_ENUM_N
    bits = _read_bits(args.input, args.format)
    n = len(bits)
    limit = min(n, MAX_ENUM_N)
    _integer("--max-m", args.max_m, 1, limit, f"min(input length, MAX_ENUM_N) = {limit}")
    reports, disjoint = stats.borel_series(bits, args.max_m, args.mode)
    if args.csv:
        stats.write_borel_csv(reports, args.csv)
    for r in reports:
        tv = total_variation(DistributionTable(r.m, disjoint[r.m] / (n // r.m)),
                             uniform_dist(r.m))
        print(r.format_table())
        print(f"m={r.m} empirical TV to uniform: {_fmt(tv)}")
        if r.m == 1:
            print(f"ones frequency: {_fmt(disjoint[1][1] / n)}")
    return 0


def cmd_dist(args) -> int:
    _bind("exactdist", "normalized_dist", "exact_source_dist")
    spec = _source_from_args(args)
    if args.m is not None:
        table = normalized_dist(spec, args.n, args.m)  # noqa: F821  (bound by _bind)
    else:
        table = exact_source_dist(spec, args.n)  # noqa: F821  (bound by _bind)
    table.to_csv(args.out or sys.stdout)
    return 0


def cmd_tv(args) -> int:
    from . import bounds
    if args.method == "exact":
        v = bounds.tv_bound_exact(args.m, args.alpha)
    elif args.method == "naive":
        v = bounds.tv_bound_naive(args.m, args.alpha)
    else:
        v = bounds.linear_bound(args.m, args.alpha)
    print(_fmt(v))
    return 0


def cmd_calibrate(args) -> int:
    from . import bounds
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
    _integer("--points", args.points, 1, MAX_SWEEP_POINTS,
             f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")
    import numpy as np

    from . import stats
    alphas = np.logspace(np.log10(args.alpha_min), np.log10(args.alpha_max),
                         args.points)
    rows = stats.sweep(ms, alphas)
    stats.write_sweep_csv(rows, args.out or sys.stdout)
    return 0


def cmd_markov(args) -> int:
    from . import markov
    exp = markov.MarkovExperiment(k=args.k, kappa=args.kappa, m=args.m, n=args.n,
                                  samples=args.samples, seed=args.seed, p0=args.p0)
    result = markov.run_markov_experiment(exp)
    markov.write_markov_csv([result], args.out or sys.stdout)
    exact = "n/a" if result.tv_exact is None else _fmt(result.tv_exact)
    print(f"tv_exact {exact}  tv_empirical {_fmt(result.tv_empirical)}  "
          f"accepted {result.accepted}/{result.samples}", file=sys.stderr)
    return 0


def _generate_args(p: argparse.ArgumentParser) -> None:
    from .params import FORMATS
    _add_source_flags(p)
    p.add_argument("-n", type=int, required=True, help="number of bits")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--format", default="ascii", choices=list(FORMATS))
    p.add_argument("--trace-out", help="write the realized drift trace here")


def _normalize_args(p: argparse.ArgumentParser) -> None:
    from .params import FORMATS, METHODS
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--block", type=int, default=2, help="parity block length")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--format", default="ascii", choices=list(FORMATS))


def _analyze_args(p: argparse.ArgumentParser) -> None:
    from .params import FORMATS, MODES
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--mode", default="non-overlapping", choices=list(MODES))
    p.add_argument("--csv", help="also write a machine-readable report here")
    p.add_argument("--format", default="ascii", choices=list(FORMATS))


def _dist_args(p: argparse.ArgumentParser) -> None:
    _add_source_flags(p)
    p.add_argument("-n", type=int, required=True, help="source string length")
    p.add_argument("--m", type=int, help="normalized output length (omit for raw)")
    p.add_argument("-o", "--out")


def _tv_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", default="exact", choices=["exact", "naive", "linear"])


def _calibrate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--method", default="exact", choices=["exact", "naive", "linear"])
    p.add_argument("--p0", type=float)
    p.add_argument("--beta", type=float)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-list", required=True, help="comma-separated block lengths")
    p.add_argument("--alpha-min", type=float, default=1e-6)
    p.add_argument("--alpha-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("-o", "--out")


def _markov_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--out")


# subcommand -> (its help line, what adds its arguments)
_COMMANDS = {
    "generate": ("sample a bit source to a file", _generate_args),
    "normalize": ("un-bias a bit file", _normalize_args),
    "analyze": ("block-frequency report for a bit file", _analyze_args),
    "dist": ("exact source or normalized-output table (CSV)", _dist_args),
    "tv": ("worst-case distance from uniform at a given alpha", _tv_args),
    "calibrate": ("largest alpha (and drift speed) for a target closeness rho",
                  _calibrate_args),
    "sweep": ("bound-family CSV over an m x alpha grid", _sweep_args),
    "markov": ("bounded-memory source exploration", _markov_args),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process with every subcommand's arguments."""
    ap = argparse.ArgumentParser(
        prog="debias", allow_abbrev=False,
        description="Bit-source generation, von Neumann-style un-biasing, and "
                    "exact distribution/bound analysis.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line, allow_abbrev=False))
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
