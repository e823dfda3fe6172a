"""One workload in a fresh interpreter: set up, run the op list in a closed
loop for the requested time, check the outputs, print one JSON line.

``run.py`` starts this script; it is not meant to be run by hand.
"""

import time

T0 = time.perf_counter()  # setup_s starts here: before numpy and debias load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
GOLDENS = Path(__file__).resolve().parent / "goldens"
SETUP_SAMPLES = 10  # fresh interpreters that only set up, spread over an untraced run


def _sizes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def run_op(op, tracer=None) -> dict:
    import debias.cli
    out, err = io.StringIO(), io.StringIO()
    res = {"exit": None, "value": None, "error": None}
    if tracer is not None:
        tracer.count("cli.io.bytes_read", _sizes(op.inputs))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                res["exit"] = debias.cli.run(op.argv)
            else:
                res["value"] = op.call()
                res["exit"] = 0
    except Exception:  # an op that raises counts as failed; keep the traceback
        res["error"] = traceback.format_exc(limit=3)
    res["seconds"] = time.perf_counter() - start
    res["stdout"], res["stderr"] = out.getvalue(), err.getvalue()
    if res["exit"] not in (0, None) and res["error"] is None:
        res["error"] = res["stderr"].strip() or f"exit {res['exit']}"
    if tracer is not None:
        tracer.count("cli.io.bytes_written",
                      _sizes(op.outputs.values()) + len(res["stdout"].encode()))
    return res


def setup_sample(args) -> float:
    """setup_s of a fresh interpreter that sets up the same workload and exits."""
    import subprocess
    proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"setup-only run failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_rep(ops, tracer=None):
    start = time.perf_counter()
    results = [run_op(op, tracer) for op in ops]
    return time.perf_counter() - start, results


def metadata(seed: int, g: int) -> dict:
    import subprocess

    import numpy

    import checks
    src = sorted((ROOT / "src").rglob("*.py"))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "git_revision": rev,
        "src_sha256": checks.digest(*(p.read_bytes() for p in src)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "input_set": g,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def group_digests(ops, results) -> dict:
    import checks
    groups = {}
    for op, res in zip(ops, results):
        if op.golden != op.name:
            groups.setdefault(op.golden, []).append(
                (op.name, res["exit"], res["stdout"], res["stderr"]))
    return {name: checks.digest(*(x for item in items for x in item))
            for name, items in groups.items()}


def capture(ops, results) -> dict:
    """Golden entry of one input set.  Ops that exit nonzero, or whose
    numeric output already fails its independent check, are the known
    defects of the capturing commit: they count as failed in every run but
    do not make a run incorrect."""
    import checks
    entry = {"ops": {}, "groups": group_digests(ops, results), "known_failures": [],
             "known_wrong": {}}
    for op, res in zip(ops, results):
        if res["exit"] != 0:
            entry["known_failures"].append(op.name)
            continue
        if op.check in checks.NUMERIC:
            why = checks.check(op, res, checks.golden_extra(op, res))
            if why:
                entry["known_wrong"][op.name] = why
                print(f"known wrong: {op.name}: {why}", file=sys.stderr)
        if op.golden == op.name:
            entry["ops"][op.name] = {**checks.output_hashes(op, res),
                                     **checks.golden_extra(op, res)}
    return entry


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--capture", action="store_true")
    args = ap.parse_args()

    import debias.cli  # noqa: F401  (setup_s: import debias)
    import workloads
    g = workloads.input_set(args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        inp = workloads.make_inputs(g, work)
        ops = workloads.WORKLOADS[args.workload](g, work, inp)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.capture:
            _, results = run_rep(ops)
            print(json.dumps(capture(ops, results)))
            return 0
        return measure(args, g, ops, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, g, ops, setup_s) -> int:
    import checks
    import tracer as tr
    golden_file = GOLDENS / f"{args.workload}.json"
    gold = json.loads(golden_file.read_text())["sets"][str(g)]

    walls, traced_walls, layer_runs, baseline = [], [], [], []
    setups = [setup_s]
    first = None
    changed = set()
    loop_start = time.perf_counter()
    while True:
        last = results = None  # free the previous rep's outputs before the next one
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        t = None
        if traced:
            t = tr.Tracer()
            tr.install(t)
        try:
            wall, results = run_rep(ops, t)
        finally:
            if t is not None:
                t.restore()
        if traced:
            traced_walls.append(wall)
            layer_runs.append(tr.layer_metrics(t))
            baseline = tr.baseline_rows(t)
            missing = t.missing
        else:
            walls.append(wall)
        hashes = [checks.output_hashes(op, r) for op, r in zip(ops, results)]
        if first is None:
            first = hashes
        changed |= {op.name for op, h, h0 in zip(ops, hashes, first) if h != h0}
        last = results
        elapsed = time.perf_counter() - loop_start
        # setup samples spread over the run, so one slow second cannot move their median
        if not args.trace and len(setups) - 1 < SETUP_SAMPLES * elapsed / args.seconds:
            setups.append(setup_sample(args))
        done = time.perf_counter() - loop_start >= args.seconds
        if done and (not args.trace or traced_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and len(setups) - 1 < SETUP_SAMPLES:
        setups.append(setup_sample(args))

    known_exit, known_wrong = set(gold["known_failures"]), set(gold["known_wrong"])
    op_records, failed, correct, drift = [], 0, True, []
    for op, res in zip(ops, last):
        why = None
        if res["exit"] == 0:
            why = checks.check(op, res, gold["ops"].get(op.name, {}))
            if why is None and op.name in changed:
                why = "output differs between repetitions"
            want = gold["ops"].get(op.name)
            if why is None and want is not None and any(
                    want.get(k) != v for k, v in checks.output_hashes(op, res).items()):
                drift.append(op.name)  # numeric output moved, independent check holds
        # a failure is known if the capturing commit failed the same way
        bad = res["exit"] != 0 or why is not None
        known = bad and op.name in (known_wrong if res["exit"] == 0 else known_exit)
        if bad:
            failed += 1
            correct = correct and known
        op_records.append({"name": op.name, "argv": op.argv, "exit": res["exit"],
                           "seconds_last_rep": res["seconds"], "check": why,
                           "error": res["error"], "known_defect": known})
    for name, d in group_digests(ops, last).items():
        if gold["groups"].get(name) != d:
            drift.append(name)

    result = {
        "setup_s": median(setups),
        "setups": setups,
        "walls": walls,
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "correct": correct,
        "golden_drift": drift,
    }
    if args.trace:
        result["layers"] = {k: median(r[k] for r in layer_runs) for k in layer_runs[0]}
        result["layers"]["trace.overhead_s"] = median(traced_walls) - median(walls)
        result["baseline"] = baseline
        result["untraced_targets"] = missing
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result["metadata"] = metadata(args.seed, g)
    record.write_text(json.dumps({**result, "ops": op_records}, indent=1))
    result["record"] = str(record.relative_to(ROOT))
    result["errors"] = [(r["name"], r["error"] or f"wrong output: {r['check']}")
                        for r in op_records if r["error"] or r["check"]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
