"""Benchmark of the debias CLI: one closed-loop client, in process.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

runs one workload and prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).

    python3 perfbench/run.py --report [--seed 1] [--seconds 10]

runs every workload untraced and traced and prints both metric tables, the
failures with their error text, and the ROADMAP baseline stage table.

    python3 perfbench/run.py --capture-goldens [--workload NAME]

re-captures ``goldens/*.json`` from the current source tree; only the commit
that adds or corrects the benchmark does that.

Each workload runs in a fresh interpreter (``worker.py``) with BLAS/OpenMP
threads pinned to 1, so its peak RSS is its own.  Run from the repository
root; the program under test is ``src/debias``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream", "bounds", "exact")
WORKER_TIMEOUT = 150   # seconds; a run must end within 180
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list, timeout: float = WORKER_TIMEOUT, on_stderr=None) -> dict:
    """Run worker.py to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its setup-only children
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} timed out after {timeout} s")
    lines = out.strip().splitlines()
    if on_stderr is not None:
        on_stderr(err)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} failed (exit {proc.returncode}):\n{err}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    res = worker(["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)])
    if trace:
        values = res["layers"]
    else:
        values = {"wall_s": median(res["walls"]),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": res["setup_s"],
                  "ok_ratio": 1.0 - res["failed"] / res["attempted"]}
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise SystemExit(f"measured metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    res["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return res


def summary(workload: str, res: dict) -> list:
    lines = [f"# {workload}: {res['attempted']} ops attempted, {res['failed']} failed "
             f"(fail_ratio {res['failed'] / res['attempted']:.4f} of attempted), "
             f"correct={res['correct']}, record {res['record']}"]
    md = res["metadata"]
    lines.append(f"#   revision {md['git_revision']}, src {md['src_lines']} lines "
                 f"({md['src_sha256']}), python {md['python']}, numpy {md['numpy']}, "
                 f"nproc {md['nproc']}, seed {md['seed']} (input set {md['input_set']})")
    walls = res["walls"]
    lines.append(f"#   untraced reps {len(walls)}: wall_s "
                 + " ".join(f"{w:.3f}" for w in walls))
    if res["golden_drift"]:
        lines.append(f"#   golden drift (bytes differ from the golden; numeric checks decide): "
                     f"{', '.join(res['golden_drift'])}")
    errors = {}  # grouped by the message without its numbers; the record has each in full
    for name, text in res["errors"]:
        key = re.sub(r"\d[\d.e+-]*", "#", text.strip().splitlines()[-1])[:72]
        errors.setdefault(key, []).append(name)
    for text, names in errors.items():
        lines.append(f"#   {len(names)} x {text}...  [{names[0]}{' ...' if len(names) > 1 else ''}]")
    return lines


def report(seed: int, seconds: float) -> None:
    rows, layers = [], {}
    for w in WORKLOADS:
        plain = run_workload(w, seed, seconds, 0)
        traced = run_workload(w, seed, seconds, 1)
        print("\n".join(summary(w, plain)))
        m = plain["metrics"]
        rows.append((w, m["wall_s"]["value"], plain["failed"], plain["attempted"],
                     m["peak_rss_mb"]["value"], m["setup_s"]["value"]))
        layers[w] = traced
    print("\nworkload   wall_s [s]   fail_ratio [failed/attempted]   peak_rss_mb [MiB]"
          "   setup_s [s]")
    for w, wall, failed, attempted, rss, setup in rows:
        print(f"{w:<10} {wall:>10.3f}   {failed / attempted:>8.4f} ({failed}/{attempted})"
              f"{'':>10}{rss:>10.1f}   {setup:>11.3f}")
    print(f"\n{'per-layer metric':<40}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit in declared_metrics(1).items():
        print(f"{name + ' [' + unit + ']':<40}"
              + "".join(f"{layers[w]['layers'][name]:>14.6g}" for w in WORKLOADS))
    print("\nROADMAP baseline stages (traced, median per call; ms)")
    for w in WORKLOADS:
        for row in layers[w]["baseline"]:
            print(f"  {row['stage']:<30} {row['ms']:>10.2f}  ({row['calls']} calls, {w})")


def capture_goldens(names) -> None:
    import workloads
    (HERE / "goldens").mkdir(exist_ok=True)
    for w in names:
        sets = {}
        for g in range(workloads.INPUT_SETS):
            sets[str(g)] = worker(["--workload", w, "--seed", str(g), "--capture"],
                                  on_stderr=sys.stderr.write)
            print(f"captured {w} input set {g}", file=sys.stderr)
        body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in sets.items())
        (HERE / "goldens" / f"{w}.json").write_text(
            f'{{"input_sets": {workloads.INPUT_SETS}, "sets": {{\n{body}\n}}}}\n')


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--capture-goldens", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "debias" / "cli.py").is_file():
        print(f"error: no debias source tree at {ROOT / 'src' / 'debias'}", file=sys.stderr)
        return 2
    if args.capture_goldens:
        sys.path.insert(0, str(HERE))
        capture_goldens([args.workload] if args.workload else WORKLOADS)
        return 0
    if args.report:
        report(args.seed, args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(summary(args.workload, res)))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
