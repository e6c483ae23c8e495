"""qclab benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out RESULTS.jsonl] [--tiny]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Run from the root of a qclab checkout; qclab is imported from its `src`.
Workloads (see workloads.py for what one operation is, and BENCHMARK.json
for why each was chosen): shadow-puzzle, hash-pipeline, commit-density.

A run measures set-up in fresh child interpreters (median of several), then
runs the workload in one more child for S seconds, one operation at a time,
checking every output.  Set-up and op times are the CPU time of the
single-threaded child (see worker.py for why); the ops' wall-time quantiles
are printed beside them.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics, from a run whose
second half is traced.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines above it give every
metric with its unit, `failed_frac`, and the provenance of the result.
--out appends the result with its workload, seed and provenance to a JSON
lines file; --compare prints two such files side by side.  --tiny shrinks
every size for the smoke test; its timings mean nothing.

The program and its children use only the standard library and qclab's own
dependencies.  Every child runs with the BLAS thread count pinned to
BLAS_THREADS, so dense matrix products do not depend on the shell.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
# one BLAS thread: at most nproc anywhere, and on a shared two-core host
# steadier (and no slower for commit-density) than two
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60
# the run child sets up, warms up, runs S seconds, then (traced) records the
# trial-pool scaling; this is its limit beyond S
RUN_SLACK_S = 100


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.update((var, BLAS_THREADS) for var in BLAS_VARS)
    return env


def run_child(argv, timeout):
    """Run the worker with argv and return the JSON on its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + argv, cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker {} ran over {} s".format(argv[0], timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker {} exited {}:\n{}".format(
            argv[0], proc.returncode, proc.stderr.strip()))
    return json.loads(lines[-1])


def declared_metrics():
    bench = json.loads(BENCHMARK.read_text())
    return bench["end_to_end"], bench["per_layer"]


def measure(args):
    if not (ROOT / "src" / "qclab" / "__init__.py").is_file():
        raise BenchError("no qclab sources under {}".format(ROOT / "src"))
    end_to_end, per_layer = declared_metrics()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    setups = [run_child(["setup"] + common, SETUP_TIMEOUT_S)
              for _ in range(1 if args.tiny else SETUP_REPEATS)]
    run = run_child(["run"] + common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)],
                    args.seconds + RUN_SLACK_S)
    values = dict(run["metrics"])
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.fixture_s"] = statistics.median(s["fixture_s"] for s in setups)
    values["setup_s"] = statistics.median(s["import_s"] + s["fixture_s"]
                                          for s in setups)
    declared = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError("run produced no value for {}".format(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    return result, run


def report(args, result, run):
    print("workload {} seed {} seconds {} trace {}: {} ops timed, wall "
          "p50 {:.6g} s p90 {:.6g} s".format(
              args.workload, args.seed, args.seconds, args.trace, run["ops"],
              *run["wall_s"]))
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    for failure in run["failures"]:
        print("FAILED " + failure)
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print("{:<{}} {:.6g} {}".format(name, width, metric["value"],
                                        metric["unit"]))
    print("{:<{}} {:.6g} ratio ({} of {} operations)".format(
        "failed_frac", width, result["failed"] / result["attempted"],
        result["failed"], result["attempted"]))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny, "result": result,
                  "provenance": run["provenance"]}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


def spread(values):
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def load_results(path):
    """End-to-end values per (workload, metric) from a --out file."""
    table = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        for name, metric in record["result"]["metrics"].items():
            table.setdefault((record["workload"], name), []).append(
                metric["value"])
    return table


def compare(path_a, path_b):
    """Print each end-to-end metric of two result sets per workload.

    A metric is unresolved when either set's quartile spread, as a share of
    its median, is wider than the metric's bound, unless every run of B
    reads better than every run of A.  Otherwise it regressed when B's
    median is worse than A's by more than the bound.
    """
    end_to_end, _ = declared_metrics()
    a, b = load_results(path_a), load_results(path_b)
    print("{:<15} {:<13} {:>11} {:>23} {:>11} {:>23} {:>7}  {}".format(
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3",
        "B/A", "verdict"))
    for workload in WORKLOADS:
        for metric in end_to_end:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            (ma, a1, a3), (mb, b1, b3) = spread(a[key]), spread(b[key])
            ratio = mb / ma
            lower = metric["better"] == "lower"
            worse = ratio - 1 if lower else 1 - ratio
            wide = max((a3 - a1) / ma, (b3 - b1) / mb) > metric["bound"]
            b_always_better = (max(b[key]) < min(a[key]) if lower
                               else min(b[key]) > max(a[key]))
            if wide and not b_always_better:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "within bound"
            print("{:<15} {:<13} {:>11.5g} {:>11.5g}..{:<11.5g} {:>11.5g} "
                  "{:>11.5g}..{:<11.5g} {:>7.3f}  {}".format(
                      workload, metric["name"], ma, a1, a3, mb, b1, b3, ratio,
                      verdict))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="append the result to this JSON lines file")
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the smoke test")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --out files instead of running")
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, run = measure(args)
    except BenchError as exc:
        print("benchmark failed: {}".format(exc), file=sys.stderr)
        return 1
    report(args, result, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
