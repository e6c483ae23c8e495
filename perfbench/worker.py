"""Child process of the benchmark: one set-up, or one timed run.

    python3 perfbench/worker.py setup --workload NAME --seed N [--tiny]
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S
        --trace 0|1 [--tiny]

run.py starts it from the root of a checkout with the BLAS thread count
pinned in its environment, and reads the JSON object on its last stdout
line.  qclab is imported from the checkout's `src`, never from elsewhere.

`setup` times the imports and the fixture build in this fresh interpreter.
`run` sets up, warms up, then runs the workload as a closed loop for S
seconds.  With --trace 1 the first half of the run is untraced and the
second half traced, which gives the tracing overhead; the worker-scaling
record of `cli`'s trial pool is taken after the traced half.

Set-up and ops are timed by the CPU time of this process.  Both run on one
thread (cli at workers=1, one BLAS thread), so on an idle machine their CPU
time is their wall time; on a shared host CPU time leaves out the time the
hypervisor gives to other guests, which otherwise moves run medians by tens
of percent.  Op wall times are kept too and reported beside them.
"""

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

WARMUP_OPS = 1
# trial counts of the gl manifest (default n and noise) behind the
# trial-pool scaling record; --tiny shrinks them but keeps the names
SCALING = {"t300": 300, "t2000": 2000}
SCALING_TINY = {"t300": 20, "t2000": 60}
FAILURES_SHOWN = 5


class Tally:
    """Op times and failures of one stretch of the loop."""

    def __init__(self):
        self.times = []
        self.wall = []
        self.covered = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, i, messages):
        self.failed += 1
        if len(self.failures) < FAILURES_SHOWN:
            self.failures.append("op {}: {}".format(i, "; ".join(messages)))


def set_up(cls, seed, tiny, work_dir):
    start = time.process_time()
    for module in cls.MODULES:
        importlib.import_module(module)
    imported = time.process_time()
    origin = Path(sys.modules["qclab"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit("qclab was imported from {}, not {}".format(origin, SRC))
    wl = cls(seed, tiny, work_dir)
    return wl, imported - start, time.process_time() - imported


def run_op(wl, i, tally, tracer=None, timed=True):
    tally.attempted += 1
    if tracer is not None:
        tracer.begin_op(i)
    start, wall = time.process_time(), time.perf_counter()
    try:
        out = wl.op(i)
    except Exception:
        out = None
        bad = ["raised " + traceback.format_exc(limit=3)]
    took, wall = time.process_time() - start, time.perf_counter() - wall
    if tracer is not None:
        tally.covered += tracer.end_op()
    if timed:
        tally.times.append(took)
        tally.wall.append(wall)
    if out is not None:
        try:
            bad = wl.check(out)
        except Exception:
            bad = ["check raised " + traceback.format_exc(limit=3)]
    if bad:
        tally.fail(i, bad)


def run_for(wl, seconds, first_op, tally, tracer=None):
    deadline = time.perf_counter() + seconds
    i = first_op
    while time.perf_counter() < deadline:
        run_op(wl, i, tally, tracer)
        i += 1
    return i


def quantiles(times):
    """Median and 90th percentile of op times."""
    if len(times) < 2:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def trial_pool_speedup(work_dir, seed, trials):
    """Wall time of the gl manifest at workers 1 over workers 2."""
    from qclab import cli

    manifest = Path(work_dir) / "gl-scaling.json"
    manifest.write_text(json.dumps({"subcommand": "gl", "seed": seed,
                                    "trials": trials}))
    took = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        for workers in (1, 2):
            start = time.perf_counter()
            code = cli.main(["--manifest", str(manifest), "--workers",
                             str(workers), "--out",
                             str(Path(work_dir) / "gl-scaling.report")])
            took[workers] = time.perf_counter() - start
            if code != 0:
                raise RuntimeError("gl at {} workers exited {}".format(workers,
                                                                       code))
    return took[1] / took[2]


def provenance():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas.get("name", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(tracer, tally, untraced):
    """Per-op layer figures of the traced ops, which follow the first
    `untraced` ops of the tally."""
    times, wall = tally.times[untraced:], tally.wall[untraced:]
    ops = len(times)
    out = {}
    for name, calls in tracer.calls.items():
        out[name + ".calls"] = calls / ops
    for name, seconds in tracer.self_s.items():
        out[name + ".self_s"] = seconds / ops
    for name, nbytes in tracer.bytes.items():
        out[name + ".mib_touched"] = nbytes / 2 ** 20 / ops
    out["trace.coverage"] = tally.covered / sum(wall)
    out["trace.overhead_frac"] = (quantiles(times)[0]
                                  / quantiles(tally.times[:untraced])[0] - 1)
    return out


def do_run(args, wl, work_dir):
    tally = Tally()
    for i in range(WARMUP_OPS):
        run_op(wl, i, tally, timed=False)
    result = {}
    if not args.trace:
        run_for(wl, args.seconds, WARMUP_OPS, tally)
        times = tally.times
        result["op_s.p50"], result["op_s.p90"] = quantiles(times)
        result["ops_per_s"] = len(times) / sum(times)
    else:
        from tracer import Tracer

        next_op = run_for(wl, args.seconds / 2, WARMUP_OPS, tally)
        untraced = len(tally.times)
        tracer = Tracer()
        tracer.install()
        try:
            run_for(wl, args.seconds / 2, next_op, tally, tracer)
        finally:
            tracer.uninstall()
        result.update(layer_metrics(tracer, tally, untraced))
        for tag, trials in (SCALING_TINY if args.tiny else SCALING).items():
            result["cli.trial_pool.speedup_w2." + tag] = trial_pool_speedup(
                work_dir, args.seed, trials)
        tracer.write(OUT_DIR / "spans-{}-seed{}.jsonl".format(args.workload,
                                                               args.seed),
                     {"workload": args.workload, "seed": args.seed})
    run_failures = wl.finish()
    if run_failures:
        # a failed run-level check leaves every op of the run unverified
        tally.failed = tally.attempted
        tally.failures.extend(run_failures)
    result["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures[:FAILURES_SHOWN],
            "ops": len(tally.times), "wall_s": quantiles(tally.wall),
            "metrics": result, "provenance": provenance()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=["setup", "run"])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / "work-{}".format(os.getpid())
    work_dir.mkdir()
    try:
        wl, import_s, fixture_s = set_up(workloads.WORKLOADS[args.workload],
                                         args.seed, args.tiny, work_dir)
        if args.role == "setup":
            wl.finish()
            out = {"import_s": import_s, "fixture_s": fixture_s}
        else:
            out = do_run(args, wl, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
