"""Smoke test of the benchmark: every workload runs at tiny sizes, checks its
outputs and prints every metric BENCHMARK.json declares, with its unit.
Timings are never a pass/fail gate here.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_printed(workload, trace, tmp_path):
    out = tmp_path / "results.jsonl"
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    table = {line.split()[0]: line.split()[2] for line in lines[:-1]
             if len(line.split()) >= 3}
    for name, unit in dict(declared, failed_frac="ratio").items():
        assert table.get(name) == unit, name
    record = json.loads(out.read_text())
    assert record["workload"] == workload and record["result"] == result
    assert {"python", "numpy", "jsonschema", "nproc", "cpu",
            "blas_threads"} <= set(record["provenance"])


def test_compare_prints_every_end_to_end_metric(tmp_path):
    out = tmp_path / "results.jsonl"
    for seed in (1, 2):
        proc = bench("--workload", "shadow-puzzle", "--seed", str(seed),
                     "--seconds", "1", "--trace", "0", "--tiny", "--out",
                     str(out))
        assert proc.returncode == 0, proc.stderr
    proc = bench("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[1] for row in rows] == [m["name"] for m in BENCH["end_to_end"]]
    assert all(row[0] == "shadow-puzzle" for row in rows)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "shadow-puzzle", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
