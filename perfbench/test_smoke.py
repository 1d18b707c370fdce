"""Self-test of the benchmark in smoke mode.

    python3 -m pytest perfbench

Each workload runs shrunk to a few seconds, untraced and traced, through the
same generation, prepare, run and output check as a real run.  Two copies
check the failure paths: one whose program miscounts samples must fail the
output check, and one without the program's sources must not run at all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("work", "__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_the_output_check(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {(m["name"], m["unit"]) for m in SPEC[kind]}
    assert {(name, m["unit"]) for name, m in result["metrics"].items()} == expected
    if trace:
        ratio = result["metrics"]["federation.grad_windows_per_reported_sample"]
        assert ratio["value"] == 1.0


def test_miscounted_samples_fail_the_output_check(tmp_path):
    root = copy_checkout(tmp_path, with_sources=True)
    scenarios = root / "src" / "fedcast" / "federation" / "scenarios.py"
    text = scenarios.read_text()
    line = 'report["total_samples"] = report.get("base_samples", 0) + running'
    assert line in text
    scenarios.write_text(text.replace(line, line + " + 1"))
    proc = bench(root, WORKLOADS[0])
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = bench(root, WORKLOADS[0])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
