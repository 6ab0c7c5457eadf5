"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each test runs tiny inputs (--scale 0.05), so the whole file takes well
under a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> list[str]:
    return [line.split()[1] for line in stdout.splitlines() if line.startswith("metric ")]


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_prints_declared_names(workload, trace):
    start = time.perf_counter()
    result = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--scale", "0.05")
    assert result.returncode == 0, result.stderr
    assert time.perf_counter() - start < 60
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, result.stderr
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    names = [m["name"] for m in declared]
    assert printed_metrics(result.stdout) == names
    assert list(line["metrics"]) == names
    assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert "nproc=" in result.stdout and "numpy=" in result.stdout and "blas_threads=" in result.stdout


def test_changed_final_line_fails_the_output_check(tmp_path):
    runner = run.ChildRunner(tmp_path / "logs")
    workload = WORKLOADS["engine-clean"](run.fresh(tmp_path / "inputs"), 11, 0.05)
    reference = run.build_reference(workload, runner, tmp_path, record_quality=False)
    assert reference.problems == []

    corrupted = tmp_path / "corrupted"
    shutil.copytree(reference.out, corrupted)
    assert run.check_pass(workload, reference, corrupted, reference.stdouts, {}) == []
    final = corrupted / "engine" / "final.jsonl"
    lines = final.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["tags"] = record["tags"][:-1]
    lines[0] = json.dumps(record) + "\n"
    final.write_text("".join(lines))

    problems = run.check_pass(workload, reference, corrupted, reference.stdouts, {})
    assert any("final.jsonl" in p for p in problems)
    assert any("replaying audit" in p for p in workload.check_reference(corrupted, runner))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = bench("--workload", "engine-clean", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout.strip() == ""
