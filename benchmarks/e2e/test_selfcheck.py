"""Self-check of the benchmark harness (not in tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_selfcheck.py -q

Runs ``run.py --smoke`` the way the driver runs it and asserts that
every metric ``BENCHMARK.json`` names is present, finite and correctly
typed, and that the traced run's spans add up.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def run(tmp_path, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(tmp_path), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def check_line(line, metrics):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        assert not isinstance(got["value"], bool), metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
    return result


@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONTRACT["workloads"]])
def test_end_to_end_metrics(tmp_path, workload):
    lines = run(tmp_path, "--workload", workload, "--seed", "5")
    result = check_line(lines[-1], CONTRACT["end_to_end"])
    for value in result["metrics"].values():
        assert value["value"] > 0
    for metric in CONTRACT["end_to_end"]:
        assert any(metric["name"] in line for line in lines[:-1]), \
            f"{metric['name']} not printed by name"


def test_per_layer_metrics_and_spans(tmp_path):
    workload = "compile_cold"
    lines = run(tmp_path, "--workload", workload, "--seed", "5",
                "--trace", "1")
    check_line(lines[-1], CONTRACT["per_layer"])
    with open(tmp_path / f"spans-{workload}.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    names = {row[1] for row in spans["spans"]}
    assert {"pass", "step:heat", "cache.get_or_compile", "cache.key",
            "frontend.parse", "analysis.infer", "codegen.emit"} <= names
    assert spans["summary"]["max_pass_self_sum_gap"] <= 0.02


def test_refuses_a_directory_without_the_program(tmp_path):
    """The driver also runs the benchmark where only BENCHMARK.json and
    the benchmark's own files exist: that must fail, with no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "compile_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
