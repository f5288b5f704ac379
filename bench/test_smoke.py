"""Smoke test of the benchmark: every workload on tiny inputs, untraced and traced.

Run from the root of the checkout:

    python3 -m pytest bench/test_smoke.py

It is not part of the package's own test suite; a full run of the benchmark
takes minutes, this takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, size: str = "tiny"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace, key):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if key == "end_to_end":
            assert metric["value"] > 0, name
    assert any(line.startswith("check ") for line in lines)
    assert lines[0].startswith("env ")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
