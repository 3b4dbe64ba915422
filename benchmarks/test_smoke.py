"""Smoke test: the benchmark runs end to end at a tiny size.

    python -m pytest benchmarks

It checks the output contract and the determinism digests, never timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--seconds", "1",
                           "--size", "tiny", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    provenance, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return provenance["provenance"], result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _, metrics = parse(bench("--workload", workload, "--seed", "3", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, metrics = parse(bench("--workload", workload, "--seed", "3", "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    wall = metrics["trace.wall_s"]["value"]
    accounted = metrics["trace.layer_self_s"]["value"] + metrics["trace.bench_self_s"]["value"]
    assert accounted == pytest.approx(wall, rel=1e-9)


def test_digests_repeat_for_one_seed():
    first, _ = parse(bench("--workload", "explain_closed_form", "--seed", "5", "--trace", "0"))
    second, _ = parse(bench("--workload", "explain_closed_form", "--seed", "5", "--trace", "0"))
    assert first["digests"] == second["digests"]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
