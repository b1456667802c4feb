"""Smoke tests of the benchmark: every workload at small sizes.

    python3 -m pytest perfbench/tests

Each run must print every metric that BENCHMARK.json names, with its
unit, and finish with no failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_benchmark_json_matches_the_harness():
    sys.path.insert(0, str(BENCH))
    try:
        import run as harness
    finally:
        sys.path.remove(str(BENCH))
    assert tuple(WORKLOADS) == harness.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_and_fails_nothing(workload, trace):
    done = run(
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        prefix, suffix = f"{workload} {m['name']} = ", f" {m['unit']}"
        assert any(line.startswith(prefix) and line.endswith(suffix) for line in lines)
    assert f"{workload} fail_frac = 0 (0 of {result['attempted']} operations)" in lines
    meta = json.loads(lines[0][len("meta ") :])
    assert meta["seed"] == 7 and meta["inputs"] and meta["kernel"] in ("python", "compiled")


def test_same_seed_same_inputs():
    outputs = [
        run("--workload", "monte-carlo", "--seed", "3", "--seconds", "0", "--smoke").stdout
        for _ in range(2)
    ]
    metas = [json.loads(out.splitlines()[0][len("meta ") :]) for out in outputs]
    assert metas[0]["inputs"] == metas[1]["inputs"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mop-zeros", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_runs_with_another_kernel(tmp_path):
    done = run("--workload", "path-oracle", "--seed", "1", "--seconds", "0", "--smoke")
    before = tmp_path / "before.txt"
    before.write_text(done.stdout)
    meta, rest = done.stdout.split("\n", 1)
    other = json.loads(meta[len("meta ") :])
    other["kernel"] = "compiled"
    after = tmp_path / "after.txt"
    after.write_text("meta " + json.dumps(other) + "\n" + rest)
    compare = [sys.executable, str(BENCH / "compare.py")]
    same = subprocess.run([*compare, before, before], capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and "wall_s" in same.stdout
    differ = subprocess.run([*compare, before, after], capture_output=True, text=True, timeout=60)
    assert differ.returncode == 2 and "kernel differs" in differ.stderr
