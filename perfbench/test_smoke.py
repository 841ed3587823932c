"""Smoke test of the benchmark at tiny sizes: outputs and checks, no timings.

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def per_round(workload: str) -> tuple[int, int]:
    """(operations, failures) in one eval round of a tiny run, from its spec."""
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    try:
        import gen
        import workloads
    finally:
        del sys.path[:2]
    spec = workloads.TINY[workload]
    over = len(gen.OVERLONG_FILLERS) if spec.overlong else 0
    return 2 * spec.n_checkpoint_calls + spec.n_heldout + spec.n_attention + over, over


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stderr
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    ops, over = per_round(workload)
    assert result["attempted"] >= ops
    if workload == "eval_decode":
        # Every round fails exactly its over-length calls, and nothing else.
        assert over > 0 and result["attempted"] % ops == 0
        assert result["failed"] == over * result["attempted"] // ops
    else:
        assert result["failed"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
