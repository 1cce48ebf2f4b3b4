"""Smoke tests of the benchmark: every workload at a tiny size.

Run from the repository root with `python3 -m pytest mxbench/tests -q`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

PROBE_PREFIXES = ("mxemu stats ", "mxemu compare ")


def _run(tmp_path, workload, trace, corrupt=None):
    return bench.run(workload, 5, 0.05, trace, dims=TINY, corrupt=corrupt, root=str(tmp_path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result, record, spans = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["wrong"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    # the only failures are the CLI probes after each analysis cycle
    assert all(key.startswith(PROBE_PREFIXES) for key in record["errors"]), record["errors"]
    assert result["failed"] == sum(record["errors"].values())
    assert bool(spans) == bool(trace)
    for key in ("nproc", "cpu_model", "numpy", "python", "threads", "seed",
                "timed_ops", "op_s_p50_samples"):
        assert key in record


def test_analysis_counts_its_cli_probes(tmp_path):
    result, record, _ = _run(tmp_path, "analysis", 0)
    assert result["attempted"] == record["cycles"] * (3 + record["probes_per_cycle"])
    ratio = result["metrics"]["op_ok_ratio"]["value"]
    assert ratio == (result["attempted"] - result["failed"]) / result["attempted"]


def _flip_code_byte(out):
    q = out[0]
    q.codes = q.codes.copy()
    q.codes.flat[0] ^= 1


def test_flipped_code_byte_counts_as_failed(tmp_path):
    result, record, _ = _run(tmp_path, "quant_sweep", 0, corrupt=_flip_code_byte)
    assert not result["correct"]
    assert result["failed"] == 1
    assert len(record["wrong"]) == 1
    assert result["metrics"]["op_ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "mxbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mxbench/run.py", "--workload", "quant_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
