"""Tiny-size self-test of the benchmark: `python3 -m pytest perfbench -q`.

Runs every workload at toy sizes from the repository root and checks the
result line against BENCHMARK.json, so the benchmark cannot rot unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    runs = [json.loads(bench("kernels", 1).stdout.splitlines()[-1])["metrics"]
            for _ in range(2)]
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] in ("count", "ratio") and m["name"] != "trace.overhead_ratio"]
    assert {k: runs[0][k]["value"] for k in exact} == \
        {k: runs[1][k]["value"] for k in exact}
    assert runs[0]["algebra.mul_batch.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("grid", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_scan_check_counts_contradictions_and_summary_mismatch():
    csv = ("slice,theta,re,im,predicted,empirical,terms_used,tail_norm\n"
           "e1,1.5,0,0.2,Interior,Converged,60,0\n"
           "e1,1.5,0,3.8,Exterior,Converged,400,0\n")
    good = csv.replace("Exterior,Converged", "Exterior,Diverged")
    ok = run.check_scan(0, good + "total scored=2 agreed=2 agreement=1\n", "")
    assert ok["errors"] == [] and ok["rows"] == 2
    bad = run.check_scan(1, csv + "total scored=2 agreed=1 agreement=0.5\n", "")
    assert any("contradict" in e for e in bad["errors"])
    lying = run.check_scan(0, good + "total scored=2 agreed=1 agreement=0.5\n", "")
    assert any("summary" in e for e in lying["errors"])
    assert run.check_scan(2, "", "Traceback (most recent call last):\n")["errors"]


def test_two_disk_oracle_on_the_demo_center():
    import oracle

    # center i, R_a = 2, reflected radius 3: inside both, outside one, in the band
    re = np.array([0.0, 0.0, 2.0])
    im = np.array([0.5, 3.5, 1.0])
    assert oracle.expected_membership(re, im, 1j, 2.0, 3.0).tolist() == [-1, 1, 0]
    assert oracle.expected_membership(re, im, 1j, 2.0, None).tolist() == [-1, 1, 0]
