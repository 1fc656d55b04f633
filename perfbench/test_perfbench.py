"""Self-test of the benchmark: every workload shape at n=16 passes the
correctness gate and emits every metric BENCHMARK.json declares; counts and
digests repeat for a repeated seed; the baseline instance reproduces the
ROADMAP row; a directory without the library sources makes it fail."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
COUNTS = ("rounds", "messages", "bits", "work_total", "work_max_node", "tree_ratio")


def _run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--n", "16"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_passes_gate_and_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "fail_rate" in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_repeats_counts_and_digests():
    runs = []
    for _ in range(2):
        proc = _run("acc-auto-seed", 0, seed=5)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        report = json.loads((HERE / "out" / "acc-auto-seed-seed5-trace0.json").read_text())
        runs.append(({k: metrics[k]["value"] for k in COUNTS}, report["instances"]))
    assert runs[0] == runs[1]


def test_baseline_instance_reproduces_roadmap_row():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    w = workloads.WORKLOADS["sim-clustered"]
    a_seed, b_seed = workloads.instance_seeds(w, 0)[0]
    A, B = workloads.generate_instance(w, w.n, a_seed, b_seed)
    _, _, ledger, _ = workloads.call(w, A, B, a_seed)
    assert {"rounds": ledger.rounds, "messages": ledger.messages} == run.BASELINE


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children():
    import tracing

    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.01), "t.leaf")

    def body():
        leaf()
        leaf()
        time.sleep(0.01)

    tracer.wrap(body, "t.root")()
    tot = tracing.span_totals(tracer)
    assert tot["t.leaf"]["calls"] == 2
    assert tot["t.root"]["self_s"] == pytest.approx(tot["t.root"]["s"] - tot["t.leaf"]["s"])
    assert tot["t.root"]["self_s"] >= 0.01
