"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced for a fraction of a second.  The
test checks that each metric BENCHMARK.json names is printed with its unit
and a finite value, that the traced layers together cover every per-layer
metric and account for the traced time, and that the benchmark refuses to
run without the program's sources.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that are zero on a workload by design
INACTIVE = {
    "track": {"nn.backward.ms", "training.greedy_identity_assignment.ms",
              "training.loss.ms", "training.adamw.ms", "training.iteration.self_ms"},
    "train": {"tracker.step.self_ms", "tracker.assign_and_filter.ms", "tracker.tracks",
              "tracker.detections", "heuristics.build_heuristic_model.s"},
}
BACKBONE = {"spapde.appearance_embed_batch.ms", "nn.conv3x3.ms"}


def bench(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert math.isfinite(entry["value"]), m["name"]
    return {k: v["value"] for k, v in got.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    values = check_metrics(last_json(bench(ROOT, workload, 0)), SPEC["end_to_end"])
    assert all(v > 0 for v in values.values()), values


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_covers_layers(workload):
    values = check_metrics(last_json(bench(ROOT, workload, 1)), SPEC["per_layer"])
    kind = "train" if workload == "train_small" else "track"
    expect_zero = INACTIVE[kind] | (set() if workload == "duo_crops" else BACKBONE)
    for name, value in values.items():
        if name in expect_zero:
            assert value == 0.0, name
        elif name != "trace.overhead_ms":
            assert value > 0.0, name
    # the layers' self times add up to the traced frame or iteration
    assert 0.9 < values["trace.accounted_share"] < 1.1


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
