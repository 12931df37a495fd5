"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run the real workloads for one or two seconds each, so the whole file
takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGETS = json.loads((HERE / "targets.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digests(proc) -> dict:
    return dict(line.split()[1:3] for line in proc.stdout.splitlines()
                if line.startswith("digest "))


def test_targets_map_every_metric():
    assert set(TARGETS["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(TARGETS["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in TARGETS["per_layer"].values():
        for move in entry["moves"]:
            assert move["metric"] in TARGETS["end_to_end"]
            assert set(move["workloads"]) <= set(WORKLOADS)


def test_ledger_rows_sum_to_root_wall():
    recorder = tracing.SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(20_000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    with recorder.root(7) as root:
        outer()
        inner()
    times = tracing.layer_times(recorder.spans, 7)
    assert times["inner"]["calls"] == 4 and times["outer"]["calls"] == 1
    assert sum(self_ns for _, self_ns in tracing.ledger(times)) == root.wall_ns
    assert all(t["self_ns"] >= 0 for t in times.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_repeat_reproduces_digests(workload):
    first, second = (_run("--workload", workload, "--seed", "5", "--seconds", "1")
                     for _ in range(2))
    for proc in (first, second):
        line = _result(proc)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in line["metrics"].values())
    assert _digests(first) and _digests(first) == _digests(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_produces_every_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "1")
    line = _result(proc)
    assert line["correct"] and line["failed"] == 0
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # every layer timed on this workload did measurable work
    for name, entry in TARGETS["per_layer"].items():
        on_here = any(workload in move["workloads"] for move in entry["moves"])
        if on_here and name.endswith("_s"):
            assert metrics[name] > 0, name
    assert metrics["trace.overhead_ratio"] > 0
    rows = [line for line in proc.stdout.splitlines() if line.startswith("ledger ")]
    assert len(rows) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
