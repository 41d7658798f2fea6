"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

They run the worker and ``run.py`` as subprocesses, the way the benchmark
runs them, so each test pays a few seconds of set-up.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as layer_tracer  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(tmp_path, *args) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--data-dir",
            str(tmp_path / "data"),
            *args,
        ],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict:
    ops = result["attempted"]
    counts = {
        "wire_messages_per_op": result["messages"] / ops,
        "wire_bytes_per_op": result["bytes"] / ops,
    }
    if "wal_records" in result:
        counts["durability.records_per_op"] = result["wal_records"] / ops
    return counts


@pytest.mark.parametrize("workload", ["clearing", "clearing-durable"])
def test_deterministic_counts_repeat_for_a_fixed_seed(tmp_path, workload):
    """The sync workloads' per-op counts are a function of the seed."""
    args = ("--workload", workload, "--seed", "7", "--ops", "120")
    first, second = _worker(tmp_path, *args), _worker(tmp_path, *args)
    assert first["attempted"] == second["attempted"] == 120
    assert first["failed"] == second["failed"] == 0
    assert _counts(first) == _counts(second)
    if workload == "clearing-durable":
        # accept, audit and posting at bank A, posting at bank B; the
        # first clearing also opens bank A's settlement account.
        assert first["wal_records"] == 4 * 120 + 1
    else:
        assert "wal_records" not in first


@pytest.mark.parametrize("ops", [100, 400, 500])
def test_clearing_recovery_parity_across_compactions(tmp_path, ops):
    """Both banks rebuilt from WAL + snapshot hold the pre-crash books.

    With 400 operations bank A's last compaction is triggered by an
    append made inside an open request, and recovery double-applies that
    request's posting: a defect in the program this test reports."""
    result = _worker(
        tmp_path,
        "--workload",
        "clearing-durable",
        "--seed",
        "1",
        "--ops",
        str(ops),
    )
    assert result["replayed"] > 0
    assert result["problems"] == []


def test_traced_run_writes_spans_profile_can_fold(tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = _worker(
        tmp_path,
        "--workload",
        "cascade-aio",
        "--seed",
        "3",
        "--ops",
        "40",
        "--traced",
        "--spans",
        str(spans),
    )
    assert result["problems"] == []
    assert result["spans"] > 0
    assert result["trace"]["waits"], "aio inbox waits were not linked"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "profile", "--from", str(spans)],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "perfbench.op;" in proc.stdout


def test_trace_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            "cascade-aio",
            "--seed",
            "2",
            "--seconds",
            "4",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    layers = result["metrics"]
    assert layers["crypto.schnorr.calls_per_op"]["value"] > 0
    # No ledger on the Fig. 4 path.
    assert layers["ledger.postings_per_op"]["value"] == 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "cascade-aio",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the tracer's accounting rules, on plain functions ------------------------


def _tracer_with(layer: str, fn):
    tracer = layer_tracer.LayerTracer(record_ops=10)
    return tracer, tracer.wrap(layer, fn.__name__, fn)


def test_recursion_is_counted_once():
    def depth(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    tracer, wrapped = _tracer_with("enc", depth)
    tracer.op_begin()
    assert wrapped(50) == 50
    tracer.op_end(True)
    stats = tracer.snapshot()["layers"]["enc"]
    assert stats["calls"] == 1
    assert stats["self_cpu"] == pytest.approx(stats["total_cpu"])


def test_nested_layers_split_self_time_and_spans_nest():
    def inner():
        return sum(i * i for i in range(20_000))

    tracer = layer_tracer.LayerTracer(record_ops=10)
    wrapped_inner = tracer.wrap("inner", "inner", inner)
    wrapped_outer = tracer.wrap(
        "outer", "outer", lambda: wrapped_inner() + wrapped_inner()
    )
    tracer.op_begin()
    wrapped_outer()
    tracer.op_end(True)
    layers = tracer.snapshot()["layers"]
    assert layers["inner"]["calls"] == 2
    assert layers["outer"]["self_cpu"] < layers["outer"]["total_cpu"]
    assert layers["outer"]["total_cpu"] == pytest.approx(
        layers["outer"]["self_cpu"] + layers["inner"]["total_cpu"]
    )
    spans = tracer.spans()
    by_id = {span["span_id"]: span for span in spans}
    assert [s["name"] for s in spans] == ["perfbench.op", "outer", "inner", "inner"]
    for span in spans[1:]:
        parent = by_id[span["parent_id"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_span_stacks_are_per_thread():
    barrier = threading.Barrier(4)

    def work():
        barrier.wait(timeout=10)
        return sum(range(50_000))

    tracer, wrapped = _tracer_with("work", work)

    def client():
        for _ in range(20):
            tracer.op_begin()
            wrapped()
            tracer.op_end(True)

    # Every call meets the other threads' calls at the barrier, so four
    # stacks are open at the same time.
    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    stats = tracer.snapshot()["layers"]["work"]
    assert stats["calls"] == 80
    assert stats["self_cpu"] == pytest.approx(stats["total_cpu"])
