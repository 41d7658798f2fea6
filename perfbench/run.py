"""The repository's benchmark: the paper's request paths, end to end and
layer by layer.

    python3 perfbench/run.py --workload clearing --seed 1 --seconds 15 --trace 0

Run it from anywhere; the program is imported from ``src/`` next to
``perfbench/``.  Workloads (``perfbench/workloads.py``; the rationale and
the layer-to-metric predictions are in ``perfbench/README.md``):

* ``clearing``    — Fig. 5 cross-bank check clearing, sync runtime;
* ``cascade-aio`` — Fig. 4 delegate cascades re-presented by their
  holders, asyncio runtime with two client threads;
* ``clearing-durable`` — ``clearing`` on banks with a WAL + snapshot
  store, rebuilt from it after the timed phase.  Not in
  ``BENCHMARK.json``: its recovery check finds a defect in the program
  (``perfbench/README.md``), so it fails until that is fixed.

``--trace 0`` measures the end-to-end metrics from ``REPETITIONS`` fresh
worker processes, each measuring ``seconds / REPETITIONS``.  Latency
percentiles come from the pooled raw per-operation samples; throughput
and set-up time are medians over the repetitions.  These timings are
scaled to a reference host speed, measured by a fixed kernel timed
between one-second segments of each run (``perfbench/hostspeed.py``),
because a shared host drifts more than a regression bound; the
wall-clock figures are printed too.

``--trace 1`` measures the per-layer metrics: one untraced repetition
as the overhead baseline, then one traced repetition of the same length
that wraps each layer's entry points (``perfbench/tracer.py``)
and writes its spans to ``.perfbench/spans/WORKLOAD-seedN.jsonl`` for
``python -m repro profile --from``.

Every repetition checks the program's output: the scenario's own
invariant check, no failed operation, recovery parity on
``clearing-durable``, and, when traced, that every expected layer was
entered, that the span dump validates, and that the layer self-times do
not add up to more than the process's CPU time (no time counted twice).
Unattributed time is the rest of traced wall time, so the rows sum to
it.  A violation prints the problems and a result with
``"correct": false``, and exits 1.  A worker that crashes,
or a checkout without ``src/repro``, exits 2 without a result.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
STATE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("clearing", "cascade-aio", "clearing-durable")

#: Fresh processes per untraced run.
REPETITIONS = 3
#: Seconds a worker may take beyond its measuring time (start-up, set-up,
#: recovery and checks) before it is killed.
WORKER_SLACK_S = 30.0
#: Layer self-times may exceed process CPU time by this share (clock
#: granularity) before the run counts as counting time twice.
ACCOUNTING_TOLERANCE = 0.10


class WorkerError(RuntimeError):
    """A worker crashed, hung, or printed no result."""


def run_worker(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one repetition in a fresh process and return its raw result."""
    cmd = [
        sys.executable,
        WORKER,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--data-dir",
        os.path.join(STATE_DIR, "data"),
    ]
    if traced:
        cmd += [
            "--traced",
            "--spans",
            os.path.join(STATE_DIR, "spans", f"{workload}-seed{seed}.jsonl"),
        ]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=seconds + WORKER_SLACK_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"{workload} worker exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{workload} worker printed no result") from exc


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of already sorted values (0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(reps):
    """(gated metrics, reported-only metrics, notes) from untraced runs.

    Every metric is ``name -> (value, unit)``.  The gated timings are at
    the reference host speed (``perfbench/hostspeed.py``); the same
    timings as measured on the wall clock are reported alongside.
    """
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)

    def timings(samples_key: str, wall_key: str, setup_key: str) -> dict:
        samples = sorted(s for rep in reps for s in rep[samples_key])
        return {
            "throughput_ops_s": (
                statistics.median(
                    (rep["attempted"] - rep["failed"]) / rep[wall_key]
                    for rep in reps
                ),
                "1/s",
            ),
            "latency_p50_ms": (percentile(samples, 0.50) * 1e3, "ms"),
            "latency_p95_ms": (percentile(samples, 0.95) * 1e3, "ms"),
            "setup_s": (statistics.median(rep[setup_key] for rep in reps), "s"),
        }

    metrics = timings("ref_samples_s", "ref_wall_s", "ref_setup_s")
    metrics.update(
        {
            "wire_messages_per_op": (
                per_op(sum(rep["messages"] for rep in reps), attempted),
                "count",
            ),
            "wire_bytes_per_op": (
                per_op(sum(rep["bytes"] for rep in reps), attempted),
                "bytes",
            ),
        }
    )
    n = attempted
    notes = {
        "throughput_ops_s": f"median of {len(reps)} processes",
        "latency_p50_ms": f"n={n}",
        "latency_p95_ms": f"n={n}, {n - math.ceil(0.95 * n)} beyond",
        "setup_s": f"median of {len(reps)} processes",
        "wire_messages_per_op": f"{attempted} ops",
        "wire_bytes_per_op": f"{attempted} ops",
    }
    reported = {
        f"wall_clock.{name}": value
        for name, value in timings("samples_s", "wall_s", "setup_s").items()
    }
    kernels = [k for rep in reps for k in rep["kernel_s"]]
    reported["host_speed"] = (
        hostspeed.REFERENCE_S / statistics.median(kernels),
        "ratio",
    )
    notes["host_speed"] = (
        f"reference kernel time / median of {len(kernels)} kernel runs"
    )
    reported["ops_failed_ratio"] = (ratio(failed, attempted), "ratio")
    notes["ops_failed_ratio"] = f"{failed} of {attempted}"
    if "recovery_s" in reps[0]:
        reported["wal_records_per_op"] = (
            per_op(sum(rep["wal_records"] for rep in reps), attempted),
            "count",
        )
        reported["recovery_s"] = (
            statistics.median(rep["recovery_s"] for rep in reps),
            "s",
        )
        notes["recovery_s"] = f"median of {len(reps)} rebuilds of both banks"
    return metrics, reported, notes


def per_layer(base: dict, traced: dict) -> dict:
    """Per-layer metrics from a traced run and its untraced baseline."""
    trace = traced["trace"]
    layers, counts = trace["layers"], trace["counts"]
    n = traced["attempted"]

    def stat(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def calls(layer: str):
        return (per_op(stat(layer, "calls"), n), "count")

    def self_ms(layer: str):
        return (per_op(stat(layer, "self_cpu") * 1e3, n), "ms")

    self_total = sum(stats["self_cpu"] for stats in layers.values())
    unattributed = traced["wall_s"] - self_total
    waits = sorted(trace["waits"])
    aio = traced.get("aio", {})
    drains = aio.get("batches", 0) + aio.get("queued", 0) - aio.get(
        "batched_messages", 0
    )
    metrics = {
        "crypto.schnorr.calls_per_op": calls("crypto.schnorr"),
        "crypto.schnorr.self_ms_per_op": self_ms("crypto.schnorr"),
        "crypto.symmetric.calls_per_op": calls("crypto.symmetric"),
        "crypto.symmetric.self_ms_per_op": self_ms("crypto.symmetric"),
        "crypto.sigcache.hit_ratio": (
            ratio(counts.get("sigcache.hits", 0), counts.get("sigcache.lookups", 0)),
            "ratio",
        ),
        "encoding.calls_per_op": calls("encoding"),
        "encoding.self_ms_per_op": self_ms("encoding"),
        "encoding.bytes_per_op": (per_op(stat("encoding", "units"), n), "bytes"),
        "core.verify.calls_per_op": calls("core.verify"),
        "core.verify.self_ms_per_op": self_ms("core.verify"),
        "core.chaincache.hit_ratio": (
            ratio(
                counts.get("chaincache.hits", 0),
                counts.get("chaincache.lookups", 0),
            ),
            "ratio",
        ),
        "acl.entries_examined_per_op": (per_op(stat("acl", "units"), n), "count"),
        "acl.self_ms_per_op": self_ms("acl"),
        "kerberos.self_ms_per_op": self_ms("kerberos"),
        "services.handler.self_ms_per_op": self_ms("services.handler"),
        "services.client.self_ms_per_op": self_ms("services.client"),
        "ledger.postings_per_op": calls("ledger"),
        "ledger.self_ms_per_op": self_ms("ledger"),
        "ledger.rollback_ratio": (
            ratio(counts.get("ledger.rollbacks", 0), stat("ledger", "calls")),
            "ratio",
        ),
        "net.messages_per_op": (per_op(traced["messages"], n), "count"),
        "net.self_ms_per_op": self_ms("net"),
        "net.inbox_wait_ms_p50": (percentile(waits, 0.50) * 1e3, "ms"),
        "net.aio.batch_size_mean": (ratio(aio.get("queued", 0), drains), "count"),
        "net.aio.max_queue_depth": (aio.get("max_queue_depth", 0), "count"),
        "unattributed_ms_per_op": (per_op(unattributed * 1e3, n), "ms"),
        "idle_ms_per_op": (
            per_op((traced["wall_s"] - traced["cpu_s"]) * 1e3, n),
            "ms",
        ),
        "trace.overhead_ratio": (
            ratio(
                per_op(traced["ref_wall_s"], n),
                per_op(base["ref_wall_s"], base["attempted"]),
            ),
            "ratio",
        ),
        "trace.accounted_ratio": (ratio(self_total, traced["wall_s"]), "ratio"),
    }
    if "recovery_trace" in traced:
        recover = traced["recovery_trace"]["layers"]
        metrics.update(
            {
                "durability.records_per_op": calls("durability"),
                "durability.append_ms_per_op": self_ms("durability"),
                "durability.wal_bytes_per_op": (
                    per_op(counts.get("wal.bytes", 0), n),
                    "bytes",
                ),
                "durability.compactions": (
                    stat("durability.compact", "calls"),
                    "count",
                ),
                "durability.compact_ms": (
                    ratio(
                        stat("durability.compact", "total_cpu") * 1e3,
                        stat("durability.compact", "calls"),
                    ),
                    "ms",
                ),
                "durability.replayed_records": (traced["replayed"], "count"),
                "durability.recover_ms": (
                    recover.get("durability.recover", {}).get("total_cpu", 0)
                    * 1e3,
                    "ms",
                ),
                "recovery_s": (base["recovery_s"], "s"),
            }
        )
    return metrics


def accounting_problems(traced: dict) -> list:
    """The layer rows must not claim more time than the process ran."""
    claimed = sum(s["self_cpu"] for s in traced["trace"]["layers"].values())
    if claimed > traced["cpu_s"] * (1 + ACCOUNTING_TOLERANCE):
        return [
            f"layer self-times ({claimed:.3f}s) exceed the process's CPU "
            f"time ({traced['cpu_s']:.3f}s): some time is counted twice"
        ]
    return []


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def render(title: str, metrics: dict, notes: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.4f} {unit:6s}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the paper's request paths end to end "
        "(--trace 0) or layer by layer (--trace 1)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no program to measure: {ROOT}/src/repro is missing",
            file=sys.stderr,
        )
        return 2

    try:
        if args.trace:
            half = args.seconds / 2
            base = run_worker(args.workload, args.seed, half, False)
            traced = run_worker(args.workload, args.seed, half, True)
            reps = [base, traced]
            metrics = per_layer(base, traced)
            render(
                f"{args.workload} seed={args.seed}: per-layer metrics "
                f"(traced, {traced['attempted']} ops; self times are "
                "thread CPU time)",
                metrics,
                {},
            )
            problems = accounting_problems(traced)
        else:
            reps = [
                run_worker(
                    args.workload, args.seed, args.seconds / REPETITIONS, False
                )
                for _ in range(REPETITIONS)
            ]
            metrics, reported, notes = end_to_end(reps)
            render(
                f"{args.workload} seed={args.seed}: end-to-end metrics",
                metrics,
                notes,
            )
            render("  reported, not gated:", reported, notes)
            problems = []
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for rep in reps:
        problems.extend(rep["problems"])
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if problems:
        print("correctness: FAILED")
        for problem in problems:
            print(f"  problem: {problem}")
    else:
        print(
            f"correctness: ok ({len(reps)} processes, {attempted} operations "
            "checked)"
        )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
