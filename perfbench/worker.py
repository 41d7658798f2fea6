"""One benchmark repetition, in a process of its own.

``run.py`` starts this once per repetition so that process-wide state
(Schnorr generator tables, per-key tables, the global signature cache)
never carries over from one repetition to the next.  The last line of
standard output is one JSON object with the raw measurements.

    PYTHONPATH=src python3 perfbench/worker.py --workload clearing \\
        --seed 1 --seconds 5 [--ops N] [--traced] [--spans FILE]

``--ops N`` runs exactly N operations instead of measuring for a time;
the deterministic per-op counts repeat exactly for a fixed seed then.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracer as layer_tracer  # noqa: E402
from repro.crypto import schnorr  # noqa: E402
from repro.crypto.dh import DEFAULT_GROUP  # noqa: E402
from repro.crypto.rng import Rng  # noqa: E402
from repro.durability import DurabilityStore  # noqa: E402
from repro.ledger.fuzz import non_settlement_totals  # noqa: E402
from repro.obs.store import load_spans_jsonl, validate_spans  # noqa: E402
from repro.testbed import Realm  # noqa: E402
from repro.workloads.load import LoadConfig  # noqa: E402
from workloads import BANKS, WORKLOADS  # noqa: E402

#: Seconds of closed-loop operations between two host-speed kernel runs.
SEGMENT_S = 1.0

#: Layers each workload must touch at least once in a traced run.
EXPECTED_LAYERS = {
    "clearing": (
        "crypto.schnorr",
        "crypto.symmetric",
        "encoding",
        "core.verify",
        "kerberos",
        "services.handler",
        "services.client",
        "ledger",
        "net",
    ),
    "clearing-durable": (
        "crypto.schnorr",
        "crypto.symmetric",
        "encoding",
        "core.verify",
        "kerberos",
        "services.handler",
        "services.client",
        "ledger",
        "durability",
        "net",
    ),
    "cascade-aio": (
        "crypto.schnorr",
        "encoding",
        "core.verify",
        "acl",
        "kerberos",
        "services.handler",
        "services.client",
        "net",
    ),
}


def _warm_up() -> None:
    """Pay the process's lazy one-time Schnorr set-up (the generator
    table build) here, so the first timed operation does not."""
    rng = Rng(seed=b"perfbench-warm-up")
    key = schnorr.generate_keypair(DEFAULT_GROUP, rng=rng)
    signature = schnorr.sign(key, b"warm-up", rng=rng)
    schnorr.verify(key.public, b"warm-up", signature)


class _Client:
    """One closed-loop client: its principals, in round-robin order.

    :meth:`loop` is called once per segment and carries on where the
    previous segment stopped."""

    def __init__(self, run, index: int) -> None:
        self.run = run
        self.principals = list(
            range(index, run.workload.principals, run.workload.clients)
        )
        self.samples = []
        self.failed = 0
        self.errors = []
        self.n = 0

    def loop(self, deadline, ops) -> None:
        run = self.run
        scenario, realm, config, state = (
            run.scenario,
            run.realm,
            run.config,
            run.state,
        )
        tracer = run.tracer
        share = len(self.principals)
        perf = time.perf_counter
        n = self.n
        while True:
            if ops is not None:
                if n >= ops:
                    break
            elif perf() >= deadline:
                break
            i = self.principals[n % share]
            k = n // share
            if tracer is not None:
                tracer.op_begin()
            ok = False
            start = perf()
            try:
                scenario.op(realm, config, state, run.pstates[i], i, k)
                ok = True
            except Exception as exc:  # noqa: BLE001 — counted and reported
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
            self.samples.append(perf() - start)
            if tracer is not None:
                tracer.op_end(ok)
            n += 1
        self.n = n


class Run:
    """Set up one workload, drive it, and check it."""

    def __init__(self, args, tracer) -> None:
        self.workload = WORKLOADS[args.workload]
        self.tracer = tracer
        self.data_dir = os.path.join(
            args.data_dir, f"{args.workload}-{os.getpid()}"
        )
        shutil.rmtree(self.data_dir, ignore_errors=True)
        _warm_up()
        self.realm = Realm(
            seed=b"perfbench-%s-%d" % (args.workload.encode(), args.seed),
            real_time=True,
            runtime=self.workload.runtime,
            request_timeout=60.0,
        )
        self.config = LoadConfig(
            scenario=args.workload,
            principals=self.workload.principals,
            concurrency=self.workload.clients,
            mode=self.workload.runtime,
            seed=args.seed,
        )
        self.scenario = self.workload.make(self.data_dir)
        self.state = self.scenario.setup(self.realm, self.config)
        self.pstates = [
            self.scenario.principal(self.realm, self.config, self.state, i)
            for i in range(self.workload.principals)
        ]

    def drive(self, seconds: float, ops):
        """Run the closed loop; returns (clients, timing).

        The loop runs in segments of ``SEGMENT_S`` seconds (one segment of
        exactly ``ops`` operations when ``ops`` is given), with the
        host-speed kernel timed before the first and after each one while
        no operation is in flight.
        """
        clients = [_Client(self, t) for t in range(self.workload.clients)]
        if self.workload.runtime == "sync":
            return clients, self._segments(clients, clients[0].loop, seconds, ops)
        network = self.realm.network

        async def main():
            async with network.serve():
                for endpoint, prefetcher in self.scenario.prefetchers(self.state):
                    network.set_prefetcher(endpoint, prefetcher)
                with ThreadPoolExecutor(
                    max_workers=len(clients), thread_name_prefix="perfbench"
                ) as pool:

                    def segment(deadline, per_client) -> None:
                        futures = [
                            pool.submit(client.loop, deadline, per_client)
                            for client in clients
                        ]
                        for future in futures:
                            future.result()

                    return await asyncio.get_running_loop().run_in_executor(
                        None, self._segments, clients, segment, seconds, ops
                    )

        return clients, asyncio.run(main())

    def _segments(self, clients, segment, seconds, ops) -> dict:
        """Drive ``segment(deadline, ops_per_client)`` until ``seconds``
        have been measured.  Each operation's time is also scaled to the
        reference host by the mean of the kernel times around its segment.
        """
        perf, cpu_clock = time.perf_counter, time.process_time
        per_client = None
        if ops is not None:
            per_client = -(-ops // len(clients))
        cpu0 = cpu_clock()
        kernels = [hostspeed.kernel_median()]
        kernel_cpu = cpu_clock() - cpu0
        wall = ref_wall = 0.0
        ref_samples = []
        end = perf() + seconds
        while True:
            counts = [len(client.samples) for client in clients]
            start = perf()
            segment(min(start + SEGMENT_S, end), per_client)
            elapsed = perf() - start
            before = cpu_clock()
            kernels.append(hostspeed.kernel())
            kernel_cpu += cpu_clock() - before
            scale = hostspeed.REFERENCE_S / statistics.mean(kernels[-2:])
            wall += elapsed
            ref_wall += elapsed * scale
            for client, count in zip(clients, counts):
                ref_samples.extend(s * scale for s in client.samples[count:])
            if ops is not None or perf() >= end:
                break
        return {
            "wall_s": wall,
            "cpu_s": cpu_clock() - cpu0 - kernel_cpu,
            "ref_wall_s": ref_wall,
            "ref_samples_s": ref_samples,
            "kernel_s": kernels,
        }

    # -- checks --------------------------------------------------------------

    def wal_appends(self) -> int:
        """Records appended to the banks' WALs so far."""
        return sum(self.state[key].durability.appends for key, _ in BANKS)

    def bank_state(self) -> dict:
        return {
            name: {
                account: (dict(acct.balances), dict(acct.holds))
                for account, acct in self.state[key].accounts.items()
            }
            for key, name in BANKS
        }

    def crash_restart(self) -> dict:
        """Rebuild both banks from their stores and check parity."""
        realm, state = self.realm, self.state
        banks = [state[key] for key, _ in BANKS]
        before = self.bank_state()
        totals = non_settlement_totals(banks)
        problems = []
        start = time.perf_counter()
        for key, name in BANKS:
            old = state[key]
            realm.network.unregister(old.principal)
            new = realm.restart_accounting_server(
                name,
                durability=DurabilityStore(
                    self.scenario.store_dir(name), server=name
                ),
            )
            new.routes.update(old.routes)
            state[key] = new
        recovery_s = time.perf_counter() - start
        replayed = 0
        for key, name in BANKS:
            report = state[key].recovery
            if report is None:
                problems.append(f"{name}: restarted without recovery")
                continue
            problems.extend(f"{name} recovery: {p}" for p in report.problems)
            replayed += report.total_replayed
            problems.extend(
                f"{name} audit after recovery: {p}"
                for p in state[key].ledger.audit_discrepancies()
            )
        if replayed <= 0:
            problems.append("recovery replayed no WAL records")
        if self.bank_state() != before:
            problems.append("balances differ after recovery")
        recovered = non_settlement_totals([state[key] for key, _ in BANKS])
        if recovered != totals:
            problems.append(
                f"non-settlement totals {recovered} != pre-crash {totals}"
            )
        return {
            "recovery_s": recovery_s,
            "replayed": replayed,
            "problems": problems,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--data-dir", default=os.path.join(".perfbench", "data"))
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        tracer = layer_tracer.install()
    run = Run(args, tracer)
    setup_s = time.perf_counter() - _STARTED

    network = run.realm.network
    messages0, bytes0 = network.metrics.messages, network.metrics.bytes
    durable = run.workload.durable
    appends0 = run.wal_appends() if durable else 0
    if tracer is not None:
        tracer.reset()
    clients, timing = run.drive(args.seconds, args.ops)
    phase = tracer.snapshot() if tracer is not None else None
    messages = network.metrics.messages - messages0
    wire_bytes = network.metrics.bytes - bytes0

    samples = [s for client in clients for s in client.samples]
    failed = sum(client.failed for client in clients)
    problems = [e for client in clients for e in client.errors]
    ops_ok = len(samples) - failed
    if ops_ok <= 0:
        problems.append("no operation completed")
    problems.extend(
        run.scenario.check(run.realm, run.config, run.state, ops_ok)
    )
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": setup_s,
        "ref_setup_s": setup_s * hostspeed.REFERENCE_S / timing["kernel_s"][0],
        "attempted": len(samples),
        "failed": failed,
        "samples_s": samples,
        **timing,
        "messages": messages,
        "bytes": wire_bytes,
    }
    if durable:
        result["wal_records"] = run.wal_appends() - appends0
        if result["wal_records"] <= 0:
            problems.append("no WAL records were written")
        if tracer is not None:
            tracer.reset()
        recovery = run.crash_restart()
        if tracer is not None:
            result["recovery_trace"] = tracer.snapshot()
        problems.extend(recovery.pop("problems"))
        result.update(recovery)
    if tracer is not None:
        result["trace"] = phase
        missing = [
            layer
            for layer in EXPECTED_LAYERS[args.workload]
            if phase["layers"].get(layer, {}).get("calls", 0) <= 0
        ]
        if missing:
            problems.append(f"layers never entered: {', '.join(missing)}")
        stats = getattr(network, "stats", None)
        if stats is not None:
            result["aio"] = {
                "batches": stats.batches,
                "batched_messages": stats.batched_messages,
                "queued": stats.queued,
                "max_queue_depth": stats.max_queue_depth,
            }
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            result["spans"] = tracer.write_jsonl(args.spans)
            with open(args.spans, encoding="utf-8") as fh:
                invalid = validate_spans(load_spans_jsonl(fh.read()))
            problems.extend(f"span dump: {p}" for p in invalid[:5])
    shutil.rmtree(run.data_dir, ignore_errors=True)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
