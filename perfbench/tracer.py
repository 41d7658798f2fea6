"""Layer tracing from the benchmark's side of the program.

:func:`install` wraps the public functions that enter each layer of
``src/repro`` (the table :data:`TARGETS`).  A wrapper is bound wherever the
original is: on its class, or on every ``repro.*`` module attribute that
*is* the original function, because many modules import helpers by name
(``from repro.encoding.canonical import encode``) and patching only the
defining module would miss those calls.

Accounting rules:

* Time is thread CPU time, so a client thread blocked on a reply, or a
  thread waiting for the interpreter lock, is never counted as busy.
  A layer's self time is its spans' CPU time minus the CPU time of the
  spans nested in them.
* A call made while the innermost open span already belongs to the same
  layer (recursion, or one layer function calling another) opens no span:
  it is counted once, in the outer call.
* Span stacks are per thread.  In the aio runtime handlers run on the
  event-loop thread; the first span there is linked to the client span
  that queued the request, and the time between the client's send and
  the loop's delivery is recorded as inbox wait.

Spans of the first :attr:`LayerTracer.record_ops` operations are kept in
memory and written as JSONL that ``repro.obs.store.load_spans_jsonl``
accepts, so ``python -m repro profile --from FILE`` folds them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_cpu = time.thread_time
_wall = time.perf_counter

#: Span name of the benchmark's own per-operation root span.
OP_SPAN = "perfbench.op"


def _encoded_bytes(result, args, kwargs) -> int:
    return len(result)


def _decoded_bytes(result, args, kwargs) -> int:
    return len(args[0]) if args else len(kwargs["data"])


def _acl_examined(result, args, kwargs) -> int:
    """Entries a first-match scan looked at (all of them on a miss)."""
    entries = args[0].entries
    if result is None:
        return len(entries)
    for index, entry in enumerate(entries):
        if entry is result:
            return index + 1
    return len(entries)


#: (layer, module, space-separated qualified names): the calls into each
#: layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    (
        "crypto.schnorr",
        "repro.crypto.schnorr",
        "generate_keypair sign verify verify_batch encrypt_to decrypt",
    ),
    ("crypto.symmetric", "repro.crypto.symmetric", "seal unseal new_key"),
    ("encoding", "repro.encoding.canonical", "encode decode"),
    ("core.verify", "repro.core.verification", "ProxyVerifier.verify"),
    ("acl", "repro.acl.acl", "AccessControlList.match"),
    (
        "kerberos",
        "repro.kerberos.client",
        "KerberosClient.login KerberosClient.get_ticket "
        "KerberosClient.redeem_tgs_proxy",
    ),
    (
        "kerberos",
        "repro.kerberos.kdc",
        "KeyDistributionCenter.op_as_request "
        "KeyDistributionCenter.op_tgs_request "
        "KeyDistributionCenter.op_tgs_proxy_request",
    ),
    ("kerberos", "repro.kerberos.session", "make_ap_request ApAcceptor.accept"),
    (
        "kerberos",
        "repro.kerberos.ticket",
        "Ticket.seal Ticket.open Authenticator.seal Authenticator.open",
    ),
    (
        "kerberos",
        "repro.kerberos.proxy_support",
        "grant_via_credentials endorse KerberosProxy.presentation "
        "KerberosProxyAcceptor.accept",
    ),
    ("services.handler", "repro.net.service", "Service.handle"),
    ("services.client", "repro.services.client", "ServiceClient.request"),
    (
        "services.client",
        "repro.services.authorization",
        "AuthorizationClient.authorize",
    ),
    (
        "services.client",
        "repro.services.accounting",
        "AccountingClient.write_check AccountingClient.deposit_check",
    ),
    ("ledger", "repro.ledger.ledger", "Ledger.post"),
    ("durability", "repro.durability.store", "DurabilityStore.append"),
    ("durability.compact", "repro.durability.store", "DurabilityStore.compact"),
    ("durability.recover", "repro.durability.store", "DurabilityStore.recover"),
    ("net", "repro.net.network", "Network.send"),
    ("net", "repro.net.aio", "AioNetwork.send"),
)

#: Units a target's calls add to its layer's ``units`` total:
#: ``fn(result, args, kwargs) -> int``.
UNITS: Dict[str, Callable] = {
    "encode": _encoded_bytes,
    "decode": _decoded_bytes,
    "AccessControlList.match": _acl_examined,
}


def _cache_lookup(hit: Callable) -> Callable:
    def count(result, args, kwargs) -> Dict[str, int]:
        return {"lookups": 1, "hits": int(hit(result))}

    return count


class _FileGrowth:
    """Bytes appended per call, from the file's size after each append.

    A size below the last one seen means compaction truncated the file
    in between, so everything now in it is new."""

    def __init__(self) -> None:
        self._sizes: Dict[str, int] = {}

    def __call__(self, result, args, kwargs) -> Dict[str, int]:
        path = args[0] if args else kwargs["path"]
        size = os.path.getsize(path)
        last = self._sizes.get(path, 0)
        self._sizes[path] = size
        return {"records": 1, "bytes": size - last if size >= last else size}


#: Calls that are counted, never timed: (counter, module, qualified name,
#: factory).  ``install`` calls the factory once for a function
#: ``fn(result, args, kwargs) -> {name: increment}``; totals are kept as
#: ``counter.name``.
COUNTERS: Tuple[Tuple[str, str, str, Callable], ...] = (
    (
        "sigcache",
        "repro.crypto.signature",
        "SignatureCache.lookup",
        lambda: _cache_lookup(bool),
    ),
    (
        "chaincache",
        "repro.core.vcache",
        "ChainPrefixCache.get",
        lambda: _cache_lookup(lambda result: result is not None),
    ),
    (
        "ledger",
        "repro.ledger.ledger",
        "Ledger._count_rollback",
        lambda: lambda result, args, kwargs: {"rollbacks": 1},
    ),
    ("wal", "repro.ledger.wal", "append_record", _FileGrowth),
)

#: Entry points whose spans are linked across threads: the aio client-side
#: send registers its payload, and the loop-side delivery core adopts it.
_AIO_SEND = ("repro.net.aio", "AioNetwork.send")
_DELIVERY = ("repro.net.network", "Network.send")


class LayerStats:
    """What one thread recorded for one layer."""

    __slots__ = ("calls", "self_cpu", "total_cpu", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.self_cpu = 0.0
        self.total_cpu = 0.0
        self.units = 0


class _ThreadState:
    """One thread's open frames and totals."""

    def __init__(self) -> None:
        #: Open frames: [layer, cpu_start, child_cpu, span-or-None].
        self.stack: List[list] = []
        self.layers: Dict[str, LayerStats] = {}
        self.counts: Dict[str, int] = {}
        self.waits: List[float] = []
        self.spans: List[dict] = []


def _payload_of(args, kwargs):
    return kwargs["payload"] if "payload" in kwargs else args[4]


class LayerTracer:
    """Per-thread span stacks and layer totals; see the module docstring."""

    def __init__(self, record_ops: int = 40) -> None:
        self.record_ops = record_ops
        self._local_slot = threading.local()
        self._threads: List[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        #: id(payload) -> (send wall time, parent span) for queued requests.
        self._pending: Dict[int, Tuple[float, Optional[dict]]] = {}

    # -- per-thread state ------------------------------------------------

    def _local(self) -> _ThreadState:
        slot = self._local_slot
        try:
            return slot.state
        except AttributeError:
            state = slot.state = _ThreadState()
            with self._threads_lock:
                self._threads.append(state)
            return state

    def _span(self, name: str, layer: Optional[str], parent: Optional[dict]):
        if parent is None:
            return None
        return {
            "span_id": next(self._span_ids),
            "parent_id": parent["span_id"],
            "trace_id": parent["trace_id"],
            "name": name,
            "start": _wall(),
            "end": None,
            "status": "ok",
            "attributes": {"layer": layer},
            "events": [],
        }

    @staticmethod
    def _open_span(stack: List[list]) -> Optional[dict]:
        return stack[-1][3] if stack else None

    # -- the operation root ----------------------------------------------

    def op_begin(self) -> None:
        """Open the root span of one benchmark operation on this thread."""
        state = self._local()
        op_id = next(self._op_ids)
        span = None
        if op_id <= self.record_ops:
            span = {
                "span_id": next(self._span_ids),
                "parent_id": None,
                "trace_id": format(op_id, "032x"),
                "name": OP_SPAN,
                "start": _wall(),
                "end": None,
                "status": "ok",
                "attributes": {"layer": None},
                "events": [],
            }
        state.stack.append([None, _cpu(), 0.0, span])

    def op_end(self, ok: bool) -> None:
        state = self._local()
        frame = state.stack.pop()
        span = frame[3]
        if span is not None:
            span["end"] = _wall()
            span["status"] = "ok" if ok else "error"
            state.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        counter: Optional[Callable] = None,
        aio_send: bool = False,
        delivery: bool = False,
    ) -> Callable:
        """Time ``fn`` as an entry point of ``layer``; ``aio_send`` and
        ``delivery`` mark the two ends of a queued aio request."""
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._local()
            stack = state.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent_span = tracer._open_span(stack)
            if delivery and not stack:
                # First span on the event-loop thread: a queued request.
                pending = tracer._pending.pop(
                    id(_payload_of(args, kwargs)), None
                )
                if pending is not None:
                    sent, parent_span = pending
                    state.waits.append(_wall() - sent)
            span = tracer._span(name, layer, parent_span)
            frame = [layer, 0.0, 0.0, span]
            stack.append(frame)
            if aio_send and stack[0][0] is None:
                # A client thread inside an operation: this send is queued.
                tracer._pending[id(_payload_of(args, kwargs))] = (
                    _wall(),
                    span,
                )
            frame[1] = _cpu()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = _cpu() - frame[1]
                stack.pop()
                stats = state.layers.get(layer)
                if stats is None:
                    stats = state.layers[layer] = LayerStats()
                stats.calls += 1
                stats.total_cpu += elapsed
                stats.self_cpu += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                if span is not None:
                    span["end"] = _wall()
                    if not ok:
                        span["status"] = "error"
                    state.spans.append(span)
                if ok and counter is not None:
                    stats.units += counter(result, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def wrap_counter(self, key: str, fn: Callable, counter: Callable) -> Callable:
        """Count what ``counter`` reads off each call of ``fn``; no timing."""
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = tracer._local().counts
            for name, value in counter(result, args, kwargs).items():
                name = f"{key}.{name}"
                counts[name] = counts.get(name, 0) + value
            return result

        counted.__wrapped__ = fn
        return counted

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every thread's totals (not its spans); call while no
        traced call is running."""
        with self._threads_lock:
            for state in self._threads:
                state.layers.clear()
                state.counts.clear()
                state.waits.clear()

    def snapshot(self) -> dict:
        """Totals over every thread so far (layers, counters, waits)."""
        layers: Dict[str, Dict[str, float]] = {}
        counts: Dict[str, int] = {}
        waits: List[float] = []
        with self._threads_lock:
            threads = list(self._threads)
        for state in threads:
            for layer, stats in list(state.layers.items()):
                into = layers.setdefault(
                    layer,
                    {"calls": 0, "self_cpu": 0.0, "total_cpu": 0.0, "units": 0},
                )
                into["calls"] += stats.calls
                into["self_cpu"] += stats.self_cpu
                into["total_cpu"] += stats.total_cpu
                into["units"] += stats.units
            for key, value in list(state.counts.items()):
                counts[key] = counts.get(key, 0) + value
            waits.extend(state.waits)
        return {"layers": layers, "counts": counts, "waits": waits}

    def spans(self) -> List[dict]:
        with self._threads_lock:
            threads = list(self._threads)
        out = [span for state in threads for span in state.spans]
        out.sort(key=lambda s: s["span_id"])
        return out

    def write_jsonl(self, path: str) -> int:
        """Write the recorded spans as JSONL; returns how many."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)


def _resolve(module_name: str, qualname: str):
    """(owner, attribute) for ``Class.method`` or a module-level name."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _import_all() -> None:
    """Import every ``repro`` module, so module-level aliases exist before
    the wrappers are bound to them."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _rebind(owner, attr: str, make: Callable) -> None:
    """Replace ``owner.attr`` with ``make(original)``; for a module-level
    function, also every ``repro.*`` module attribute bound to it."""
    raw = owner.__dict__[attr]
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if kind is not None else raw
    wrapped = make(fn)
    setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                setattr(module, name, wrapped)


def install(record_ops: int = 40) -> LayerTracer:
    """Wrap every target in :data:`TARGETS` and :data:`COUNTERS`.

    Call before the realm is built: services register bound handlers with
    the network when they are constructed.
    """
    _import_all()
    tracer = LayerTracer(record_ops=record_ops)
    for layer, module_name, qualnames in TARGETS:
        for qualname in qualnames.split():
            where = (module_name, qualname)
            _rebind(
                *_resolve(module_name, qualname),
                functools.partial(
                    tracer.wrap,
                    layer,
                    qualname,
                    counter=UNITS.get(qualname),
                    aio_send=where == _AIO_SEND,
                    delivery=where == _DELIVERY,
                ),
            )
    for key, module_name, qualname, factory in COUNTERS:
        _rebind(
            *_resolve(module_name, qualname),
            functools.partial(tracer.wrap_counter, key, counter=factory()),
        )
    return tracer
