"""Per-layer timing for the traced benchmark run.

:class:`LayerTracer` wraps the public functions of each pipeline layer
at class (or module) level, from outside the program, so ``src/`` stays
untouched.  Every wrapped call is a span: it adds one call, its
inclusive (busy) time, and its self time (busy time minus the wrapped
calls nested inside it) to the totals of its metric name.  Spans are
folded into those totals in memory, per thread, and written out only
when the run ends.

Install the wrappers before the socket, client or daemon is built, so
methods that the program binds once (``handle = kernel.handle_batch_packet``)
pick up the wrapped version.  Functions imported by name are patched in
the module that calls them (``repro.store.store.run_query``,
``repro.store.query.scan_records``, ``encode_frame`` in the service
modules).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "LayerTracer",
    "TIMED",
    "EXTRA_METRICS",
    "layer_values",
    "merge_totals",
    "per_layer_metrics",
]


class _Stat:
    """Totals of one metric name in one thread."""

    __slots__ = ("calls", "busy", "self_time", "in_root_self", "outer_busy",
                 "items", "nbytes", "refused", "peak")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        #: Self time of spans that ran under a root span (process_batch).
        self.in_root_self = 0.0
        #: Busy time of spans with no wrapped caller in their thread.
        self.outer_busy = 0.0
        self.items = 0
        self.nbytes = 0
        self.refused = 0
        self.peak = 0


# A counting hook sees (stat, args, result) after the call returns.
Hook = Callable[[_Stat, tuple, Any], None]


def _count_payload(stat: _Stat, args: tuple, result: Any) -> None:
    stat.nbytes += len(args[2])  # TCPDirectionReassembler.on_segment(self, seq, payload)


def _count_refused(stat: _Stat, args: tuple, result: Any) -> None:
    if result is False:
        stat.refused += 1


def _count_result_bytes(stat: _Stat, args: tuple, result: Any) -> None:
    stat.nbytes += len(result)


def _count_fed_bytes(stat: _Stat, args: tuple, result: Any) -> None:
    stat.nbytes += len(args[1])  # FrameReader.feed(self, data)


def _track_queue_depth(stat: _Stat, args: tuple, result: Any) -> None:
    depth = args[0].queue_depth()  # ClientSession.enqueue_event(self, ...)
    if depth > stat.peak:
        stat.peak = depth


# (metric prefix, module, attribute path, generator?, hook).  Several
# rows may share one prefix; ``{side}`` becomes "client" or "daemon".
TIMED: List[Tuple[str, str, str, bool, Optional[Hook]]] = [
    ("runtime", "repro.core.runtime", "ScapRuntime.process_batch", False, None),
    ("nic.classify_batch", "repro.nic.nic", "SimulatedNIC.classify_batch", False, None),
    ("nic.fdir_add", "repro.nic.fdir", "FlowDirectorTable.add", False, None),
    ("kernel_module.handle_batch_packet", "repro.core.kernel_module",
     "ScapKernelModule.handle_batch_packet", False, None),
    ("kernel_module.expire_and_drain", "repro.core.kernel_module",
     "ScapKernelModule.expire_and_drain", False, None),
    ("flowtable.lookup_or_create", "repro.core.flowtable",
     "FlowTable.lookup_or_create", False, None),
    ("reassembly.on_segment", "repro.core.reassembly",
     "TCPDirectionReassembler.on_segment", False, _count_payload),
    ("memory.try_store", "repro.core.memory", "StreamMemory.try_store", False,
     _count_refused),
    ("memory.chunk_append", "repro.core.memory", "ChunkAssembler.append", False, None),
    ("memory.chunk_append", "repro.core.memory", "ChunkAssembler.append_many", False, None),
    ("ppl.check", "repro.core.ppl", "PrioritizedPacketLoss.check", False, None),
    ("workers.dispatch", "repro.core.workers", "WorkerPool.dispatch", False, None),
    ("apps.callbacks", "repro.apps.base", "MonitorApp.on_stream_created", False, None),
    ("apps.callbacks", "repro.apps.delivery", "StreamDeliveryApp.on_stream_data",
     False, None),
    ("apps.callbacks", "repro.apps.base", "MonitorApp.on_stream_terminated", False, None),
    ("observability.metrics", "repro.observability.registry", "Counter.inc", False, None),
    ("observability.metrics", "repro.observability.registry", "Counter.inc_many",
     False, None),
    ("observability.metrics", "repro.observability.registry", "Gauge.set", False, None),
    ("observability.metrics", "repro.observability.registry", "Gauge.inc", False, None),
    ("observability.metrics", "repro.observability.registry", "Histogram.observe",
     False, None),
    ("observability.metrics", "repro.observability.registry", "Histogram.observe_many",
     False, None),
    ("observability.profiler", "repro.observability.profiler", "StageProfiler.record",
     False, None),
    ("observability.profiler", "repro.observability.profiler", "StageProfiler.record_seq",
     False, None),
    ("observability.profiler", "repro.observability.profiler", "StageProfiler.record_wait",
     False, None),
    ("observability.profiler", "repro.observability.profiler",
     "StageProfiler.record_wait_seq", False, None),
    ("observability.trace_emit", "repro.observability.tracing", "TraceBuffer.emit",
     False, None),
    ("store.writer.enqueue", "repro.store.writer", "StoreWriter.enqueue", False,
     _count_refused),
    ("store.writer.drain", "repro.store.writer", "StoreWriter.drain", False, None),
    ("store.writer.seal_all", "repro.store.writer", "StoreWriter.seal_all", False, None),
    ("store.flush", "repro.store.store", "StreamStore.flush", False, None),
    ("store.index.lookup", "repro.store.index", "StoreIndex.lookup", True, None),
    ("store.query.run_query", "repro.store.store", "run_query", False, None),
    ("store.query.scan_records", "repro.store.query", "scan_records", True, None),
    ("service.protocol.{side}.encode_frame", "repro.service.client", "encode_frame",
     False, _count_result_bytes),
    ("service.protocol.{side}.encode_frame", "repro.service.daemon", "encode_frame",
     False, _count_result_bytes),
    ("service.protocol.{side}.encode_frame", "repro.service.session", "encode_frame",
     False, _count_result_bytes),
    ("service.protocol.{side}.feed", "repro.service.protocol", "FrameReader.feed",
     False, _count_fed_bytes),
    ("service.session.enqueue_event", "repro.service.session",
     "ClientSession.enqueue_event", False, _track_queue_depth),
]

#: The root span.  The self times of every span under it add up to its
#: busy time by construction (``runtime.accounted_share`` reads 1).
ROOT = "runtime"
#: Name prefix of the daemon threads that read and answer requests.
SERVING_THREAD = "scapd-client-"

#: ``ScapClient.call`` is timed per command; other commands share one name.
CLIENT_COMMANDS = ("submit_trace", "query")

#: Derived per-layer metrics: (name, unit).
EXTRA_METRICS: List[Tuple[str, str]] = [
    ("runtime.accounted_share", "fraction"),
    ("runtime.capture_share", "fraction"),
    ("tracing.overhead", "ratio"),
    ("nic.fdir_drop_share", "fraction"),
    ("flowtable.cache_hit_share", "fraction"),
    ("reassembly.bytes", "bytes"),
    ("memory.refused_share", "fraction"),
    ("ppl.drop_share.p0", "fraction"),
    ("ppl.drop_share.p1", "fraction"),
    ("workers.events_per_pkt", "ratio"),
    ("store.writer.drop_share", "fraction"),
    ("store.query.useful_record_share", "fraction"),
    ("service.protocol.client.bytes_encoded", "bytes"),
    ("service.protocol.client.bytes_decoded", "bytes"),
    ("service.protocol.daemon.bytes_encoded", "bytes"),
    ("service.protocol.daemon.bytes_decoded", "bytes"),
    ("service.session.events_dropped", "count"),
    ("service.session.max_queue_depth", "count"),
    ("service.daemon.self_ms", "ms"),
]


def timed_names() -> List[str]:
    """Every timed metric prefix, in table order, without repeats."""
    names: List[str] = []
    for prefix, *_ in TIMED:
        for side in ("client", "daemon"):
            name = prefix.format(side=side)
            if name not in names:
                names.append(name)
    for command in CLIENT_COMMANDS + ("other",):
        names.append(f"service.client.{command}")
    return names


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric the traced run reports."""
    out: List[Tuple[str, str]] = []
    for name in timed_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.busy_s", "s"))
        out.append((f"{name}.self_s", "s"))
    return out + EXTRA_METRICS


class LayerTracer:
    """Installs the timing wrappers and folds spans into per-name totals."""

    def __init__(self, side: str):
        self.side = side
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, that thread's stats), one entry per thread.
        self._thread_stats: List[Tuple[str, Dict[str, _Stat]]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stats(self) -> Tuple[Dict[str, _Stat], List[float], List[int]]:
        local = self._local
        try:
            return local.stats, local.stack, local.in_root
        except AttributeError:
            local.stats = {}
            local.stack = []  # child time of each open span
            local.in_root = [0]  # open root spans in this thread
            with self._lock:
                self._thread_stats.append((threading.current_thread().name, local.stats))
            return local.stats, local.stack, local.in_root

    def _stat(self, stats: Dict[str, _Stat], name: str) -> _Stat:
        stat = stats.get(name)
        if stat is None:
            stat = stats[name] = _Stat()
        return stat

    def _wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        tracer = self
        is_root = name == ROOT
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stats, stack, in_root = tracer._stats()
            stat = tracer._stat(stats, name)
            if is_root:
                in_root[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                own = busy - stack.pop()
                if stack:
                    stack[-1] += busy
                else:
                    stat.outer_busy += busy
                stat.calls += 1
                stat.busy += busy
                stat.self_time += own
                if in_root[0]:
                    stat.in_root_self += own
                if is_root:
                    in_root[0] -= 1
            if hook is not None:
                hook(stat, args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time every resumption of a generator; one call per generator."""
        tracer = self
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stats, stack, in_root = tracer._stats()
            stat = tracer._stat(stats, name)
            stat.calls += 1
            iterator = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                done = False
                try:
                    item = next(iterator)
                except StopIteration:
                    done = True
                finally:
                    busy = clock() - start
                    own = busy - stack.pop()
                    if stack:
                        stack[-1] += busy
                    else:
                        stat.outer_busy += busy
                    stat.busy += busy
                    stat.self_time += own
                    if in_root[0]:
                        stat.in_root_self += own
                if done:
                    return
                stat.items += 1
                yield item

        timed.__wrapped__ = fn
        return timed

    def _wrap_client_call(self, fn: Callable) -> Callable:
        wrapped = {
            command: self._wrap(f"service.client.{command}", fn, None)
            for command in CLIENT_COMMANDS + ("other",)
        }

        def call(client, command, *args, **kwargs):
            key = command if command in wrapped else "other"
            return wrapped[key](client, command, *args, **kwargs)

        call.__wrapped__ = fn
        return call

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every timed function (idempotent per tracer)."""
        if self._installed:
            return
        for prefix, module_name, path, generator, hook in TIMED:
            name = prefix.format(side=self.side)
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if generator:
                replacement = self._wrap_generator(name, original)
            else:
                replacement = self._wrap(name, original, hook)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))
        from repro.service.client import ScapClient

        original = ScapClient.__dict__["call"]
        ScapClient.call = self._wrap_client_call(original)
        self._installed.append((ScapClient, "call", original))

    def uninstall(self) -> None:
        """Restore every patched function."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name totals merged across threads (JSON-ready)."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            per_thread = [(thread, dict(stats)) for thread, stats in self._thread_stats]
        for thread, stats in per_thread:
            serving = thread.startswith(SERVING_THREAD)
            for name, stat in stats.items():
                entry = merged.setdefault(
                    name,
                    {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "in_root_self_s": 0.0,
                     "outer_busy_s": 0.0, "serving_busy_s": 0.0, "items": 0,
                     "bytes": 0, "refused": 0, "peak": 0},
                )
                entry["calls"] += stat.calls
                entry["busy_s"] += stat.busy
                entry["self_s"] += stat.self_time
                entry["in_root_self_s"] += stat.in_root_self
                entry["outer_busy_s"] += stat.outer_busy
                if serving:
                    entry["serving_busy_s"] += stat.outer_busy
                entry["items"] += stat.items
                entry["bytes"] += stat.nbytes
                entry["refused"] += stat.refused
                entry["peak"] = max(entry["peak"], stat.peak)
        return merged

    def dump(self, path: str) -> None:
        """Write the merged totals to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.totals(), handle)


def merge_totals(*parts: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Sum totals from several processes (client side + daemon side)."""
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, entry in part.items():
            into = merged.setdefault(name, {key: 0 for key in entry})
            for key, value in entry.items():
                into[key] = max(into[key], value) if key == "peak" else into[key] + value
    return merged


def layer_values(
    totals: Dict[str, Dict[str, float]], facts: Dict[str, Any]
) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition.

    ``facts`` holds what the run reports outside the wrappers:
    ``offered_packets``, ``capture_wall_s`` (the traced capture's wall
    time), ``nic_filter_drops``, ``packets_by_priority`` and
    ``drops_by_priority`` (library mode), ``events_dropped`` and
    ``tracing_overhead``.
    """
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "in_root_self_s": 0.0,
             "outer_busy_s": 0.0, "serving_busy_s": 0.0, "items": 0, "bytes": 0,
             "refused": 0, "peak": 0}

    def get(name: str) -> Dict[str, float]:
        return totals.get(name, empty)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values: Dict[str, float] = {}
    for name in timed_names():
        entry = get(name)
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.busy_s"] = entry["busy_s"]
        values[f"{name}.self_s"] = entry["self_s"]
    offered = facts.get("offered_packets", 0)
    root_busy = get(ROOT)["busy_s"]
    under_root = sum(entry["in_root_self_s"] for entry in totals.values())
    values["runtime.accounted_share"] = share(under_root, root_busy)
    values["runtime.capture_share"] = share(root_busy, facts.get("capture_wall_s", 0.0))
    values["tracing.overhead"] = facts.get("tracing_overhead", 0.0)
    values["nic.fdir_drop_share"] = share(facts.get("nic_filter_drops", 0), offered)
    handled = get("kernel_module.handle_batch_packet")["calls"]
    lookups = get("flowtable.lookup_or_create")["calls"]
    values["flowtable.cache_hit_share"] = 1.0 - share(lookups, handled) if handled else 0.0
    values["reassembly.bytes"] = get("reassembly.on_segment")["bytes"]
    store = get("memory.try_store")
    values["memory.refused_share"] = share(store["refused"], store["calls"])
    packets_by_priority = facts.get("packets_by_priority", {})
    drops_by_priority = facts.get("drops_by_priority", {})
    for priority in ("0", "1"):
        values[f"ppl.drop_share.p{priority}"] = share(
            drops_by_priority.get(priority, 0), packets_by_priority.get(priority, 0)
        )
    values["workers.events_per_pkt"] = share(get("workers.dispatch")["calls"], offered)
    enqueue = get("store.writer.enqueue")
    values["store.writer.drop_share"] = share(enqueue["refused"], enqueue["calls"])
    values["store.query.useful_record_share"] = share(
        get("store.index.lookup")["items"], get("store.query.scan_records")["items"]
    )
    for side in ("client", "daemon"):
        values[f"service.protocol.{side}.bytes_encoded"] = get(
            f"service.protocol.{side}.encode_frame")["bytes"]
        values[f"service.protocol.{side}.bytes_decoded"] = get(
            f"service.protocol.{side}.feed")["bytes"]
    values["service.session.events_dropped"] = facts.get("events_dropped", 0)
    values["service.session.max_queue_depth"] = get("service.session.enqueue_event")["peak"]
    client_calls = [get(f"service.client.{c}") for c in CLIENT_COMMANDS + ("other",)]
    call_count = sum(entry["calls"] for entry in client_calls)
    call_busy = sum(entry["busy_s"] for entry in client_calls)
    # Only the spans of the threads that serve requests lie inside a
    # call's latency; event senders and the telemetry ticker run beside it.
    daemon_busy = sum(
        entry.get("serving_busy_s", 0.0) for name, entry in totals.items()
        if not name.startswith(("service.client.", "service.protocol.client."))
    )
    values["service.daemon.self_ms"] = (
        (call_busy - daemon_busy) / call_count * 1e3 if call_count else 0.0
    )
    return values
