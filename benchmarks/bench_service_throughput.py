"""Service-plane throughput: protocol codec and daemon fanout.

Two bands:

* **codec** — pure `encode_frame`/`FrameReader` round-trips, measured
  in frames/s and MB/s, with the reader fed realistic socket-sized
  chunks so the incremental scanner's buffering is on the clock.
* **daemon** — a live `ScapDaemon` on a Unix socket: one driver client
  submits a campus capture while N subscriber clients, one thread each,
  drain the event fanout concurrently; reports capture wall time,
  events delivered per second, full-scan query throughput, and the
  mean latency of a closed loop of point queries (`point_query_ms`).
  The per-client ledgers must balance at shutdown and every point
  query must match the full scan — a run that loses events or bytes
  is a failed run.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time

from repro.service import ScapClient, ScapDaemon
from repro.service.daemon import DaemonConfig
from repro.service.protocol import MSG_EVENT, FrameReader, encode_frame

GBIT = 1e9


def bench_codec(frame_count: int = 2000, payload_size: int = 4096) -> dict:
    """Encode then incrementally decode `frame_count` event frames."""
    payload = bytes(range(256)) * (payload_size // 256)
    header = {"event": "data", "sub": 3, "seq": 0, "offset": 0, "len": len(payload)}
    encoded = [
        encode_frame(MSG_EVENT, 0, {**header, "seq": seq}, payload)
        for seq in range(frame_count)
    ]
    blob = b"".join(encoded)

    start = time.perf_counter()
    reader = FrameReader()
    decoded = 0
    for offset in range(0, len(blob), 65536):
        decoded += len(reader.feed(blob[offset:offset + 65536]))
    elapsed = time.perf_counter() - start
    assert decoded == frame_count
    return {
        "frames": frame_count,
        "bytes": len(blob),
        "decode_seconds": elapsed,
        "frames_per_second": frame_count / elapsed if elapsed else 0.0,
        "mb_per_second": len(blob) / 1e6 / elapsed if elapsed else 0.0,
    }


class _Drain(threading.Thread):
    """Drains one subscription on its own thread; stamps the last event."""

    def __init__(self, stream):
        super().__init__(name=f"bench-drain-{stream.subscription_id}", daemon=True)
        self.stream = stream
        self.received = 0
        self.last_event = None
        #: Events to read before stopping, set once the daemon's ledger settles.
        self.target = None
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            if self.target is not None and self.received >= self.target:
                return
            if self.stream.next_event(timeout=0.1) is None:
                continue
            self.received += 1
            self.last_event = time.perf_counter()


def _settled_ledgers(driver, names, deadline: float) -> dict:
    """Poll the daemon until every named session has sent all it enqueued."""
    while True:
        sessions = {entry["name"]: entry for entry in driver.stats()["clients"]}
        ledgers = {name: sessions[name]["ledger"] for name in names}
        settled = all(
            sessions[name]["queued"] == 0
            and ledger["enqueued"] == ledger["delivered"] + ledger["dropped"]
            for name, ledger in ledgers.items()
        )
        if settled or time.perf_counter() > deadline:
            return ledgers
        time.sleep(0.01)


def bench_daemon(flows: int = 60, subscribers: int = 4, rate_bps: float = GBIT) -> dict:
    """One capture fanned out to `subscribers` clients over a Unix socket.

    Every subscriber is drained concurrently by its own thread, so the
    fanout clock (capture start to the last event any subscriber read)
    measures delivery, not drain timeouts.  Afterwards one client runs a
    closed loop of point queries, one per stored connection, each
    checked against that connection's bytes in a full scan.
    """
    run_dir = tempfile.mkdtemp(prefix="scap-bench-svc-")
    path = os.path.join(run_dir, "scapd.sock")
    daemon = ScapDaemon(DaemonConfig(store_dir=os.path.join(run_dir, "store")))
    daemon.add_unix_listener(path)
    daemon.start()
    drains = []
    clients = []
    try:
        names = [f"sub-{index}" for index in range(subscribers)]
        for name in names:
            client = ScapClient(unix_path=path, name=name)
            clients.append(client)
            drains.append(_Drain(client.subscribe(events=["created", "data", "closed"])))
        driver = ScapClient(unix_path=path, name="driver")
        clients.append(driver)
        for drain in drains:
            drain.start()

        start = time.perf_counter()
        summary = driver.submit_campus(
            flows=flows, seed=17, rate_bps=rate_bps, name="bench"
        )
        capture_seconds = time.perf_counter() - start

        ledgers = _settled_ledgers(driver, names, time.perf_counter() + 30.0)
        for drain, name in zip(drains, names):
            drain.target = ledgers[name]["delivered"]
        for drain in drains:
            drain.join(timeout=30.0)
            drain.stop.set()
        delivered = sum(drain.received for drain in drains)
        assert delivered == sum(ledger["delivered"] for ledger in ledgers.values()), (
            "service bench: subscribers read fewer events than the daemon delivered"
        )
        last_event = max(
            (drain.last_event for drain in drains if drain.last_event is not None),
            default=start,
        )
        fanout_seconds = last_event - start

        query_start = time.perf_counter()
        streams = driver.query()
        query_seconds = time.perf_counter() - query_start
        query_bytes = sum(len(s["data"]) for s in streams)

        oracle = {}
        for stream in streams:
            key = tuple(stream["flow"])
            oracle[key] = oracle.get(key, 0) + len(stream["data"])
        point_seconds = []
        for flow, expected in oracle.items():
            point_start = time.perf_counter()
            answer = driver.query(flow=list(flow))
            point_seconds.append(time.perf_counter() - point_start)
            got = sum(len(s["data"]) for s in answer)
            assert got == expected, f"point query {flow}: {got} bytes, scan holds {expected}"
    finally:
        for drain in drains:
            drain.stop.set()
        for client in clients:
            client.close()
        daemon.shutdown()
    balanced = daemon.ledgers_balanced()
    assert balanced, "service bench lost events: ledgers did not balance"
    return {
        "flows": flows,
        "subscribers": subscribers,
        "streams_created": summary["streams_created"],
        "delivered_bytes": summary["delivered_bytes"],
        "capture_seconds": capture_seconds,
        "events_delivered": delivered,
        "events_per_second": delivered / fanout_seconds if fanout_seconds else 0.0,
        "query_streams": len(streams),
        "query_bytes": query_bytes,
        "query_mb_per_second": (
            query_bytes / 1e6 / query_seconds if query_seconds else 0.0
        ),
        "point_queries": len(point_seconds),
        "point_query_ms": (
            sum(point_seconds) / len(point_seconds) * 1e3 if point_seconds else 0.0
        ),
        "ledgers_balanced": balanced,
    }


def run(flows: int = 60, subscribers: int = 4) -> dict:
    """Both bands, as one JSON-serializable payload (used by smoke.py)."""
    return {
        "codec": bench_codec(),
        "daemon": bench_daemon(flows=flows, subscribers=subscribers),
    }


def main(argv=None) -> int:
    """Run the service benchmark and print (optionally dump) the numbers."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=60)
    parser.add_argument("--subscribers", type=int, default=4)
    parser.add_argument("--json", dest="json_out", default=None)
    args = parser.parse_args(argv)

    payload = run(flows=args.flows, subscribers=args.subscribers)
    codec, daemon = payload["codec"], payload["daemon"]
    print(
        f"codec: {codec['frames_per_second']:,.0f} frames/s "
        f"({codec['mb_per_second']:,.1f} MB/s decode)"
    )
    print(
        f"daemon: {daemon['events_delivered']} events to "
        f"{daemon['subscribers']} subscribers "
        f"({daemon['events_per_second']:,.0f} events/s); "
        f"query {daemon['query_mb_per_second']:,.1f} MB/s; "
        f"point query {daemon['point_query_ms']:.2f} ms; "
        f"ledgers balanced: {daemon['ledgers_balanced']}"
    )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
