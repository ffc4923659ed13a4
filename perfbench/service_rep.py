"""One service-mode repetition, run in a fresh process by ``run.py``.

Usage::

    python3 perfbench/service_rep.py --seed 1 --work-dir DIR [--capture-only] \
        [--trace-out PATH --daemon-trace-out PATH]

Starts a ``repro-scap serve --store … --observability`` daemon in its own
process on a Unix socket, then drives it with two connections from this
process:

* the load generator first submits one small untimed warm-up capture,
  so that the timed capture does not pay the daemon's first-call costs;
* a subscriber thread drains created/data/closed events while
* the load generator submits one server-side campus capture, then runs a
  closed loop of single-flow queries (one client, one request
  outstanding) over the stored connections in seed-shuffled order, then
  repeats full-store scans (``closed_loop.py``).  With ``--capture-only``
  it skips the timed queries and scans; the untimed scan that checks the
  store against the captures still runs.

Every point query reads the whole store (~12.6 MB in two segments), so
every one reads the same amount of it.  Its size also stays well below the 16 MiB
frame limit that a full-store query answer must fit in.

The daemon is shut down at the end and must exit 0 (ledgers balanced).
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Dict, Optional

from closed_loop import query_and_scan
from layers import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
FLOWS = 600
#: Flows of the untimed warm-up capture.
WARMUP_FLOWS = 60
#: Added to ``--seed`` for the server-side generator (the warm-up capture
#: adds one more).
SEED_OFFSET = 2_000_000
RATE_BPS = 1e9
MAX_QUEUED_EVENTS = 200_000
EVENT_KINDS = ["created", "data", "closed"]
#: Point queries per repetition: ten of them lie beyond its p90.  A run
#: reports the median over its five or more repetitions.
QUERIES = 100
SCANS = 10


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU of a whole process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class Subscriber(threading.Thread):
    """Drains one subscription while captures run; stamps the last event."""

    def __init__(self, stream):
        super().__init__(name="perfbench-subscriber", daemon=True)
        self.stream = stream
        self.received = 0
        self.last_event_at: Optional[float] = None
        self.target: Optional[int] = None
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            if self.target is not None and self.received >= self.target:
                return
            frame = self.stream.next_event(timeout=0.1)
            if frame is None:
                continue
            self.received += 1
            self.last_event_at = time.perf_counter()


def _session(stats: Dict[str, Any], name: str) -> Dict[str, Any]:
    for client in stats["clients"]:
        if client["name"] == name:
            return client
    raise RuntimeError(f"no session named {name!r} in stats")


def _start_daemon(args, sock: str, store_dir: str, log_path: str):
    serve = [
        "serve", "--unix", sock, "--store", store_dir, "--observability",
        "--max-queued-events", str(MAX_QUEUED_EVENTS),
    ]
    if args.daemon_trace_out:
        argv = [sys.executable, os.path.join(HERE, "traced_daemon.py"),
                args.daemon_trace_out] + serve
    else:
        argv = [sys.executable, "-m", "repro.tools.cli"] + serve
    log = open(log_path, "wb")
    try:
        return subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
    finally:
        log.close()


def _connect(sock: str, name: str, deadline: float):
    from repro.service import ScapClient

    while True:
        try:
            return ScapClient(unix_path=sock, name=name)
        except (FileNotFoundError, ConnectionRefusedError):
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.005)


def run(args: argparse.Namespace, out: Dict[str, Any]) -> None:
    tracer = None
    if args.trace_out:
        tracer = LayerTracer(side="client")
        tracer.install()
    work = args.work_dir
    sock = os.path.join(work, "d.sock")
    store_dir = os.path.join(work, "store")
    shutil.rmtree(store_dir, ignore_errors=True)
    if os.path.exists(sock):
        os.remove(sock)
    launched = time.perf_counter()
    daemon = _start_daemon(args, sock, store_dir, os.path.join(work, "daemon.log"))
    loadgen = subscriber_client = None
    try:
        loadgen = _connect(sock, "loadgen", launched + 30.0)
        loadgen.ping()
        out["setup_s"] = time.perf_counter() - launched
        out["attempted"] += 1
        warmup_sent = time.perf_counter()
        warmup = loadgen.submit_campus(
            flows=WARMUP_FLOWS, seed=args.seed + SEED_OFFSET + 1, rate_bps=RATE_BPS,
            name="warmup",
        )
        warmup_s = time.perf_counter() - warmup_sent
        out["attempted"] += 1
        subscriber_client = _connect(sock, "subscriber", launched + 30.0)
        subscription = subscriber_client.subscribe(events=EVENT_KINDS)
        out["attempted"] += 1
        subscriber = Subscriber(subscription)
        subscriber.start()

        cpu0 = _proc_cpu_s(daemon.pid)
        first_sent = time.perf_counter()
        summary = loadgen.submit_campus(
            flows=FLOWS, seed=args.seed + SEED_OFFSET, rate_bps=RATE_BPS,
            name="capture",
        )
        capture_s = time.perf_counter() - first_sent
        cpu_s = _proc_cpu_s(daemon.pid) - cpu0
        out["attempted"] += 1
        packets = summary["offered_packets"]
        out["daemon_capture_us_per_pkt"] = capture_s / packets * 1e6
        out["capture_cpu_us_per_pkt"] = cpu_s / packets * 1e6

        # Wait until the daemon has sent every enqueued event, then until
        # the subscriber has read them all; the clock stops at the last one.
        deadline = time.perf_counter() + 30.0
        while True:
            ledger_entry = _session(loadgen.stats(), "subscriber")
            out["attempted"] += 1
            ledger = ledger_entry["ledger"]
            if ledger_entry["queued"] == 0 and (
                ledger["enqueued"] == ledger["delivered"] + ledger["dropped"]
            ):
                break
            if time.perf_counter() > deadline:
                out["failures"].append(f"subscriber ledger never settled: {ledger}")
                break
            time.sleep(0.01)
        subscriber.target = ledger["delivered"]
        subscriber.join(timeout=30.0)
        subscriber.stop.set()
        subscriber.join(timeout=1.0)
        out["attempted"] += 1
        if subscriber.received != ledger["delivered"]:
            out["failures"].append(
                f"subscriber received {subscriber.received} events, "
                f"daemon delivered {ledger['delivered']}"
            )
        if ledger["enqueued"] != ledger["delivered"] + ledger["dropped"]:
            out["failures"].append(f"unbalanced subscriber ledger {ledger}")
        if subscriber.last_event_at is not None:
            out["fanout_events_per_s"] = subscriber.received / (
                subscriber.last_event_at - first_sent
            )
        out["events_dropped"] = ledger["dropped"]

        # One warm-up scan gives the per-connection oracle for the point
        # queries; the timed scans repeat it.
        delivered = warmup["delivered_bytes"] + summary["delivered_bytes"]
        streams = loadgen.query()
        out["attempted"] += 2
        oracle: Dict[tuple, int] = {}
        for stream in streams:
            key = tuple(stream["flow"])
            oracle[key] = oracle.get(key, 0) + len(stream["data"])
        if sum(oracle.values()) != delivered:
            out["failures"].append(
                f"full scan holds {sum(oracle.values())} bytes, captures delivered "
                f"{delivered}"
            )
        query_and_scan(
            lambda key: loadgen.query(flow=list(key)), loadgen.query,
            lambda answer: sum(len(stream["data"]) for stream in answer),
            oracle, args.seed, args.rep,
            0 if args.capture_only else QUERIES, 0 if args.capture_only else SCANS, out,
        )

        final_stats = loadgen.stats()
        out["attempted"] += 1
        out["peak_rss_mb"] = _proc_peak_rss_mb(daemon.pid)
        out["fingerprint"] = {
            "warmup": {key: value for key, value in warmup.items() if key != "name"},
            "capture": {key: value for key, value in summary.items() if key != "name"},
            "store": final_stats["store"],
            "events_received": subscriber.received,
        }
        # The traced daemon's layer totals cover both captures.
        out["facts"] = {
            "offered_packets": packets + warmup["offered_packets"],
            "capture_wall_s": warmup_s + capture_s,
        }
        subscriber_client.unsubscribe(subscription.subscription_id)
        loadgen.shutdown_server()
        out["attempted"] += 2
    finally:
        for client in (subscriber_client, loadgen):
            if client is not None:
                client.close()
        try:
            code = daemon.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            code = daemon.wait()
        out["attempted"] += 1
        if code != 0:
            out["failures"].append(f"daemon exited {code} (ledgers unbalanced?)")
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace_out)
        shutil.rmtree(store_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--rep", type=int, default=0,
                        help="repetition index within the run")
    parser.add_argument("--capture-only", action="store_true",
                        help="check the store with one scan but time no queries")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--daemon-trace-out", default=None)
    args = parser.parse_args()
    out: Dict[str, Any] = {"mode": "service", "attempted": 0, "failures": []}
    try:
        run(args, out)
    except Exception as exc:  # reported as a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        out["attempted"] += 1
        out["failures"].append(f"{type(exc).__name__}: {exc}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
