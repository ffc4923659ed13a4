"""One library-mode repetition, run in a fresh process by ``run.py``.

Usage::

    python3 perfbench/capture_rep.py --workload campus-delivery --seed 1 \
        --mode timed --launched <time.time() at spawn> [--trace-out PATH]

Modes:

* ``timed``: generate the trace, build the socket, time ``start_capture``
  (process CPU and wall), check the outputs.  With ``--trace-out`` the
  layer wrappers are installed first and their totals written there.
* ``build``: the same capture, untimed, recorded into a library-mode
  ``StreamStore`` under ``--work-dir`` and checked.  The caller runs this
  mode under ``SCAP_SANITIZE=1``, so a sanitizer violation such as an
  unbalanced memory ledger fails it.
* ``query``: reopen that store and run the closed query loop and the
  repeated full scans of ``closed_loop.py`` on it.  ``--expect-bytes`` is
  the delivered byte count that the build reported; ``--rep`` picks the
  slice of connections to query.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from typing import Any, Dict

from closed_loop import query_and_scan
from layers import LayerTracer

#: Segment size of the library-mode store.  Small segments keep a point
#: query's read to the few segments that hold its flow.
SEGMENT_BYTES = 1 << 20
#: Point queries per query repetition, ten or more beyond its p90.
QUERIES = {"campus-delivery": 100, "cutoff-overload": 300}
#: Full scans per query repetition (~0.5 s and ~0.03 s each).
SCANS = {"campus-delivery": 3, "cutoff-overload": 30}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(args: argparse.Namespace, out: Dict[str, Any]) -> None:
    tracer = None
    if args.trace_out:
        # The capturing process is the "daemon" side of the protocol metrics.
        tracer = LayerTracer(side="daemon")
        tracer.install()
    from workloads import WORKLOADS, build_socket, build_trace, check_outputs, fingerprint

    workload = WORKLOADS[args.workload]
    trace = build_trace(workload, args.seed)
    socket, app = build_socket(workload, trace)
    out["setup_s"] = time.time() - args.launched
    cpu0, wall0 = time.process_time(), time.perf_counter()
    result = socket.start_capture(name=workload.name)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    out["attempted"] += 1
    packets = result.offered_packets
    out["capture_cpu_us_per_pkt"] = cpu / packets * 1e6
    out["capture_wall_us_per_pkt"] = wall / packets * 1e6
    out["events_per_s"] = result.delivered_events / wall
    out["peak_rss_mb"] = _peak_rss_mb()
    out["fingerprint"] = fingerprint(result)
    failures = check_outputs(workload, trace, socket, app, result)
    out["attempted"] += 1
    out["failures"].extend(failures)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)
        out["facts"] = {
            "offered_packets": packets,
            "capture_wall_s": wall,
            "nic_filter_drops": result.nic_filter_drops,
            "packets_by_priority": {str(k): v for k, v in result.packets_by_priority.items()},
            "drops_by_priority": {str(k): v for k, v in result.drops_by_priority.items()},
        }


def run_build(args: argparse.Namespace, out: Dict[str, Any]) -> None:
    from repro.apps import StreamRecorder
    from repro.store import StreamStore
    from workloads import WORKLOADS, build_socket, build_trace, check_outputs, fingerprint

    workload = WORKLOADS[args.workload]
    trace = build_trace(workload, args.seed)
    socket, app = build_socket(workload, trace)
    store_dir = os.path.join(args.work_dir, "store")
    shutil.rmtree(store_dir, ignore_errors=True)
    store = StreamStore(store_dir, segment_bytes=SEGMENT_BYTES)
    socket.set_store(StreamRecorder(store))
    try:
        result = socket.start_capture(name=workload.name)
        out["attempted"] += 1
        out["fingerprint"] = fingerprint(result)
        out["attempted"] += 1
        out["failures"].extend(check_outputs(workload, trace, socket, app, result))
        out["delivered_bytes"] = result.delivered_bytes
    finally:
        store.close()


def run_query(args: argparse.Namespace, out: Dict[str, Any]) -> None:
    from repro.store import StreamStore

    store = StreamStore(os.path.join(args.work_dir, "store"), segment_bytes=SEGMENT_BYTES)
    try:
        # One warm-up scan gives the per-connection oracle for the point
        # queries; the timed scans repeat it.
        full = store.query()
        out["attempted"] += 2
        oracle: Dict[Any, int] = {}
        for stream in full.streams:
            key = tuple(stream.client_tuple)
            oracle[key] = oracle.get(key, 0) + len(stream.data)
        if full.total_bytes != args.expect_bytes:
            out["failures"].append(
                f"store scan holds {full.total_bytes} bytes, capture delivered "
                f"{args.expect_bytes}"
            )
        connections = {tuple(c): c for c in store.connections()}
        query_and_scan(
            lambda key: store.query(connections[key]), store.query,
            lambda answer: answer.total_bytes, oracle, args.seed, args.rep,
            QUERIES[args.workload], SCANS[args.workload], out,
        )
    finally:
        store.close(enforce_retention=False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "build", "query"), required=True)
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--expect-bytes", type=int, default=None)
    args = parser.parse_args()
    if args.launched is None:
        args.launched = time.time()
    out: Dict[str, Any] = {"mode": args.mode, "attempted": 0, "failures": []}
    runner = {"timed": run_timed, "build": run_build, "query": run_query}[args.mode]
    try:
        runner(args, out)
    except Exception as exc:  # reported as a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        out["attempted"] += 1
        out["failures"].append(f"{type(exc).__name__}: {exc}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
