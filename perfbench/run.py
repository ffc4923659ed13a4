"""Benchmark runner: real host cost of capture, event fanout and store queries.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cutoff-overload --seed 1 --seconds 45 --trace 0

Workloads: ``cutoff-overload`` and ``campus-delivery`` (``ScapSocket`` in
library mode) and ``service-store`` (``ScapClient`` against a
``repro-scap serve`` daemon); ``BENCHMARK.json`` lists the first and the
last.  Every timed repetition runs in a fresh process, so peak RSS,
garbage-collector state and caches never carry over.  Library workloads
first build a store in one untimed, sanitized capture; then query and
capture repetitions alternate until ``--seconds`` have passed.  Service
repetitions, full and capture-only in turn, repeat until ``--seconds``
have passed.  Between repetitions this process times a fixed calibration
loop.

``--trace 0`` prints the end-to-end metrics: medians over the run's
per-repetition samples, with every timing scaled to the reference host
speed by the calibration loop.  ``--trace 1`` runs one untraced and one
traced repetition and prints the per-layer metrics.  A table goes to standard output first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campus-delivery", "cutoff-overload", "service-store")
CHILD_TIMEOUT_S = 90.0
#: Accepted range of traced ``process_batch`` busy time ÷ traced
#: ``start_capture`` wall time in library mode.
CAPTURE_SHARE = (0.5, 1.0)
#: Steps of the host calibration loop (about 0.35 s of CPU time).
CALIBRATION_STEPS = 250_000
#: CPU seconds of the calibration loop on the reference host: a 2-vCPU
#: KVM guest on an Intel Xeon (Sapphire Rapids), Python 3.11, in one of its
#: faster phases.  Timed metrics are reported at this host speed.
REFERENCE_CALIBRATION_S = 0.4
#: End-to-end metrics that are times (scaled by the calibration factor)
#: and rates (divided by it).  The rest are not timings.
SCALED_TIMES = ("capture_cpu_us_per_pkt", "daemon_capture_us_per_pkt", "query_mean_ms",
                "query_p90_ms", "setup_s")
SCALED_RATES = ("fanout_events_per_s", "scan_mb_per_s")

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END: List[Tuple[str, str]] = [
    ("capture_cpu_us_per_pkt", "us"),
    ("daemon_capture_us_per_pkt", "us"),
    ("fanout_events_per_s", "events/s"),
    ("query_mean_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("scan_mb_per_s", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "fraction"),
]


class Run:
    """One benchmark run: its children, their samples and its failures.

    ``attempted`` and ``failures`` count single operations.  ``units``
    and ``failed_units`` count checked units for ``ok_rate``: each child
    process and each run-level check is one unit, failed if any of its
    operations failed.  A run has at most a few dozen units, so one
    failed unit moves ``ok_rate`` by more than its 0.01 bound.
    """

    def __init__(self, args: argparse.Namespace, work_dir: str):
        self.args = args
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: List[str] = []
        self.units = 0
        self.failed_units = 0
        self.reports: List[Dict[str, Any]] = []
        self.calibrations: List[float] = []

    def calibrate(self) -> None:
        """Time the calibration loop once, in this process, between children."""
        self.calibrations.append(host_calibration_s())

    def check(self, failure: str = "") -> None:
        """Count one run-level check (one operation, one unit)."""
        self.attempted += 1
        self.units += 1
        if failure:
            self.failures.append(failure)
            self.failed_units += 1

    def child(self, script: str, extra: List[str], sanitize: bool = False) -> Dict[str, Any]:
        """Run one repetition in a fresh process and collect its report."""
        env = dict(os.environ)
        env.pop("SCAP_SANITIZE", None)
        env.pop("SCAP_RACE", None)
        if sanitize:
            env["SCAP_SANITIZE"] = "1"
        paths = [os.path.join(ROOT, "src"), HERE]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        argv = [sys.executable, os.path.join(HERE, script)] + extra
        if script == "capture_rep.py":
            argv += ["--launched", repr(time.time())]
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            self.check(f"{script} timed out after {CHILD_TIMEOUT_S:.0f} s")
            return {}
        report: Dict[str, Any] = {}
        lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
        if done.returncode == 0 and lines:
            try:
                report = json.loads(lines[-1])
            except json.JSONDecodeError:
                report = {}
        if not report:
            tail = done.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            self.check(f"{script} exited {done.returncode}: {' | '.join(tail)}")
            return {}
        self.attempted += report["attempted"]
        self.failures.extend(report["failures"])
        self.units += 1
        self.failed_units += bool(report["failures"])
        self.reports.append(report)
        return report

    def check_fingerprints(self) -> None:
        """Every repetition of the same seed must simulate the same outcome."""
        prints = [r["fingerprint"] for r in self.reports if "fingerprint" in r]
        if not prints or any(p != prints[0] for p in prints[1:]):
            self.check("simulated fingerprint differs between repetitions")
        else:
            self.check()

    def ok_rate(self) -> float:
        return 1.0 - self.failed_units / max(self.units, 1)


def host_calibration_s() -> float:
    """CPU seconds of a fixed pure-Python loop that runs no program code.

    It uses the same kinds of operation as the capture (tuple-keyed dict
    updates and a bounded heap), so it slows down with the host as the
    program does.
    """
    start = time.process_time()
    table: Dict[Tuple[int, int], int] = {}
    heap: List[Tuple[int, int]] = []
    for step in range(CALIBRATION_STEPS):
        key = (step * 2654435761 % 100003, step & 7)
        table[key] = table.get(key, 0) + step
        heapq.heappush(heap, key)
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.process_time() - start


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _summary(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _empty_samples() -> Dict[str, List[float]]:
    """Per-repetition samples of each end-to-end metric, plus query counts."""
    samples: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
    samples["queries"] = []
    samples["query_p50_ms"] = []
    return samples


def _library_run(run: Run) -> Dict[str, List[float]]:
    args = run.args
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    work = ["--work-dir", run.work_dir]
    samples = _empty_samples()
    build = run.child("capture_rep.py", base + ["--mode", "build"] + work, sanitize=True)
    built = "delivered_bytes" in build
    query = base + ["--mode", "query", "--expect-bytes", str(build.get("delivered_bytes"))]
    deadline = time.perf_counter() + args.seconds
    # Capture and query repetitions alternate, so both sample the whole
    # window rather than one slice of the host's slow and fast phases.
    reps = 0
    while reps < 2 or time.perf_counter() < deadline:
        run.calibrate()
        if reps % 2 == 0:
            report = run.child("capture_rep.py", base + ["--mode", "timed"])
            if "capture_cpu_us_per_pkt" in report:
                samples["capture_cpu_us_per_pkt"].append(report["capture_cpu_us_per_pkt"])
                samples["daemon_capture_us_per_pkt"].append(report["capture_wall_us_per_pkt"])
                samples["fanout_events_per_s"].append(report["events_per_s"])
                samples["setup_s"].append(report["setup_s"])
                samples["peak_rss_mb"].append(report["peak_rss_mb"])
        elif built:
            rep = ["--rep", str(reps // 2)]
            _store_samples(run.child("capture_rep.py", query + work + rep), samples)
        reps += 1
    run.calibrate()
    return samples


def _store_samples(report: Dict[str, Any], samples: Dict[str, List[float]]) -> None:
    # Each query repetition gives one sample of each store metric, taken
    # over its whole closed loop or all its scans; the run reports their
    # median.  The host alternates between two speeds about 1.7x apart,
    # often within a second, so single latencies are bimodal.  A mean over
    # a repetition moves smoothly with the share of time spent slow, where
    # a p50 jumps between the two modes.
    query_ms = [seconds * 1e3 for seconds in report.get("query_s", [])]
    if query_ms:
        samples["query_mean_ms"].append(statistics.fmean(query_ms))
        samples["query_p90_ms"].append(_percentile(query_ms, 0.90))
        samples["query_p50_ms"].append(statistics.median(query_ms))
        samples["queries"].append(len(query_ms))
    if report.get("scan_s"):
        scanned = report["scan_bytes"] * len(report["scan_s"])
        samples["scan_mb_per_s"].append(scanned / sum(report["scan_s"]) / 1e6)


def _service_run(run: Run) -> Dict[str, List[float]]:
    deadline = time.perf_counter() + run.args.seconds
    samples = _empty_samples()
    rep = 0
    while True:
        # Every other repetition skips the timed queries and scans, which
        # take most of a full repetition, so that the run holds more
        # captures.  Both kinds sample the whole window.
        extra = ["--capture-only"] if rep % 2 else ["--rep", str(rep // 2)]
        run.calibrate()
        report = run.child(
            "service_rep.py", ["--seed", str(run.args.seed), "--work-dir", run.work_dir] + extra,
        )
        rep += 1
        if "fanout_events_per_s" in report:
            samples["capture_cpu_us_per_pkt"].append(report["capture_cpu_us_per_pkt"])
            samples["daemon_capture_us_per_pkt"].append(report["daemon_capture_us_per_pkt"])
            samples["fanout_events_per_s"].append(report["fanout_events_per_s"])
            samples["setup_s"].append(report["setup_s"])
            samples["peak_rss_mb"].append(report["peak_rss_mb"])
            _store_samples(report, samples)
        if time.perf_counter() >= deadline:
            break
    run.calibrate()
    return samples


def end_to_end(run: Run) -> Dict[str, Dict[str, float]]:
    if run.args.workload == "service-store":
        samples = _service_run(run)
    else:
        samples = _library_run(run)
    run.check_fingerprints()
    results: Dict[str, Dict[str, float]] = {}
    for name, _unit in END_TO_END:
        if name == "ok_rate":
            continue
        if not samples[name]:
            run.check(f"no samples for {name}")
            continue
        results[name] = _summary(samples[name])
    # Scale every timing to the reference host speed, so that the host's
    # slow and fast phases, which last minutes, do not move a run's value.
    # The mean, not the median, because the host also flips speed within
    # a second, and a timed operation averages over those flips.
    calibration = statistics.fmean(run.calibrations)
    factor = REFERENCE_CALIBRATION_S / calibration
    for name, summary in results.items():
        if name in SCALED_TIMES:
            summary["value"] = summary["median"] * factor
        elif name in SCALED_RATES:
            summary["value"] = summary["median"] / factor
        else:
            summary["value"] = summary["median"]
    print(f"host calibration: mean {calibration:.4f} s of {len(run.calibrations)}; "
          f"timings scaled by {factor:.4f}")
    if samples["queries"]:
        print(f"point queries timed: {sum(samples['queries']):.0f} in "
              f"{len(samples['queries'])} repetitions; median of their p50s "
              f"{statistics.median(samples['query_p50_ms']):.4f} ms (not gated)")
    return results


def traced(run: Run) -> Dict[str, float]:
    """One untraced and one traced repetition; per-layer metrics."""
    from layers import layer_values, merge_totals

    args = run.args
    plain_out = os.path.join(run.work_dir, "client-totals.json")
    daemon_out = os.path.join(run.work_dir, "daemon-totals.json")
    if args.workload == "service-store":
        common = ["--seed", str(args.seed), "--work-dir", run.work_dir]
        plain = run.child("service_rep.py", common)
        traced_report = run.child(
            "service_rep.py",
            common + ["--trace-out", plain_out, "--daemon-trace-out", daemon_out],
        )
    else:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "timed"]
        plain = run.child("capture_rep.py", common)
        traced_report = run.child("capture_rep.py", common + ["--trace-out", plain_out])
    run.check_fingerprints()
    parts = []
    for path in (plain_out, daemon_out):
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                parts.append(json.load(handle))
    totals = merge_totals(*parts)
    facts = dict(traced_report.get("facts", {}))
    if args.workload == "service-store":
        facts["events_dropped"] = traced_report.get("events_dropped", 0)
    if plain.get("capture_cpu_us_per_pkt") and traced_report.get("capture_cpu_us_per_pkt"):
        facts["tracing_overhead"] = (
            traced_report["capture_cpu_us_per_pkt"] / plain["capture_cpu_us_per_pkt"]
        )
    values = layer_values(totals, facts)
    if args.workload != "service-store":
        # The traced process_batch calls must make up most of the traced
        # start_capture, and never more than all of it.
        share = values["runtime.capture_share"]
        run.check("" if CAPTURE_SHARE[0] <= share <= CAPTURE_SHARE[1] else
                  f"process_batch busy time is {share:.4f} of the capture's wall time")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work_dir = os.path.join(".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    run = Run(args, work_dir)
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        if args.trace:
            from layers import per_layer_metrics

            values = traced(run)
            for name, unit in per_layer_metrics():
                print(f"{name:48} {values[name]:16.6f}  {unit}")
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            results = end_to_end(run)
            units = dict(END_TO_END)
            print(f"{'metric':28} {'scaled':>12} {'raw median':>12} {'raw q1':>12} "
                  f"{'raw q3':>12} {'n':>4}  unit")
            for name, summary in results.items():
                print(f"{name:28} {summary['value']:12.4f} {summary['median']:12.4f} "
                      f"{summary['q1']:12.4f} {summary['q3']:12.4f} {summary['n']:4d}  "
                      f"{units[name]}")
                metrics[name] = {"value": summary["value"], "unit": units[name]}
            metrics["ok_rate"] = {"value": run.ok_rate(), "unit": "fraction"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass
    for report in run.reports[:1]:
        print("fingerprint:", json.dumps(report.get("fingerprint")))
    for failure in run.failures:
        print("FAILED:", failure)
    attempted = max(run.attempted, 1)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
