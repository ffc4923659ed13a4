"""The closed query loop and repeated full scans, shared by both rep scripts.

One client, one request outstanding: the next point query is sent only
when the previous one has answered.  Every query is timed once and every
answer is checked against the per-connection bytes of a warm-up full
scan; every timed full scan must return the same total.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, Hashable, List


def query_and_scan(
    query_one: Callable[[Hashable], Any],
    scan_all: Callable[[], Any],
    answer_bytes: Callable[[Any], int],
    oracle: Dict[Hashable, int],
    seed: int,
    rep: int,
    count: int,
    scans: int,
    out: Dict[str, Any],
) -> None:
    """Time ``count`` point queries, then ``scans`` full scans, into ``out``.

    ``oracle`` maps each stored connection to its payload bytes in the
    warm-up scan.  The connections are shuffled by ``seed``; repetition
    ``rep`` of a run queries its own slice of them, so that the run's
    pooled sample covers more connections.  Sets ``out["query_s"]``,
    ``out["scan_s"]`` and ``out["scan_bytes"]`` and appends any failed
    check to ``out["failures"]``.
    """
    connections = sorted(oracle)
    random.Random(seed).shuffle(connections)
    first = rep * count % len(connections)
    chosen = (connections * (count // len(connections) + 2))[first:first + count]
    query_s: List[float] = []
    for connection in chosen:
        start = time.perf_counter()
        answer = query_one(connection)
        query_s.append(time.perf_counter() - start)
        out["attempted"] += 2  # the query and its output check
        got = answer_bytes(answer)
        if got != oracle[connection]:
            out["failures"].append(
                f"query {connection} returned {got} bytes, scan holds {oracle[connection]}"
            )
    total = sum(oracle.values())
    scan_s: List[float] = []
    for _ in range(scans):
        start = time.perf_counter()
        answer = scan_all()
        scan_s.append(time.perf_counter() - start)
        out["attempted"] += 1
        if answer_bytes(answer) != total:
            out["failures"].append("a repeated full scan changed size")
    out["query_s"] = query_s
    out["scan_s"] = scan_s
    out["scan_bytes"] = total
