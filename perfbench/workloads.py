"""The two library-mode workloads: inputs, socket set-up, output checks.

Both replay a ``campus_mix`` trace of the same size through
``ScapSocket`` with ``StreamDeliveryApp`` attached.  ``campus-delivery``
delivers every byte (no cutoff, ample memory); ``cutoff-overload``
discards most packets at the NIC (FDIR), at the cutoff, or by PPL under
tight memory.  See README.md for why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import ScapSocket
from repro.observability import Observability
from repro.results import RunResult
from repro.traffic import campus_mix

GBIT = 1e9
FLOWS = 4000
MAX_FLOW_BYTES = 2_000_000
#: The minority priority-1 class of ``fig09``: interactive and mail ports.
PRIORITY_PORTS = frozenset({22, 25, 110})


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    #: Added to ``--seed`` so the two workloads never share a trace.
    seed_offset: int
    rate_gbps: float
    #: Stream memory as a share of wire bytes, or a fixed size in bytes.
    memory_share: Optional[float] = None
    memory_bytes: Optional[int] = None
    cutoff: Optional[int] = None
    overload_cutoff: Optional[int] = None
    use_fdir: bool = False
    priorities: bool = False
    observability: bool = False


WORKLOADS: Dict[str, LibraryWorkload] = {
    "campus-delivery": LibraryWorkload(
        name="campus-delivery",
        seed_offset=0,
        rate_gbps=4.0,
        memory_share=0.10,
    ),
    "cutoff-overload": LibraryWorkload(
        name="cutoff-overload",
        seed_offset=1_000_003,
        rate_gbps=7.0,
        # Between 1 MiB (PPL drops dominate) and 2 MiB (no drops at all):
        # FDIR discards (~10-15%) and PPL drops (~50%) are both substantial
        # here, and steady across seeds, unlike the cliff just below 2 MiB.
        memory_bytes=1_310_720,  # 1.25 MiB
        cutoff=16 * 1024,
        overload_cutoff=8 * 1024,
        use_fdir=True,
        priorities=True,
        observability=True,
    ),
}


def build_trace(workload: LibraryWorkload, seed: int):
    """The workload's input, generated from the run's seed alone."""
    return campus_mix(
        flow_count=FLOWS,
        seed=seed + workload.seed_offset,
        max_flow_bytes=MAX_FLOW_BYTES,
    )


def build_socket(workload: LibraryWorkload, trace) -> tuple:
    """A configured socket and its attached ``StreamDeliveryApp``."""
    if workload.memory_bytes is not None:
        memory = workload.memory_bytes
    else:
        memory = int(trace.total_wire_bytes * workload.memory_share)
    kwargs: Dict[str, Any] = {}
    if workload.observability:
        kwargs["observability"] = Observability(enabled=True)
    socket = ScapSocket(
        trace, rate_bps=workload.rate_gbps * GBIT, memory_size=memory, **kwargs
    )
    socket.config.use_fdir = workload.use_fdir
    if workload.cutoff is not None:
        socket.set_cutoff(workload.cutoff)
    if workload.overload_cutoff is not None:
        socket.set_parameter("overload_cutoff", workload.overload_cutoff)
    app = StreamDeliveryApp()
    attach_app(socket, app)
    if workload.priorities:

        def on_creation(stream) -> None:
            ports = {stream.five_tuple.src_port, stream.five_tuple.dst_port}
            if ports & PRIORITY_PORTS:
                socket.set_stream_priority(stream, 1)
            app.on_stream_created(stream.five_tuple)

        socket.dispatch_creation(
            on_creation, cost=lambda event: app.creation_cost_cycles()
        )
    return socket, app


def fingerprint(result: RunResult) -> Dict[str, Any]:
    """The simulated outcome: deterministic per seed, checked, not gated."""
    return {
        "offered_packets": result.offered_packets,
        "offered_bytes": result.offered_bytes,
        "delivered_bytes": result.delivered_bytes,
        "delivered_events": result.delivered_events,
        "dropped_packets": result.dropped_packets,
        "discarded_packets": result.discarded_packets,
        "nic_filter_drops": result.nic_filter_drops,
        "drops_by_priority": {str(k): v for k, v in sorted(result.drops_by_priority.items())},
        "streams_created": result.streams_created,
    }


def check_outputs(
    workload: LibraryWorkload, trace, socket: ScapSocket, app: StreamDeliveryApp,
    result: RunResult,
) -> List[str]:
    """Failed output checks of one capture (empty when all pass)."""
    failures: List[str] = []
    delivered = sum(app.bytes_per_stream.values())
    if delivered != result.delivered_bytes:
        failures.append(
            f"app received {delivered} bytes, capture delivered {result.delivered_bytes}"
        )
    if workload.name == "campus-delivery":
        if result.dropped_packets:
            failures.append(f"{result.dropped_packets} unintentional drops")
        lost = len(trace.flows) - result.streams_created
        if lost:
            failures.append(f"streams_lost={lost}")
    else:
        limit = workload.cutoff + socket.config.chunk_size
        over = [n for n in app.bytes_per_stream.values() if n > limit]
        if over:
            failures.append(f"{len(over)} streams delivered more than cutoff + one chunk")
        low, high = result.priority_drop_rate(0), result.priority_drop_rate(1)
        if high > low:
            failures.append(f"priority-1 drop share {high:.3f} > priority-0 {low:.3f}")
        if not result.dropped_packets or not result.nic_filter_drops:
            failures.append("overload produced no PPL drops or no FDIR discards")
    return failures
