"""Tests for the public Scap API (Table 1 semantics)."""

import gc
import weakref

import pytest

from repro.core import (
    SCAP_TCP_FAST,
    Parameter,
    ScapSocket,
    register_device,
    scap_close,
    scap_create,
    scap_dispatch_data,
    scap_dispatch_termination,
    scap_get_stats,
    scap_next_stream_packet,
    scap_set_cutoff,
    scap_start_capture,
)
from repro.core.packet_delivery import ScapPacketHeader
from repro.traffic import campus_mix


@pytest.fixture(scope="module")
def trace():
    return campus_mix(flow_count=40, seed=21)


def _socket(trace, **kwargs):
    kwargs.setdefault("rate_bps", 1e9)
    kwargs.setdefault("memory_size", 1 << 22)
    return ScapSocket(trace, **kwargs)


class TestPaperListings:
    def test_flow_statistics_listing(self, trace):
        """§3.3.1 translated line by line."""
        records = []

        def stream_close(sd):
            records.append(
                (sd.hdr.src_ip, sd.hdr.dst_ip, sd.hdr.src_port, sd.hdr.dst_port,
                 sd.stats.bytes, sd.stats.pkts, sd.stats.start, sd.stats.end)
            )

        sc = scap_create(trace, 0, SCAP_TCP_FAST, 0, rate_bps=1e9)
        scap_set_cutoff(sc, 0)
        scap_dispatch_termination(sc, stream_close)
        scap_start_capture(sc)
        assert len(records) == 2 * len(trace.flows)
        assert all(r[5] > 0 for r in records if r[4] > 0)

    def test_pattern_matching_listing(self, trace):
        """§3.3.2 structure: data callback sees chunk bytes."""
        seen = []
        sc = scap_create(trace, 1 << 22, SCAP_TCP_FAST, 0, rate_bps=1e9)
        scap_dispatch_data(sc, lambda sd: seen.append((sd.data_len, bytes(sd.data[:4]))))
        scap_start_capture(sc)
        assert seen and all(length == len(b"") or length > 0 for length, _ in seen)
        total = sum(length for length, _ in seen)
        assert total == sum(f.total_bytes for f in trace.flows)


class TestConfiguration:
    def test_parameters(self, trace):
        sc = _socket(trace)
        sc.set_parameter(Parameter.CHUNK_SIZE, 1024)
        sc.set_parameter(Parameter.INACTIVITY_TIMEOUT, 30.0)
        sc.set_parameter(Parameter.FLUSH_TIMEOUT, 0.5)
        sc.set_parameter(Parameter.BASE_THRESHOLD, 0.7)
        sc.set_parameter(Parameter.OVERLOAD_CUTOFF, 4096)
        assert sc.config.chunk_size == 1024
        assert sc.config.flush_timeout == 0.5
        with pytest.raises(ValueError):
            sc.set_parameter("bogus", 1)

    def test_bad_filter_rejected(self, trace):
        sc = _socket(trace)
        with pytest.raises(ValueError):
            sc.set_filter("port banana")

    def test_config_frozen_after_start(self, trace):
        sc = _socket(trace)
        sc.start_capture()
        with pytest.raises(RuntimeError):
            sc.set_cutoff(10)
        with pytest.raises(RuntimeError):
            sc.start_capture()

    def test_close(self, trace):
        sc = _socket(trace)
        scap_close(sc)
        with pytest.raises(RuntimeError):
            sc.start_capture()

    def test_worker_thread_validation(self, trace):
        sc = _socket(trace)
        with pytest.raises(ValueError):
            sc.set_worker_threads(0)

    def test_device_registry(self, trace):
        register_device("eth-test", trace, 2e9)
        sc = scap_create("eth-test", memory_size=1 << 22)
        assert sc._rate == 2e9
        with pytest.raises(ValueError):
            scap_create("missing-device")

    def test_rate_required_for_plain_workload(self):
        class Lazy:  # no native_rate_bps
            def replay(self, rate):
                return iter(())

        with pytest.raises(ValueError):
            ScapSocket(Lazy())


class TestFilteringAndStats:
    def test_bpf_filter_limits_streams(self, trace):
        counted = set()
        sc = _socket(trace)
        sc.set_filter("tcp port 80")
        sc.dispatch_data(lambda sd: counted.add(sd.five_tuple.canonical()))
        sc.start_capture()
        web_flows = {
            f.five_tuple.canonical()
            for f in trace.flows
            if 80 in (f.five_tuple.src_port, f.five_tuple.dst_port)
        }
        assert counted and counted <= web_flows

    def test_get_stats(self, trace):
        sc = _socket(trace)
        assert scap_get_stats(sc).pkts_received == 0  # before capture
        sc.start_capture()
        stats = scap_get_stats(sc)
        assert stats.pkts_received > 0
        assert stats.streams_seen == len(trace.flows)
        assert stats.bytes_delivered == sum(f.total_bytes for f in trace.flows)
        assert stats.pkts_dropped == 0


class TestPerStreamOperations:
    def test_discard_stream_stops_data(self, trace):
        received = {}

        sc = _socket(trace)

        def on_data(sd):
            received[sd.stream_id] = received.get(sd.stream_id, 0) + sd.data_len
            sc.discard_stream(sd)

        sc.set_parameter(Parameter.CHUNK_SIZE, 512)
        sc.dispatch_data(on_data)
        sc.start_capture()
        # After the first chunk each stream is discarded: at most ~two
        # chunks can slip in (one already assembled), never the full
        # multi-chunk stream.
        assert received
        assert max(received.values()) <= 3 * 512

    def test_set_stream_cutoff_dynamic(self, trace):
        sc = _socket(trace)
        seen = {}

        def on_creation(sd):
            sc.set_stream_cutoff(sd, 256)
            if sd.opposite is not None:
                sc.set_stream_cutoff(sd.opposite, 256)

        def on_data(sd):
            # UDP's first datagram races the creation callback (as in
            # the real system); assert on TCP streams, whose creation
            # event comes from the payload-less SYN.
            if sd.protocol == 6:
                seen[sd.stream_id] = seen.get(sd.stream_id, 0) + sd.data_len

        sc.dispatch_creation(on_creation)
        sc.dispatch_data(on_data)
        sc.start_capture()
        assert seen and max(seen.values()) <= 256

    def test_set_stream_priority_propagates(self, trace):
        sc = _socket(trace)

        def on_creation(sd):
            sc.set_stream_priority(sd, 2)
            assert sd.opposite.priority == 2

        sc.dispatch_creation(on_creation)
        sc.start_capture()
        assert sc.runtime.kernel.ppl.priority_levels == 3

    def test_stream_parameter_chunk_size(self, trace):
        lengths = []
        sc = _socket(trace)

        def on_creation(sd):
            sc.set_stream_parameter(sd, Parameter.CHUNK_SIZE, 128)
            sc.set_stream_parameter(sd.opposite, Parameter.CHUNK_SIZE, 128)

        sc.dispatch_creation(on_creation)
        sc.dispatch_data(
            lambda sd: lengths.append(sd.data_len) if sd.protocol == 6 else None
        )
        sc.start_capture()
        assert lengths and max(lengths) <= 128

    def test_invalid_priority(self, trace):
        sc = _socket(trace)
        from repro.core import StreamDescriptor
        from repro.netstack import FiveTuple

        stream = StreamDescriptor(FiveTuple(1, 2, 3, 4, 6), 0, 6)
        with pytest.raises(ValueError):
            sc.set_stream_priority(stream, -1)
        with pytest.raises(ValueError):
            sc.set_stream_cutoff(stream, -5)


class TestKeepChunk:
    def test_keep_merges_next_delivery(self, trace):
        sc = _socket(trace)
        sc.set_parameter(Parameter.CHUNK_SIZE, 256)
        kept_once = set()
        growing = []

        def on_data(sd):
            if sd.stream_id not in kept_once and sd.data_len == 256:
                kept_once.add(sd.stream_id)
                sc.keep_stream_chunk(sd)
            elif sd.stream_id in kept_once and sd.data_len > 256:
                growing.append(sd.data_len)

        sc.dispatch_data(on_data)
        sc.start_capture()
        assert growing, "a kept chunk should reappear merged into a larger one"
        assert all(length > 256 for length in growing)

    def test_keep_outside_callback_rejected(self, trace):
        sc = _socket(trace)
        sc.start_capture()
        from repro.core import StreamDescriptor
        from repro.netstack import FiveTuple

        stream = StreamDescriptor(FiveTuple(1, 2, 3, 4, 6), 0, 6)
        with pytest.raises(RuntimeError):
            sc.keep_stream_chunk(stream)


class TestPacketDelivery:
    def test_packets_delivered_in_order(self, trace):
        sc = _socket(trace, need_pkts=1)
        payloads = {}

        def on_data(sd):
            header = ScapPacketHeader()
            while True:
                payload = scap_next_stream_packet(sd, header)
                if payload is None:
                    break
                payloads.setdefault(sd.stream_id, []).append(
                    (header.timestamp, payload)
                )

        sc.dispatch_data(on_data)
        sc.start_capture()
        assert payloads
        for entries in payloads.values():
            times = [t for t, _ in entries]
            assert times == sorted(times)  # captured order
        total = sum(len(p) for entries in payloads.values() for _, p in entries)
        # Records include duplicates/retransmissions (delivered in
        # captured order, §5.7) but omit segments buffered out of order,
        # so the sum tracks the ground truth closely on either side.
        ground_truth = sum(
            f.total_bytes for f in trace.flows if f.protocol == 6
        )
        assert total >= 0.97 * ground_truth


def _prioritizing_socket(source):
    # As in the daemon: the creation callback closes over the socket.
    sc = _socket(source)
    sc.dispatch_creation(lambda sd: sc.set_stream_priority(sd, 1))
    return sc


class TestLifecycle:
    def test_trace_freed_after_capture_without_cycle_collection(self):
        """A callback closing over the socket makes the socket cyclic
        garbage; the trace it replayed must still be freed as soon as
        the caller drops it, not at the next full collection."""
        source = campus_mix(flow_count=5, seed=3)
        alive = weakref.ref(source)
        sc = _prioritizing_socket(source)
        gc.disable()
        try:
            sc.start_capture()
            del source, sc
            assert alive() is None
        finally:
            gc.enable()
