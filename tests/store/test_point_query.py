"""Differential: an indexed point query equals its slice of the full scan.

A five-tuple query is answered from the tuple index plus a CRC-checked
read of each matched frame; a full scan reads every segment front to
back.  For every stored connection the two must agree on every field
of every stream (bytes, order, timestamps, ``base_offset``,
``gap_bytes``), across compression, segment sizes small enough that
flows span segments, time bounds, compaction, and reopen.  A frame
damaged on disk must never contribute bytes to a point query.
"""

import shutil

import pytest

from repro import scap_create, scap_set_cutoff, scap_set_store, scap_start_capture
from repro.apps import StreamRecorder
from repro.store import ClassQuota, RetentionPolicy, StreamStore, read_segment
from repro.traffic import campus_mix

SMALL_SEGMENT = 8 * 1024

CONFIGS = {
    "plain": dict(compress=False),
    "compressed": dict(compress=True),
    "plain-small-segments": dict(compress=False, segment_bytes=SMALL_SEGMENT),
    "compressed-small-segments": dict(compress=True, segment_bytes=SMALL_SEGMENT),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def pristine(request, tmp_path_factory):
    """A recorded campus capture per store config: (directory, config)."""
    config = CONFIGS[request.param]
    directory = str(tmp_path_factory.mktemp(f"pq-{request.param}"))
    store = StreamStore(directory, cores=2, **config)
    sc = scap_create(campus_mix(flow_count=30, seed=11), 64 << 20, rate_bps=2e9)
    scap_set_cutoff(sc, 24 * 1024)
    scap_set_store(sc, StreamRecorder(store))
    scap_start_capture(sc)
    store.close()
    return directory, config


@pytest.fixture
def store_copy(pristine, tmp_path):
    """A private copy of the pristine store, for tests that change it."""
    directory, config = pristine
    target = str(tmp_path / "store")
    shutil.copytree(directory, target)
    return target, config


def _by_connection(streams):
    grouped = {}
    for stream in streams:
        grouped.setdefault(stream.client_tuple, []).append(stream)
    return grouped


def _assert_point_queries_match_scan(store, start_ts=None, end_ts=None):
    """Every connection's point query equals its streams in the scan."""
    scanned = _by_connection(store.query(start_ts=start_ts, end_ts=end_ts).streams)
    connections = store.connections()
    assert connections
    for connection in connections:
        expected = scanned.get(connection, [])
        assert store.query(connection, start_ts, end_ts).streams == expected, connection
        reverse = store.query(connection.reversed(), start_ts, end_ts).streams
        assert reverse == expected, connection
    return scanned


class TestPointQueryEqualsScan:
    def test_every_connection(self, pristine):
        directory, config = pristine
        store = StreamStore(directory, **config)
        scanned = _assert_point_queries_match_scan(store)
        assert sum(len(s.data) for streams in scanned.values() for s in streams) > 0
        if "segment_bytes" in config:
            # Small segments must really split flows across files.
            spans = {}
            for segment in store.index.segments.values():
                for meta in segment.records:
                    spans.setdefault(meta.client_tuple, set()).add(segment.path)
            assert max(len(paths) for paths in spans.values()) > 1
        store.close(enforce_retention=False)

    def test_time_bounds(self, pristine):
        directory, config = pristine
        store = StreamStore(directory, **config)
        stamps = sorted(
            meta.timestamp
            for segment in store.index.segments.values()
            for meta in segment.records
        )
        low, high = stamps[len(stamps) // 4], stamps[3 * len(stamps) // 4]
        for start_ts, end_ts in ((low, high), (low, None), (None, high), (high, high)):
            _assert_point_queries_match_scan(store, start_ts, end_ts)
        store.close(enforce_retention=False)

    def test_after_compaction_eviction(self, store_copy):
        directory, config = store_copy
        store = StreamStore(directory, **config)
        stored = store.stats().stored_bytes
        policy = RetentionPolicy(
            class_quotas=[ClassQuota(expression="tcp", max_bytes=stored // 2)]
        )
        store.close(enforce_retention=False)
        store = StreamStore(directory, retention=policy, **config)
        report = store.enforce_retention()
        assert report.segments_compacted > 0 and report.evicted_records > 0
        _assert_point_queries_match_scan(store)
        store.close(enforce_retention=False)

    def test_after_reopen(self, pristine):
        directory, config = pristine
        first = StreamStore(directory, **config)
        answers = {conn: first.query(conn).streams for conn in first.connections()}
        first.close(enforce_retention=False)
        reopened = StreamStore(directory, **config)
        assert {conn: reopened.query(conn).streams for conn in reopened.connections()} == (
            answers
        )
        _assert_point_queries_match_scan(reopened)
        reopened.close(enforce_retention=False)


class TestDamagedFrame:
    @pytest.mark.parametrize("where", ["length", "crc", "flags", "body"])
    def test_damaged_frame_bytes_never_returned(self, store_copy, tmp_path, where):
        directory, config = store_copy
        store = StreamStore(directory, **config)
        # The deepest record of the connection with the most records.
        connection = max(
            store.connections(), key=lambda conn: len(list(store.index.lookup(conn)))
        )
        victim_segment, victim = max(
            store.index.lookup(connection), key=lambda pair: pair[1].stream_offset
        )
        before = store.query(connection).streams

        # Oracle: the same records rewritten without the victim.
        oracle = StreamStore(str(tmp_path / "oracle"), **config)
        for path in sorted(
            store.index.segments, key=lambda path: (store.index.segments[path].info.first_ts, path)
        ):
            records, info = read_segment(path)
            for (offset, _size), record in zip(info.frames, records):
                if (path, offset) != (victim_segment.path, victim.file_offset):
                    oracle.append(record)
        oracle.flush()
        expected = oracle.query(connection).streams
        oracle.close(enforce_retention=False)
        assert expected != before

        # Frame layout: u32 length | u32 crc | u8 flags | body.  The
        # flags byte is flipped in its zlib bit, which the CRC misses.
        position, mask = {
            "length": (1, 0x5A), "crc": (5, 0x5A), "flags": (8, 0x01), "body": (20, 0x5A)
        }[where]
        position += victim.file_offset
        with open(victim_segment.path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ mask]))

        assert store.query(connection).streams == expected
        assert store.query(connection.reversed()).streams == expected
        store.close(enforce_retention=False)
