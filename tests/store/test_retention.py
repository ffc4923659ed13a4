"""Retention: age, per-class quotas, global bytes, tail-first eviction."""

import os

from repro.netstack import FiveTuple, IPProtocol
from repro.store import ClassQuota, RetentionPolicy, StreamRecord, StreamStore


def _record(port=80, offset=0, ts=0.0, size=100, priority=0, src_port=1000):
    return StreamRecord(
        five_tuple=FiveTuple(10, src_port, 20, port, IPProtocol.TCP),
        direction=0,
        stream_offset=offset,
        timestamp=ts,
        data=b"z" * size,
        priority=priority,
    )


def _store(tmp_path, **kwargs):
    kwargs.setdefault("segment_bytes", 2000)
    return StreamStore(str(tmp_path), **kwargs)


class TestMaxAge:
    def test_old_segments_deleted_whole(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_age=10.0))
        for n in range(8):
            store.append(_record(ts=1.0, src_port=1000 + n))
        store.flush()  # seals segment 1 (all old records)
        for n in range(8):
            store.append(_record(ts=100.0, src_port=2000 + n))
        store.flush()
        report = store.enforce_retention(now_ts=100.0)
        assert report.segments_deleted >= 1
        assert report.evicted_records == 8
        stats = store.close(enforce_retention=False)
        assert stats.record_count == 8  # only the recent segment remains
        assert all(
            meta.timestamp == 100.0
            for segment in store.index.segments.values()
            for meta in segment.records
        )

    def test_recent_segments_survive(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_age=50.0))
        for n in range(4):
            store.append(_record(ts=90.0, src_port=1000 + n))
        store.flush()
        report = store.enforce_retention(now_ts=100.0)
        assert report.evicted_records == 0


class TestMaxBytes:
    def test_tails_evicted_before_heads(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=800))
        # One long stream recorded as head + deep tail pieces.
        for n in range(8):
            store.append(_record(offset=n * 100, ts=float(n)))
        store.flush()
        store.enforce_retention()
        survivors = [
            meta.stream_offset
            for segment in store.index.segments.values()
            for meta in segment.records
        ]
        assert survivors  # head survives
        assert min(survivors) == 0
        # Whatever was evicted came from the deep end of the stream.
        assert max(survivors) < 700
        stats = store.close(enforce_retention=False)
        assert stats.disk_bytes <= 800
        assert stats.evicted_records > 0

    def test_under_budget_untouched(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=1 << 20))
        for n in range(5):
            store.append(_record(offset=n * 100))
        store.flush()
        report = store.enforce_retention()
        assert report.evicted_records == 0
        assert report.segments_deleted == 0


class TestClassQuotas:
    def test_only_matching_class_shrinks(self, tmp_path):
        policy = RetentionPolicy(
            class_quotas=[ClassQuota(expression="port 80", max_bytes=300)]
        )
        store = _store(tmp_path, retention=policy)
        for n in range(6):
            store.append(_record(port=80, offset=n * 100, src_port=1111))
        for n in range(6):
            store.append(_record(port=25, offset=n * 100, src_port=2222))
        store.flush()
        store.enforce_retention()
        web = store.query(FiveTuple(10, 1111, 20, 80, IPProtocol.TCP))
        mail = store.query(FiveTuple(10, 2222, 20, 25, IPProtocol.TCP))
        assert sum(len(s.data) for s in web.streams) <= 300
        assert sum(len(s.data) for s in mail.streams) == 600  # untouched
        # Tail-first inside the class: the web stream still has its head.
        assert web.streams and web.streams[0].base_offset == 0
        store.close(enforce_retention=False)

    def test_low_priority_evicted_before_high_at_same_depth(self, tmp_path):
        policy = RetentionPolicy(
            class_quotas=[ClassQuota(expression="port 80", max_bytes=100)]
        )
        store = _store(tmp_path, retention=policy)
        store.append(_record(port=80, offset=0, priority=0, src_port=1111))
        store.append(_record(port=80, offset=0, priority=9, src_port=2222))
        store.flush()
        store.enforce_retention()
        survivors = [
            meta.priority
            for segment in store.index.segments.values()
            for meta in segment.records
        ]
        assert survivors == [9]


class TestCompaction:
    def test_compacted_segment_still_queryable_and_recoverable(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=900))
        for n in range(8):
            store.append(_record(offset=n * 100, ts=float(n)))
        store.flush()
        store.enforce_retention()
        before = store.query()
        store.close(enforce_retention=False)
        # Reopen: the compacted, resealed segment must scan cleanly.
        reopened = StreamStore(str(tmp_path))
        after = reopened.query()
        assert [s.data for s in after.streams] == [s.data for s in before.streams]
        reopened.close()

    def test_compaction_never_grows_a_compressed_segment(self, tmp_path):
        # 50 compressible 4 KB records; a quota one record short evicts
        # exactly the deepest one, so the rewrite must come out smaller.
        policy = RetentionPolicy(
            class_quotas=[ClassQuota(expression="port 80", max_bytes=49 * 4096)]
        )
        store = _store(tmp_path, segment_bytes=1 << 20, compress=True, retention=policy)
        for n in range(50):
            store.append(_record(offset=n * 4096, ts=float(n), size=4096))
        store.flush()
        (path,) = store.index.segments
        before = os.path.getsize(path)
        report = store.enforce_retention()
        assert report.segments_compacted == 1 and report.evicted_records == 1
        after = os.path.getsize(path)
        assert after < before
        assert store.index.disk_bytes == after
        assert sum(len(s.data) for s in store.query().streams) == 49 * 4096
        store.close(enforce_retention=False)
