"""In-memory index over the store's segments, rebuilt by scanning.

The index is *derived* state: opening a store directory scans every
``seg-*.scap`` file with the truncation-tolerant reader, so recovery
after a crash and a normal open are the same code path.  Per record we
keep a small :class:`RecordMeta` (identity, time, offset into both the
stream and the file) grouped per segment, plus a map from canonical
five-tuple to that connection's records, so a point query touches only
its own entries and queries never touch disk until they need payload
bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..netstack.flows import FiveTuple
from .segment import SegmentInfo, read_segment

__all__ = ["RecordMeta", "SegmentMeta", "StoreIndex"]


@dataclass
class RecordMeta:
    """Index entry for one stored record (payload stays on disk)."""

    five_tuple: FiveTuple
    direction: int
    stream_offset: int
    timestamp: float
    length: int
    priority: int
    file_offset: int

    @property
    def client_tuple(self) -> FiveTuple:
        """The connection's five-tuple from the client's perspective."""
        return self.five_tuple if self.direction == 0 else self.five_tuple.reversed()


@dataclass
class SegmentMeta:
    """One segment file plus the metadata of every record inside it."""

    info: SegmentInfo
    records: List[RecordMeta] = field(default_factory=list)

    @property
    def path(self) -> str:
        """Path of the segment file."""
        return self.info.path

    @property
    def payload_bytes(self) -> int:
        """Live payload bytes indexed in this segment."""
        return sum(record.length for record in self.records)


class StoreIndex:
    """Lookup structure over all indexed segments of one store.

    Mutated only by the store under its lock (`` # scapcheck: single-owner ``
    applies to callers); supports add/remove of whole segments (sealing,
    retention, and remove-then-re-add after a compaction rewrite).
    """

    def __init__(self):
        self.segments: Dict[str, SegmentMeta] = {}
        #: Canonical five-tuple -> ``(segment, record)`` of every record of
        #: that connection, so a point query never walks other records.
        self._by_tuple: Dict[
            Tuple[int, int, int, int, int], List[Tuple[SegmentMeta, RecordMeta]]
        ] = {}

    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Total records indexed across all segments."""
        return sum(len(segment.records) for segment in self.segments.values())

    @property
    def payload_bytes(self) -> int:
        """Total live payload bytes indexed across all segments."""
        return sum(segment.payload_bytes for segment in self.segments.values())

    @property
    def disk_bytes(self) -> int:
        """Total on-disk bytes of all indexed segment files."""
        return sum(segment.info.disk_bytes for segment in self.segments.values())

    # ------------------------------------------------------------------
    def scan_directory(self, directory: str) -> List[SegmentMeta]:
        """(Re)build the index from every segment file in ``directory``."""
        self.segments.clear()
        self._by_tuple.clear()
        added = []
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("seg-") and name.endswith(".scap")):
                continue
            added.append(self.add_segment_file(os.path.join(directory, name)))
        return added

    def add_segment_file(self, path: str) -> SegmentMeta:
        """Scan one segment file and index everything recoverable.

        The one indexing path: sealing, compaction and recovery all
        re-read the file, so the index only ever holds what is on disk.
        """
        records, info = read_segment(path)
        segment = SegmentMeta(info=info)
        for (offset, _length), record in zip(info.frames, records):
            meta = RecordMeta(
                five_tuple=record.five_tuple,
                direction=record.direction,
                stream_offset=record.stream_offset,
                timestamp=record.timestamp,
                length=len(record.data),
                priority=record.priority,
                file_offset=offset,
            )
            segment.records.append(meta)
            self._by_tuple.setdefault(self._key(meta.client_tuple), []).append(
                (segment, meta)
            )
        self.segments[path] = segment
        return segment

    def remove_segment(self, path: str) -> Optional[SegmentMeta]:
        """Drop one segment (and its records) from the index."""
        segment = self.segments.pop(path, None)
        if segment is None:
            return None
        for key in {self._key(meta.client_tuple) for meta in segment.records}:
            bucket = [entry for entry in self._by_tuple.get(key, []) if entry[0] is not segment]
            if bucket:
                self._by_tuple[key] = bucket
            else:
                self._by_tuple.pop(key, None)
        return segment

    # ------------------------------------------------------------------
    @staticmethod
    def _key(five_tuple: FiveTuple) -> Tuple[int, int, int, int, int]:
        canonical = five_tuple.canonical()
        return (
            canonical.src_ip,
            canonical.src_port,
            canonical.dst_ip,
            canonical.dst_port,
            canonical.protocol,
        )

    def lookup(
        self,
        five_tuple: Optional[FiveTuple] = None,
        start_ts: Optional[float] = None,
        end_ts: Optional[float] = None,
    ) -> Iterator[Tuple[SegmentMeta, RecordMeta]]:
        """Yield ``(segment, record)`` matches for a tuple/time query.

        ``five_tuple`` matches either direction of the connection and is
        answered from the tuple map alone; ``start_ts``/``end_ts`` bound
        the record timestamp inclusively.  With no arguments, everything
        is yielded.  Either way matches come segment by segment in
        ``(first_ts, path)`` order, in file order within a segment.
        """
        if five_tuple is None:
            for segment in self._segments_in_time_order():
                if _segment_in_range(segment.info, start_ts, end_ts):
                    for meta in segment.records:
                        if _in_range(meta.timestamp, start_ts, end_ts):
                            yield segment, meta
            return
        entries = sorted(
            self._by_tuple.get(self._key(five_tuple), ()),
            key=lambda entry: (entry[0].info.first_ts, entry[0].path, entry[1].file_offset),
        )
        for segment, meta in entries:
            if _segment_in_range(segment.info, start_ts, end_ts) and _in_range(
                meta.timestamp, start_ts, end_ts
            ):
                yield segment, meta

    def _segments_in_time_order(self) -> List[SegmentMeta]:
        return sorted(
            self.segments.values(),
            key=lambda segment: (segment.info.first_ts, segment.info.path),
        )

    def connections(self) -> List[FiveTuple]:
        """All distinct connections stored, as client-perspective tuples."""
        seen: Dict[Tuple[int, int, int, int, int], FiveTuple] = {}
        for segment in self._segments_in_time_order():
            for meta in segment.records:
                key = self._key(meta.client_tuple)
                if key not in seen:
                    seen[key] = meta.client_tuple
        return list(seen.values())


def _segment_in_range(
    info: SegmentInfo, start_ts: Optional[float], end_ts: Optional[float]
) -> bool:
    """False if a non-empty segment's time span misses the bounds."""
    if not info.record_count:
        return True
    if start_ts is not None and info.last_ts < start_ts:
        return False
    return end_ts is None or info.first_ts <= end_ts


def _in_range(timestamp: float, start_ts: Optional[float], end_ts: Optional[float]) -> bool:
    """True if ``timestamp`` lies inside the inclusive bounds."""
    return (start_ts is None or timestamp >= start_ts) and (
        end_ts is None or timestamp <= end_ts
    )
