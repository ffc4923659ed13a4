"""The on-disk segment format of the stream store (docs/STORE.md).

A *segment* is one append-only file of length-prefixed stream records.
Each record frame carries a CRC32 of its body and an optional
zlib-compression flag; a segment that has been cleanly finished is
*sealed* with a footer (record count, time range, payload bytes, its
own CRC, and a trailing magic) so readers can verify completeness
without rescanning.  A segment whose writer died mid-append has a
*torn tail*: recovery replays frames from the front and stops at the
first frame whose length or CRC does not check out, so every record
written before the tear survives and only the torn frame is lost —
the same contract as a write-ahead log.  A point query skips the scan
and reads single frames at offsets the index recorded
(:func:`read_frames`), with the same checks on each frame.

Layout::

    header   "SCAPSEG\\x01" + u32 core + u32 reserved        (16 bytes)
    frame    u32 body_len | u32 crc32(body) | u8 flags | body
    footer   u32 0xFFFFFFFF | u32 crc32(fbody) | fbody | "SCAPEND\\x01"
             fbody = u64 records | f64 first_ts | f64 last_ts
                     | u64 payload_bytes                      (32 bytes)

``flags`` bit 0 marks a zlib-compressed body.  ``body_len`` is capped
at 2^31-1, so the footer sentinel can never be mistaken for a record.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple

from ..netstack.flows import FiveTuple

__all__ = [
    "SEGMENT_MAGIC",
    "FOOTER_MAGIC",
    "StreamRecord",
    "SegmentInfo",
    "SegmentWriter",
    "read_segment",
    "read_frames",
    "scan_records",
]

SEGMENT_MAGIC = b"SCAPSEG\x01"
FOOTER_MAGIC = b"SCAPEND\x01"

_HEADER = struct.Struct("!8sII")
_FRAME = struct.Struct("!IIB")
_BODY = struct.Struct("!IHIHBBdQH")  # five-tuple, direction, ts, offset, priority
_FOOTER_BODY = struct.Struct("!QddQ")
_FOOTER_SENTINEL = 0xFFFFFFFF
_FLAG_ZLIB = 0x01
_MAX_BODY = (1 << 31) - 1


@dataclass
class StreamRecord:
    """One recorded piece of a stream direction: identity + payload.

    ``five_tuple`` is the *directional* tuple (source = the sender of
    these bytes); ``direction`` says which side of the connection that
    is (0 = client-to-server), so the client-perspective tuple can
    always be reconstructed.  ``stream_offset`` positions ``data``
    inside the reassembled stream, ``timestamp`` is the simulated
    capture time of the delivery, ``priority`` is the stream's PPL
    priority at record time (retention evicts low priorities first).
    """

    five_tuple: FiveTuple
    direction: int
    stream_offset: int
    timestamp: float
    data: bytes
    priority: int = 0

    @property
    def client_tuple(self) -> FiveTuple:
        """The connection's five-tuple from the client's perspective."""
        return self.five_tuple if self.direction == 0 else self.five_tuple.reversed()

    def encode(self) -> bytes:
        """Serialize to the (uncompressed) frame body."""
        ft = self.five_tuple
        return (
            _BODY.pack(
                ft.src_ip,
                ft.src_port,
                ft.dst_ip,
                ft.dst_port,
                ft.protocol,
                self.direction,
                self.timestamp,
                self.stream_offset,
                self.priority,
            )
            + self.data
        )

    @classmethod
    def decode(cls, body: bytes) -> "StreamRecord":
        """Parse a frame body back into a record."""
        (
            src_ip,
            src_port,
            dst_ip,
            dst_port,
            protocol,
            direction,
            timestamp,
            stream_offset,
            priority,
        ) = _BODY.unpack_from(body)
        return cls(
            five_tuple=FiveTuple(src_ip, src_port, dst_ip, dst_port, protocol),
            direction=direction,
            stream_offset=stream_offset,
            timestamp=timestamp,
            data=body[_BODY.size :],
            priority=priority,
        )


@dataclass
class SegmentInfo:
    """What a scan (or a seal) learned about one segment file."""

    path: str
    core: int = 0
    sealed: bool = False
    record_count: int = 0
    payload_bytes: int = 0
    disk_bytes: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0
    #: Bytes of torn tail discarded by recovery (0 for clean segments).
    torn_bytes: int = 0
    #: (file_offset, frame_bytes) of every recovered record, in order.
    frames: List[Tuple[int, int]] = field(default_factory=list)


class SegmentWriter:
    """Appends records to one segment file; ``seal`` finishes it.

    The writer owns the file handle; ``append`` returns the frame's
    file offset so the index can point straight at it.  ``fsync=True``
    makes every append durable individually (slow, used by tests that
    model crash points); otherwise data is flushed on seal/close.
    """

    def __init__(
        self,
        path: str,
        core: int = 0,
        compress: bool = False,
        fsync: bool = False,
    ):
        self.path = path
        self.core = core
        self.compress = compress
        self.fsync = fsync
        self.record_count = 0
        self.payload_bytes = 0
        self.compressed_saved = 0
        self.first_ts = 0.0
        self.last_ts = 0.0
        self._file: Optional[BinaryIO] = open(path, "wb")
        self._file.write(_HEADER.pack(SEGMENT_MAGIC, core, 0))
        self._offset = _HEADER.size

    @property
    def disk_bytes(self) -> int:
        """Bytes written to the file so far (header + frames)."""
        return self._offset

    @property
    def closed(self) -> bool:
        """True once the writer was sealed or closed."""
        return self._file is None

    def append(self, record: StreamRecord) -> int:
        """Write one record frame; return its file offset."""
        if self._file is None:
            raise ValueError(f"segment {self.path} is closed")
        body = record.encode()
        flags = 0
        if self.compress:
            packed = zlib.compress(body, 6)
            if len(packed) < len(body):
                self.compressed_saved += len(body) - len(packed)
                body = packed
                flags |= _FLAG_ZLIB
        if len(body) > _MAX_BODY:
            raise ValueError(f"record body too large: {len(body)} bytes")
        offset = self._offset
        frame = _FRAME.pack(len(body), zlib.crc32(body), flags) + body
        self._file.write(frame)
        if self.fsync:
            self._file.flush()
            os.fsync(self._file.fileno())
        self._offset += len(frame)
        if self.record_count == 0:
            self.first_ts = record.timestamp
        self.last_ts = max(self.last_ts, record.timestamp)
        self.record_count += 1
        self.payload_bytes += len(record.data)
        return offset

    def seal(self) -> SegmentInfo:
        """Write the footer, fsync, close; return the segment's info."""
        if self._file is None:
            raise ValueError(f"segment {self.path} is closed")
        fbody = _FOOTER_BODY.pack(
            self.record_count, self.first_ts, self.last_ts, self.payload_bytes
        )
        self._file.write(
            struct.pack("!II", _FOOTER_SENTINEL, zlib.crc32(fbody)) + fbody + FOOTER_MAGIC
        )
        self._offset += 8 + len(fbody) + len(FOOTER_MAGIC)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        return SegmentInfo(
            path=self.path,
            core=self.core,
            sealed=True,
            record_count=self.record_count,
            payload_bytes=self.payload_bytes,
            disk_bytes=self._offset,
            first_ts=self.first_ts,
            last_ts=self.last_ts,
        )

    def close(self) -> None:
        """Close without sealing (leaves a recoverable, unsealed file)."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None


def scan_records(path: str) -> Iterator[Tuple[int, StreamRecord]]:
    """Yield ``(file_offset, record)`` for every intact record.

    Tolerates truncation anywhere: a frame whose header is short, whose
    body is short, or whose CRC mismatches ends the scan — everything
    before it is returned.  A sealed footer also ends the scan cleanly.
    """
    for offset, record in _scan(path)[0]:
        yield offset, record


def _scan(path: str) -> Tuple[List[Tuple[int, StreamRecord]], SegmentInfo]:
    """Scan one segment; return its records and a SegmentInfo."""
    info = SegmentInfo(path=path)
    records: List[Tuple[int, StreamRecord]] = []
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            info.torn_bytes = len(header)
            return records, info
        magic, core, _reserved = _HEADER.unpack(header)
        if magic != SEGMENT_MAGIC:
            raise ValueError(f"{path}: not a scap segment (bad magic)")
        info.core = core
        position = _HEADER.size
        while True:
            frame_header = handle.read(_FRAME.size)
            if len(frame_header) < _FRAME.size:
                info.torn_bytes = size - position
                break
            body_len, crc, flags = _FRAME.unpack(frame_header)
            if body_len == _FOOTER_SENTINEL:
                # _FRAME reads one byte past the footer's length+crc pair;
                # that byte is the first byte of the footer body.
                rest = handle.read(_FOOTER_BODY.size - 1 + len(FOOTER_MAGIC))
                fbody = bytes([flags]) + rest[: _FOOTER_BODY.size - 1]
                tail = rest[_FOOTER_BODY.size - 1 :]
                if (
                    len(rest) == _FOOTER_BODY.size - 1 + len(FOOTER_MAGIC)
                    and tail == FOOTER_MAGIC
                    and zlib.crc32(fbody) == crc
                ):
                    count, first_ts, last_ts, payload = _FOOTER_BODY.unpack(fbody)
                    if count == len(records):
                        info.sealed = True
                        info.first_ts = first_ts
                        info.last_ts = last_ts
                        position = size
                        break
                info.torn_bytes = size - position
                break
            body = handle.read(body_len)
            if len(body) < body_len or zlib.crc32(body) != crc:
                info.torn_bytes = size - position
                break
            if flags & _FLAG_ZLIB:
                body = zlib.decompress(body)
            record = StreamRecord.decode(body)
            records.append((position, record))
            info.frames.append((position, _FRAME.size + body_len))
            info.payload_bytes += len(record.data)
            if info.record_count == 0:
                info.first_ts = record.timestamp
            info.last_ts = max(info.last_ts, record.timestamp)
            info.record_count += 1
            position += _FRAME.size + body_len
    info.disk_bytes = size
    return records, info


def read_frames(path: str, offsets: Iterable[int]) -> List[Tuple[int, StreamRecord]]:
    """Read only the frames at ``offsets``; return ``(offset, record)`` pairs.

    Each frame is reached by a seek, and its body must pass the same
    checks as in a scan (complete, CRC-matching, decompressed when
    flagged) before it is decoded.  A frame that fails them is left
    out; the other requested frames are still returned, in the order
    of ``offsets``.
    """
    out: List[Tuple[int, StreamRecord]] = []
    with open(path, "rb") as handle:
        for offset in offsets:
            handle.seek(offset)
            frame_header = handle.read(_FRAME.size)
            if len(frame_header) < _FRAME.size:
                continue
            body_len, crc, flags = _FRAME.unpack(frame_header)
            if body_len > _MAX_BODY:
                continue
            body = handle.read(body_len)
            if len(body) < body_len or zlib.crc32(body) != crc:
                continue
            if flags & _FLAG_ZLIB:
                try:
                    body = zlib.decompress(body)
                except zlib.error:
                    continue
            out.append((offset, StreamRecord.decode(body)))
    return out


def read_segment(path: str) -> Tuple[List[StreamRecord], SegmentInfo]:
    """Recover a segment: all intact records plus what the scan learned.

    Works on sealed and torn segments alike; ``info.sealed`` says which
    it was and ``info.torn_bytes`` how much tail (if any) was discarded.
    """
    pairs, info = _scan(path)
    return [record for _, record in pairs], info
