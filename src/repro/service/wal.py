"""Per-tenant write-ahead log: the daemon's durable ingest record.

A full checkpoint re-serializes a tenant's whole aggregator state, so
paying one per upload makes each ``POST /profiles`` cost what the
tenant has accumulated.  The daemon instead appends the lines an
upload changed to the tenant's append-only log — one write and one
``fsync`` per tenant per request, before it answers — and checkpoints
only when the log has outgrown the last checkpoint.  On boot it
restores the checkpoint and replays the records past the position the
checkpoint covers.

**Positions.**  Every record carries the *position* its line took when
it was folded (a per-tenant counter, assigned under the tenant lock),
not its byte offset: appends of concurrent uploads may land out of
position order, and a checkpoint covers exactly the lines folded
before it.  Replay sorts by position and skips covered records.

**Segments.**  The log is a directory of numbered segment files.  A
checkpoint rotates the log (:meth:`~WriteAheadLog.rotate`) under the
tenant lock, so every record in an older segment was folded before
the checkpoint's state was taken; once the checkpoint is durable,
:meth:`~WriteAheadLog.drop_before` deletes those segments.  A failed
append abandons its segment, so a partial record only ever sits at
the tail of one.

**Record format.**  One line per record,
``<crc32 hex:8> <position> <line bytes>\\n``, the CRC over everything
after it.  A profile line never contains a newline (uploads are split
on them), so a record that is cut short or damaged fails its check, is
dropped and counted (``service.agg.wal.torn``): a crash cut that
append short, so no upload was acknowledged for it.

WAL directories live under the artifact store root, beside the
entries :meth:`~repro.service.artifacts.ArtifactStore.entries` lists,
so store GC never sees them.
"""

from __future__ import annotations

import logging
import os
import threading
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.trace_cache import fsync_dir
from repro.obs import inc, span

logger = logging.getLogger(__name__)

#: Directory under the store root holding one log per checkpoint slot.
WAL_DIRNAME = "wal"

_SUFFIX = ".log"


def wal_dir(store_root: str, slot: str) -> str:
    """The log directory of the tenant checkpointing into ``slot``."""
    return os.path.join(store_root, WAL_DIRNAME, slot)


def encode_record(position: int, text: str) -> bytes:
    body = b"%d %s" % (position, text.encode())
    return b"%08x %s\n" % (zlib.crc32(body), body)


def decode_record(line: bytes) -> Optional[Tuple[int, str]]:
    """``(position, text)`` of one record line, ``None`` if damaged."""
    body = line[9:]
    try:
        if line[8:9] != b" " or int(line[:8], 16) != zlib.crc32(body):
            return None
        position, text = body.split(b" ", 1)
        return int(position), text.decode()
    except ValueError:
        return None


class WriteAheadLog:
    """One tenant's append-only, fsync'd, segmented line log."""

    def __init__(self, directory: str):
        self.directory = os.path.abspath(directory)
        #: Guards the segment bookkeeping; never held across I/O.
        self._lock = threading.Lock()
        #: Serializes appends: one writer at a time.
        self._io_lock = threading.Lock()
        #: segment number -> bytes on disk, for every live segment.
        self._sizes: Dict[int, int] = {}
        for name in self._names():
            try:
                size = os.path.getsize(os.path.join(self.directory, name))
            except OSError:
                continue
            self._sizes[int(name[: -len(_SUFFIX)])] = size
        #: Segment the next append writes (a fresh one after boot, so
        #: no append ever follows a replayed tail).
        self._segment = max(self._sizes, default=0) + 1

    def _names(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            name for name in names
            if name.endswith(_SUFFIX) and name[: -len(_SUFFIX)].isdigit()
        )

    def _path(self, segment: int) -> str:
        return os.path.join(self.directory, f"{segment:08d}{_SUFFIX}")

    @property
    def bytes(self) -> int:
        """Bytes in live segments: the log a checkpoint has not retired."""
        with self._lock:
            return sum(self._sizes.values())

    # -- boot --------------------------------------------------------

    def replay(self, after: int) -> List[Tuple[int, str]]:
        """Records past position ``after``, in position order.

        Damaged records are dropped and counted; a damaged tail is cut
        off its segment so a second boot does not count it again.
        """
        records: List[Tuple[int, str]] = []
        torn = 0
        with span("agg.wal.replay") as entry:
            for name in self._names():
                path = os.path.join(self.directory, name)
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError as exc:
                    logger.warning("wal: unreadable segment %s (%s)",
                                   path, exc)
                    continue
                lines = data.split(b"\n")
                tail = lines.pop()
                for line in lines:
                    record = decode_record(line)
                    if record is None:
                        torn += 1
                    elif record[0] > after:
                        records.append(record)
                if tail:
                    torn += 1
                    try:
                        os.truncate(path, len(data) - len(tail))
                    except OSError:
                        pass
            records.sort(key=lambda record: record[0])
            if entry is not None:
                entry.attributes.update(records=len(records), torn=torn)
        if torn:
            inc("service.agg.wal.torn", torn)
            logger.warning("wal: dropped %d torn record(s) in %s",
                           torn, self.directory)
        if records:
            inc("service.agg.wal.replayed", len(records))
        return records

    # -- append ------------------------------------------------------

    def append(self, records: Sequence[Tuple[int, str]]) -> int:
        """Write ``(position, text)`` records in one write + one fsync.

        Returns the bytes appended.  Raises ``OSError`` when the
        records may not be durable; the segment is then abandoned.
        """
        payload = b"".join(encode_record(p, text) for p, text in records)
        with span("agg.wal.append", lines=len(records),
                  bytes=len(payload)):
            with self._io_lock:
                with self._lock:
                    segment = self._segment
                    created = segment not in self._sizes
                    self._sizes.setdefault(segment, 0)
                try:
                    if created and not os.path.isdir(self.directory):
                        # <store>/wal/<slot>: make both new entries
                        # durable.
                        os.makedirs(self.directory, exist_ok=True)
                        parent = os.path.dirname(self.directory)
                        fsync_dir(parent)
                        fsync_dir(os.path.dirname(parent))
                    with open(self._path(segment), "ab") as handle:
                        handle.write(payload)
                        handle.flush()
                        os.fsync(handle.fileno())
                    if created:
                        fsync_dir(self.directory)
                except OSError:
                    # Never write after a possibly partial record.
                    with self._lock:
                        if self._segment == segment:
                            self._segment += 1
                    raise
            with self._lock:
                if segment in self._sizes:
                    self._sizes[segment] += len(payload)
        inc("service.agg.wal.appends")
        inc("service.agg.wal.bytes", len(payload))
        return len(payload)

    # -- checkpoint --------------------------------------------------

    def rotate(self) -> int:
        """Send later appends to a new segment; returns its number.

        Call under the tenant lock while taking the checkpoint's
        state: every record in a segment below the returned number was
        folded before that state.
        """
        with self._lock:
            self._segment += 1
            return self._segment

    def drop_before(self, segment: int) -> None:
        """Delete segments below ``segment`` (a durable checkpoint now
        covers them).  The deletions need no fsync: a segment that
        comes back after power loss holds only covered records, which
        replay skips."""
        with self._lock:
            retired = [n for n in self._sizes if n < segment]
            for number in retired:
                del self._sizes[number]
        for number in retired:
            try:
                os.unlink(self._path(number))
            except FileNotFoundError:
                pass
            except OSError as exc:
                logger.warning("wal: could not delete %s (%s)",
                               self._path(number), exc)


__all__ = [
    "WAL_DIRNAME",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
    "wal_dir",
]
