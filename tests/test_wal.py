"""The per-tenant write-ahead log: records, segments, torn tails."""

import os
from pathlib import Path

import pytest

from repro.service.wal import (
    WriteAheadLog,
    decode_record,
    encode_record,
    wal_dir,
)


def test_record_round_trips_and_detects_damage():
    line = encode_record(7, '{"a": "b c"}')
    assert line.endswith(b"\n")
    assert decode_record(line[:-1]) == (7, '{"a": "b c"}')
    flipped = line[:-3] + b"X" + line[-2:]
    for damaged in (flipped, line[:-5], b"", b"zzzzzzzz 1 x"):
        assert decode_record(damaged.rstrip(b"\n")) is None


def test_replay_orders_by_position_and_skips_covered(tmp_path):
    wal = WriteAheadLog(wal_dir(str(tmp_path), "slot"))
    # Concurrent uploads may append out of position order.
    wal.append([(3, "c"), (4, "d")])
    wal.append([(1, "a"), (2, "b")])
    again = WriteAheadLog(wal.directory)
    assert again.replay(after=0) == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
    assert again.replay(after=2) == [(3, "c"), (4, "d")]


def test_torn_tail_is_dropped_and_cut_off(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append([(1, "kept")])
    wal.append([(2, "torn")])
    (segment,) = os.listdir(wal.directory)
    path = os.path.join(wal.directory, segment)
    os.truncate(path, os.path.getsize(path) - 3)
    again = WriteAheadLog(wal.directory)
    assert again.replay(after=0) == [(1, "kept")]
    # The tail is cut, so a second boot finds nothing torn, and new
    # appends go to a fresh segment.
    assert Path(path).read_bytes() == encode_record(1, "kept")
    again.append([(3, "next")])
    assert WriteAheadLog(wal.directory).replay(after=0) == [
        (1, "kept"), (3, "next"),
    ]


def test_rotate_then_drop_retires_only_older_segments(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append([(1, "old")])
    boundary = wal.rotate()
    wal.append([(2, "new")])
    assert len(os.listdir(wal.directory)) == 2
    wal.drop_before(boundary)
    assert wal.bytes == len(encode_record(2, "new"))
    assert WriteAheadLog(wal.directory).replay(after=0) == [(2, "new")]


def test_failed_append_abandons_its_segment(tmp_path, monkeypatch):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append([(1, "kept")])

    def failing_fsync(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        wal.append([(2, "unacknowledged")])
    monkeypatch.undo()
    # The failed append may have left only part of its record behind.
    (segment,) = os.listdir(wal.directory)
    path = os.path.join(wal.directory, segment)
    kept = len(encode_record(1, "kept"))
    os.truncate(path, kept + 5)
    # A later append must not land behind that partial record.
    wal.append([(3, "next")])
    assert WriteAheadLog(wal.directory).replay(after=0) == [
        (1, "kept"), (3, "next"),
    ]
