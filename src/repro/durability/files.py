"""Fault-injectable file primitives shared by the WAL and checkpoints.

Every byte the durability layer persists goes through this module, so
the disk fault points (``disk.write.torn``, ``disk.read.short``,
``disk.fsync``) are injected in exactly one place and behave the same
for WAL segments and checkpoint blobs.

The *seal* format is the PR 4 batch seal applied to files: a payload is
framed as ``[length: u32][crc32: u32][payload]`` (little-endian,
CRC32 over the payload). A frame whose CRC or length does not match is
either a torn tail (expected after a crash mid-write — truncated) or
corruption (a :class:`~repro.errors.RecoveryError` when it sits where
an atomically-committed artifact must be intact).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO

from repro.errors import DurabilityError, RecoveryError
from repro.faults import NULL_INJECTOR, FaultInjector

_FRAME = struct.Struct("<II")  # (payload_length, crc32)
FRAME_SIZE = _FRAME.size


def seal(payload: bytes) -> bytes:
    """Frame ``payload`` with its length and CRC32 seal."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def unseal(raw: bytes, *, what: str) -> bytes:
    """Unframe one sealed blob; raises :class:`RecoveryError` if the
    frame is short or the CRC drifted (``what`` names the artifact)."""
    if len(raw) < FRAME_SIZE:
        raise RecoveryError(f"{what}: sealed blob shorter than its frame")
    length, crc = _FRAME.unpack_from(raw, 0)
    payload = raw[FRAME_SIZE : FRAME_SIZE + length]
    if len(payload) != length:
        raise RecoveryError(f"{what}: sealed blob truncated mid-payload")
    if zlib.crc32(payload) != crc:
        raise RecoveryError(f"{what}: CRC seal mismatch")
    return payload


def write_all(
    fh: BinaryIO, data: bytes, injector: FaultInjector = NULL_INJECTOR
) -> None:
    """Write ``data`` through the torn-write fault point.

    When ``disk.write.torn`` fires, a strict prefix of the bytes is
    flushed to disk and :class:`~repro.errors.SimulatedCrash` is raised
    — modelling the process dying mid-``write(2)``. The torn bytes stay
    on disk, exactly as after a real crash.
    """
    if injector.should_fire("disk.write.torn"):
        # Cut inside the data so replay sees a genuinely torn record;
        # the cut point is a keyed draw of its own, so a failing run
        # replays exactly.
        cut = injector.choose("disk.write.torn", range(1, max(2, len(data))))
        fh.write(data[:cut])
        fh.flush()
        from repro.errors import SimulatedCrash

        raise SimulatedCrash("disk.write.torn")
    fh.write(data)
    fh.flush()


def maybe_fsync(
    fh: BinaryIO, injector: FaultInjector = NULL_INJECTOR, enabled: bool = True
) -> None:
    """``fsync`` the handle through the fsync fault point."""
    if injector.should_fire("disk.fsync"):
        raise DurabilityError("injected fsync failure")
    if enabled:
        os.fsync(fh.fileno())


def read_bytes(path: Path, injector: FaultInjector = NULL_INJECTOR) -> bytes:
    """Read a whole file through the short-read fault point.

    A short read is *transient* (the syscall returned fewer bytes than
    requested): it raises :class:`DurabilityError` so the caller
    retries, rather than returning truncated data that replay would
    mistake for a torn tail and destroy committed records over.
    """
    if injector.should_fire("disk.read.short"):
        raise DurabilityError(f"injected short read on {path.name}")
    return path.read_bytes()


def read_bytes_retry(
    path: Path, injector: FaultInjector = NULL_INJECTOR, attempts: int = 5
) -> bytes:
    """Read with bounded retries over transient short reads."""
    last: DurabilityError | None = None
    for _ in range(max(1, attempts)):
        try:
            return read_bytes(path, injector)
        except DurabilityError as exc:
            last = exc
    assert last is not None
    raise last


def fsync_dir(path: Path) -> None:
    """Flush directory metadata (entry renames) to disk; best-effort on
    platforms that refuse to open directories."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes) -> None:
    """Write a small file atomically: temp sibling, fsync, rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)
