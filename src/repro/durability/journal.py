"""Durable-write primitives and a CRC-framed append-only journal.

Two things live here because they share one discipline — *what is on disk
after a crash must be either the old state or the new state, never a
mixture*:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — the
  write-to-temporary / fsync / rename / fsync-the-directory sequence that
  every durable JSON or pickle artifact in the system (store manifests,
  watch state, specification repositories, incremental caches) now goes
  through.  The rename makes the swap atomic against crashes; the two
  fsyncs make it survive power loss, which a bare ``os.replace`` does not.
* :class:`JournalWriter` / :func:`read_frames` — an append-only journal of
  opaque payloads, each framed as ``<length, crc32>`` + payload.  A reader
  stops at the first frame whose length overruns the file or whose CRC
  does not match: a crash mid-append *tears the tail*, it never corrupts
  the prefix, and the writer truncates the torn tail away on reopen.

The checkpoint layer (:mod:`repro.durability.checkpoint`) builds its
mining journal on these frames; the framing itself is payload-agnostic.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import List, Tuple, Union

from ..obs import metrics as obs_metrics
from ..testing import faults

PathLike = Union[str, Path]

#: Frame header: payload byte length, CRC-32 of the payload.
FRAME_HEADER = struct.Struct("<II")
#: A :class:`JournalWriter` fsyncs after this many appends (and on close).
FSYNC_INTERVAL = 8


def fsync_file(handle) -> None:
    """Flush ``handle`` and force its bytes to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(path: PathLike) -> None:
    """fsync a directory so a rename inside it survives power loss.

    Best-effort: platforms that cannot open a directory for reading (or
    filesystems that refuse to fsync one) degrade to the plain-rename
    durability we had before, never to an error.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically and durably.

    The temporary lives next to the target (``<name>.tmp`` in the same
    directory, hence the same filesystem) so the final ``os.replace`` is
    atomic; it is fsynced before the rename and the directory after, so a
    crash at any point leaves either the complete old file or the complete
    new one.
    """
    target = Path(path)
    temporary = target.with_name(target.name + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(data)
        fsync_file(handle)
    os.replace(temporary, target)
    fsync_dir(target.parent)


def atomic_write_text(path: PathLike, text: str) -> None:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def read_frames(path: PathLike) -> Tuple[List[bytes], int]:
    """Read every intact frame of a journal file.

    Returns ``(payloads, valid_length)`` where ``valid_length`` is the
    byte offset just past the last intact frame.  Reading stops — without
    raising — at the first torn frame: a header that overruns the file, a
    payload shorter than its header promises, or a CRC mismatch.  A
    missing file is an empty journal.
    """
    payloads: List[bytes] = []
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return payloads, 0
    offset = 0
    valid = 0
    total = len(raw)
    while offset + FRAME_HEADER.size <= total:
        length, crc = FRAME_HEADER.unpack_from(raw, offset)
        start = offset + FRAME_HEADER.size
        end = start + length
        if end > total:
            break
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset = end
        valid = end
    return payloads, valid


class JournalWriter:
    """Append CRC-framed payloads to a journal file.

    Opening the writer truncates any torn tail left by a previous crash
    (everything past the last intact frame), so appends always extend a
    clean prefix.  Every append is flushed to the OS immediately — an
    appended frame survives the *process* dying right after
    :meth:`append` returns — and fsynced every :data:`FSYNC_INTERVAL`
    appends and on :meth:`close`, bounding what power loss can take to a
    tail the CRC framing already recovers from.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        existing, valid = read_frames(self.path)
        self._handle = open(self.path, "r+b" if self.path.exists() else "w+b")
        self._handle.seek(valid)
        self._handle.truncate()
        #: Number of frames committed so far (intact frames found on open
        #: plus frames appended since) — also the fault key of the next
        #: append, so tests can target "the Nth journal write".
        self.entries = len(existing)
        self._since_fsync = 0

    def append(self, payload: bytes) -> None:
        """Append one frame; visible to :func:`read_frames` on return."""
        header = FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
        self._handle.write(header)
        self._handle.flush()
        if faults.ACTIVE is not None:
            # Chaos hook: a crash between the frame header and its payload
            # leaves exactly the torn tail readers must stop at and the
            # next open must truncate.  Keyed by the entry index.
            faults.trigger("checkpoint.append", key=str(self.entries))
        self._handle.write(payload)
        self._handle.flush()
        self._since_fsync += 1
        if self._since_fsync >= FSYNC_INTERVAL:
            os.fsync(self._handle.fileno())
            self._since_fsync = 0
            obs_metrics.DURABILITY_JOURNAL_FSYNCS_TOTAL.inc()
        self.entries += 1
        obs_metrics.DURABILITY_JOURNAL_APPENDS_TOTAL.inc()
        if faults.ACTIVE is not None:
            # Chaos hook after the flush: the frame is fully in the OS, so
            # a kill here must leave a journal that replays including it.
            faults.trigger("checkpoint.commit", key=str(self.entries - 1))

    def close(self) -> None:
        if self._handle.closed:
            return
        try:
            fsync_file(self._handle)
            obs_metrics.DURABILITY_JOURNAL_FSYNCS_TOTAL.inc()
        finally:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
