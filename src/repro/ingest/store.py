"""An append-only on-disk store of compactly encoded traces.

A :class:`TraceStore` is a directory holding two files:

* ``traces.bin`` — every trace ever appended, concatenated.  Each trace is
  a tiny binary record (name, event count, then the interned event ids as
  little-endian 32-bit ints), so a million-event corpus is a few megabytes
  and decoding is one ``struct.unpack`` per trace;
* ``manifest.json`` — the interned label vocabulary plus one entry per
  appended batch: byte offset and length inside ``traces.bin``, trace and
  event counts, the batch's distinct event ids (what the incremental miner
  uses to decide which first-level roots a batch can possibly touch), and a
  chained SHA-256 content fingerprint.

Appends are batch-granular and atomic at the manifest level: the payload is
appended to the data file and fsynced first, then the manifest is replaced
atomically and durably (write temporary, fsync, rename, fsync the
directory — :func:`repro.durability.journal.atomic_write_text`), so a
crash between the two leaves a manifest that simply does not know about
the trailing bytes (and :meth:`TraceStore.open` tolerates exactly that).
Nothing is ever rewritten in place — the store is the durable substrate
under streaming ingestion and incremental mining, and its fingerprint
history is how downstream artifacts (specification repositories, benchmark
records) say *which* corpus they were computed from.

The one sanctioned rewrite is :meth:`TraceStore.compact`
(:mod:`repro.durability.compact`): batches tombstoned by
:meth:`TraceStore.mark_deleted` are dropped, unreferenced vocabulary
labels garbage-collected, and the store re-rooted into a fresh fingerprint
lineage whose manifest records ``compacted_from`` — the provenance link
that tells caches and checkpoints their state belongs to the old lineage.
:mod:`repro.durability.fsck` is the auditor that re-verifies all of the
above on demand (``repro fsck``).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.errors import DataFormatError
from ..core.events import EventId, EventVocabulary
from ..core.sequence import SequenceDatabase
from ..durability.journal import atomic_write_text
from ..testing import faults
from .formats import EncodedTrace, TraceRecord, stream_traces

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
DATA_NAME = "traces.bin"
MANIFEST_VERSION = 1

_HEADER = struct.Struct("<II")  # name byte-length + 1 (0 = unnamed), event count


class BatchInfo(NamedTuple):
    """Manifest entry for one appended batch.

    ``source`` is optional ingest provenance (``{"path": ..., "sha256":
    ...}`` for file ingests) committed atomically with the batch — it is
    how a crashed multi-file ingest can be re-run without duplicating the
    files that already committed.  ``deleted`` is the tombstone set by
    :meth:`TraceStore.mark_deleted`; reads still include tombstoned
    batches until :meth:`TraceStore.compact` rewrites the store.
    """

    index: int
    offset: int
    nbytes: int
    traces: int
    events: int
    alphabet: Tuple[EventId, ...]
    fingerprint: str
    deleted: bool = False
    source: Optional[dict] = None

    def as_dict(self) -> dict:
        payload = {
            "index": self.index,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "traces": self.traces,
            "events": self.events,
            "alphabet": list(self.alphabet),
            "fingerprint": self.fingerprint,
        }
        if self.deleted:
            payload["deleted"] = True
        if self.source is not None:
            payload["source"] = dict(self.source)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "BatchInfo":
        return cls(
            index=int(payload["index"]),
            offset=int(payload["offset"]),
            nbytes=int(payload["nbytes"]),
            traces=int(payload["traces"]),
            events=int(payload["events"]),
            alphabet=tuple(int(event) for event in payload["alphabet"]),
            fingerprint=str(payload["fingerprint"]),
            deleted=bool(payload.get("deleted", False)),
            source=payload.get("source"),
        )


def _encode_trace(events: Sequence[EventId], name: Optional[str]) -> bytes:
    name_bytes = name.encode("utf-8") if name is not None else b""
    name_field = len(name_bytes) + 1 if name is not None else 0
    return (
        _HEADER.pack(name_field, len(events))
        + name_bytes
        + struct.pack(f"<{len(events)}i", *events)
    )


def _read_exact(handle, size: int, what: str) -> bytes:
    payload = handle.read(size)
    if len(payload) != size:
        raise DataFormatError(f"truncated {what} in store data file")
    return payload


def _decode_traces(handle, nbytes: int) -> Iterator[EncodedTrace]:
    """Decode one batch's traces from an open handle, one trace at a time.

    Reads exactly ``nbytes`` starting at the current position; memory is
    bounded by the longest single trace, never the batch.
    """
    consumed = 0
    while consumed < nbytes:
        header = _read_exact(handle, _HEADER.size, "trace record")
        name_field, count = _HEADER.unpack(header)
        consumed += _HEADER.size
        name: Optional[str] = None
        if name_field:
            name_len = name_field - 1
            name = _read_exact(handle, name_len, "trace name").decode("utf-8")
            consumed += name_len
        events = struct.unpack(
            f"<{count}i", _read_exact(handle, 4 * count, "trace events")
        )
        consumed += 4 * count
        yield EncodedTrace(events, name)
    if consumed != nbytes:
        raise DataFormatError("store batch payload does not align with its manifest entry")


class TraceStore:
    """Append-only trace storage with an interned vocabulary and a manifest.

    The constructor opens an existing store or (with ``create=True``, the
    default) initialises an empty one; :meth:`open` is the strict variant
    for "this must already exist" callers like the CLI.  Appends go through
    :meth:`append_batch` / :meth:`append_trace_file` and are atomic at the
    batch level — readers never observe half a batch.  Reads are either
    whole-corpus (:meth:`snapshot` decodes everything into a
    :class:`~repro.core.sequence.SequenceDatabase` for mining) or
    batch-granular (:meth:`iter_traces` with a start batch, plus
    :meth:`alphabet_since` — what incremental refresh uses to decide which
    roots an append can touch).  ``len(store)`` counts
    traces; :attr:`fingerprint` is the chained content hash of everything
    appended so far, quoted as provenance by specification repositories
    and the persisted incremental-mining cache.
    """

    def __init__(self, directory: PathLike, *, create: bool = True) -> None:
        self.directory = Path(directory)
        self.vocabulary = EventVocabulary()
        self.batches: List[BatchInfo] = []
        #: Name of the data file inside the directory.  ``traces.bin`` for
        #: generation 0; compaction writes a new generation-named file and
        #: repoints the manifest (see :mod:`repro.durability.compact`).
        self.data_file = DATA_NAME
        #: Incremented by every compaction; part of the new data file name.
        self.generation = 0
        #: The final fingerprint of the lineage this store was compacted
        #: from, or ``None`` for a never-compacted store.  Downstream
        #: caches treat a fingerprint from the old lineage as invalid,
        #: forcing one full re-mine after compaction.
        self.compacted_from: Optional[str] = None
        manifest = self.directory / MANIFEST_NAME
        if manifest.exists():
            self._load_manifest(manifest)
        elif create:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._save_manifest()
        else:
            raise DataFormatError(f"no trace store at {self.directory}")

    @classmethod
    def open(cls, directory: PathLike) -> "TraceStore":
        """Open an existing store; raise if the directory has no manifest."""
        return cls(directory, create=False)

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append_batch(
        self,
        traces: Iterable[Union[TraceRecord, EncodedTrace, Sequence]],
        *,
        source: Optional[dict] = None,
    ) -> Optional[BatchInfo]:
        """Append one batch of traces and return its manifest entry.

        Accepts label records (:class:`TraceRecord`, or any plain sequence
        of labels) — interned through the store vocabulary — and
        already-interned :class:`EncodedTrace` values, which must have been
        encoded against this store's vocabulary.  ``source`` is optional
        provenance recorded in the batch's manifest entry.

        The append is atomic at the batch level: the manifest is replaced
        only after the whole batch streamed to disk, so a source that
        raises mid-iteration — or a manifest replace that fails —
        commits nothing (partial bytes are torn trailing data the next
        append overwrites; interned labels and the in-memory batch list
        roll back).  A batch with no traces commits nothing either and
        returns ``None`` (see :meth:`append_batches`).
        """
        infos = self.append_batches([traces], source=source)
        return infos[0] if infos else None

    def append_batches(
        self,
        batches: Iterable[Iterable[Union[TraceRecord, EncodedTrace, Sequence]]],
        *,
        source: Optional[dict] = None,
    ) -> List[BatchInfo]:
        """Append several batches, committing the manifest once at the end.

        All-or-nothing across the whole iterable: if any batch (or the
        final manifest replace) fails, the in-memory state rolls back and
        the on-disk manifest is left untouched, so a re-run after fixing
        the input cannot duplicate the earlier batches.  Committing once
        also keeps a large chunked ingest linear — the manifest is not
        rewritten per chunk.  Batches that turn out empty are skipped
        entirely: a zero-trace append must not advance the content
        fingerprint (an identical corpus must fingerprint identically
        however it arrived).  ``source`` provenance, if given, is recorded
        on every batch of this call.
        """
        checkpoint = len(self.batches)
        vocabulary_checkpoint = len(self.vocabulary)
        infos: List[BatchInfo] = []
        try:
            for batch in batches:
                info = self._append_batch_unsaved(batch, source=source)
                if info.traces == 0:
                    self.batches.pop()
                    continue
                infos.append(info)
            self._save_manifest()
        except BaseException:
            del self.batches[checkpoint:]
            self.vocabulary.truncate(vocabulary_checkpoint)
            raise
        return infos

    def _append_batch_unsaved(
        self,
        traces: Iterable[Union[TraceRecord, EncodedTrace, Sequence]],
        *,
        source: Optional[dict] = None,
    ) -> BatchInfo:
        """Stream one batch to the data file; the caller saves the manifest."""
        if faults.ACTIVE is not None:
            # Chaos hook (tests/faults/): a full disk at the worst moment —
            # before any bytes land, so the batch rollback path is what the
            # injected ENOSPC exercises.
            faults.trigger("store.append")
        digest = hashlib.sha256()
        traces_count = 0
        events_count = 0
        nbytes = 0
        alphabet: set = set()
        offset = self._data_size()
        # Write at the *manifest* offset, not the physical end of file:
        # a torn earlier append (or a failed batch in this process) can
        # leave trailing bytes the manifest does not know about, and they
        # must be overwritten, never built upon.  Chunks stream straight
        # to disk with the content hash folded incrementally, so memory
        # stays bounded by the longest single trace.
        with open(self.data_path, "r+b" if self.data_path.exists() else "w+b") as handle:
            handle.seek(offset)
            for trace in traces:
                name: Optional[str] = None
                if isinstance(trace, EncodedTrace):
                    encoded = trace.events
                    name = trace.name
                    for event in encoded:
                        if not 0 <= event < len(self.vocabulary):
                            raise DataFormatError(
                                f"encoded trace uses unknown event id {event}"
                            )
                else:
                    if isinstance(trace, TraceRecord):
                        events, name = trace.events, trace.name
                    else:
                        events = trace
                    encoded = self.vocabulary.encode(events, register=True)
                chunk = _encode_trace(encoded, name)
                handle.write(chunk)
                digest.update(chunk)
                nbytes += len(chunk)
                traces_count += 1
                events_count += len(encoded)
                alphabet.update(encoded)
            handle.truncate()
            # The payload must be durable before any manifest names it:
            # otherwise a power loss after the (fsynced) manifest rename
            # could surface a manifest promising bytes the disk never got.
            handle.flush()
            os.fsync(handle.fileno())

        previous = self.batches[-1].fingerprint if self.batches else ""
        fingerprint = hashlib.sha256(
            previous.encode("ascii") + digest.digest()
        ).hexdigest()
        batch = BatchInfo(
            index=len(self.batches),
            offset=offset,
            nbytes=nbytes,
            traces=traces_count,
            events=events_count,
            alphabet=tuple(sorted(alphabet)),
            fingerprint=fingerprint,
            source=source,
        )
        self.batches.append(batch)
        return batch

    def discard_if_empty(self) -> bool:
        """Remove the store's files if nothing was ever committed.

        Best-effort cleanup for callers that created a store speculatively
        (the CLI, before its first ingest succeeds); returns whether the
        store was removed.  The directory itself is only removed when the
        store's own files were the only thing in it.
        """
        if self.batches:
            return False
        self.manifest_path.unlink(missing_ok=True)
        self.data_path.unlink(missing_ok=True)
        try:
            self.directory.rmdir()
        except OSError:
            pass
        return True

    def append_trace_file(
        self, path: PathLike, format: Optional[str] = None
    ) -> Optional[BatchInfo]:
        """Stream one trace file (any registered format, ``.gz`` included)
        into the store as a single batch.

        Atomic per file: a parse error anywhere in the file commits
        nothing (see :meth:`append_batch`), and neither does a file with
        no traces (the result is then ``None``)."""
        return self.append_batch(stream_traces(path, format=format))

    def has_source(self, source: dict) -> bool:
        """Whether any committed batch carries this ``source`` provenance.

        The ingest CLI's crash-resume check: a file whose identity already
        appears in the manifest was fully committed by an earlier run and
        must not be appended again.
        """
        return any(batch.source == source for batch in self.batches)

    # ------------------------------------------------------------------ #
    # Deletion and compaction
    # ------------------------------------------------------------------ #
    def mark_deleted(self, indices: Iterable[int]) -> int:
        """Tombstone batches for the next :meth:`compact`.

        Deletion is deliberately deferred: reads (and the fingerprint
        chain, and every cache keyed on it) still include tombstoned
        batches, so marking is cheap and safe at any time.  The space and
        the dead vocabulary labels are reclaimed by :meth:`compact`,
        which re-roots the lineage.  Returns how many batches changed
        state; unknown indices raise :class:`DataFormatError`.
        """
        targets = set(int(index) for index in indices)
        unknown = targets - {batch.index for batch in self.batches}
        if unknown:
            raise DataFormatError(
                f"cannot delete unknown batch indices {sorted(unknown)} "
                f"(store has {len(self.batches)} batches)"
            )
        changed = 0
        for position, batch in enumerate(self.batches):
            if batch.index in targets and not batch.deleted:
                self.batches[position] = batch._replace(deleted=True)
                changed += 1
        if changed:
            self._save_manifest()
        return changed

    def compact(self):
        """Rewrite the store dropping tombstoned batches and dead labels.

        Delegates to :func:`repro.durability.compact.compact_store`; see
        there for the crash-safety argument.  Returns a
        :class:`~repro.durability.compact.CompactionReport`.
        """
        from ..durability.compact import compact_store

        return compact_store(self)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def iter_traces(
        self, start_batch: int = 0, stop_batch: Optional[int] = None
    ) -> Iterator[EncodedTrace]:
        """Yield the encoded traces of batches ``[start_batch, stop_batch)``."""
        selected = self.batches[start_batch:stop_batch]
        if not selected:
            return
        with open(self.data_path, "rb") as handle:
            for batch in selected:
                handle.seek(batch.offset)
                yield from _decode_traces(handle, batch.nbytes)

    def snapshot(self, stop_batch: Optional[int] = None) -> SequenceDatabase:
        """Materialise batches ``[0, stop_batch)`` as a mining database.

        The snapshot owns a *copy* of the vocabulary, so interning more
        labels into either side never desynchronises the other; ids agree
        by construction because the vocabulary is append-only.
        """
        database = SequenceDatabase(EventVocabulary(self.vocabulary.labels()))
        for trace in self.iter_traces(stop_batch=stop_batch):
            database.add_encoded(trace.events, name=trace.name)
        return database

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(batch.traces for batch in self.batches)

    def total_events(self) -> int:
        """Total number of events across every appended batch."""
        return sum(batch.events for batch in self.batches)

    @property
    def fingerprint(self) -> str:
        """The chained content fingerprint of everything appended so far."""
        return self.batches[-1].fingerprint if self.batches else ""

    def alphabet_since(self, start_batch: int) -> Tuple[EventId, ...]:
        """Distinct event ids appearing in batches ``[start_batch, ...)``.

        This is the incremental miner's damage report: a first-level root
        absent from this set cannot have gained support or changed its
        subtree's output.
        """
        events: set = set()
        for batch in self.batches[start_batch:]:
            events.update(batch.alphabet)
        return tuple(sorted(events))

    def describe(self) -> dict:
        """A small statistics dictionary for reports and the CLI."""
        return {
            "directory": str(self.directory),
            "batches": len(self.batches),
            "deleted_batches": sum(1 for batch in self.batches if batch.deleted),
            "traces": len(self),
            "events": self.total_events(),
            "distinct_events": len(self.vocabulary),
            "bytes": self._data_size(),
            "generation": self.generation,
            "fingerprint": self.fingerprint,
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @property
    def data_path(self) -> Path:
        return self.directory / self.data_file

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _data_size(self) -> int:
        if not self.batches:
            return 0
        last = self.batches[-1]
        return last.offset + last.nbytes

    def _load_manifest(self, manifest: Path) -> None:
        try:
            payload = json.loads(manifest.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise DataFormatError(f"invalid store manifest {manifest}: {error}") from error
        if not isinstance(payload, dict) or payload.get("version") != MANIFEST_VERSION:
            raise DataFormatError(f"unsupported store manifest version in {manifest}")
        self.vocabulary = EventVocabulary(payload.get("labels", []))
        self.batches = [BatchInfo.from_dict(entry) for entry in payload.get("batches", [])]
        self.data_file = str(payload.get("data_file", DATA_NAME))
        self.generation = int(payload.get("generation", 0))
        self.compacted_from = payload.get("compacted_from")
        expected = self._data_size()
        actual = self.data_path.stat().st_size if self.data_path.exists() else 0
        # Trailing bytes beyond the manifest are a torn append and ignored;
        # fewer bytes than the manifest promises is real corruption.
        if actual < expected:
            raise DataFormatError(
                f"store data file {self.data_path} is {actual} bytes, "
                f"manifest expects at least {expected}"
            )

    def _save_manifest(self) -> None:
        if faults.ACTIVE is not None:
            # Chaos hook (tests/faults/): the manifest replace failing or
            # the process dying between the data append and the commit.
            # Keyed by the batch count being committed, so tests can
            # target "the commit after the Nth batch".
            faults.trigger("store.manifest", key=str(len(self.batches)))
        payload = {
            "version": MANIFEST_VERSION,
            "labels": list(self.vocabulary.labels()),
            "batches": [batch.as_dict() for batch in self.batches],
        }
        if self.data_file != DATA_NAME:
            payload["data_file"] = self.data_file
        if self.generation:
            payload["generation"] = self.generation
        if self.compacted_from is not None:
            payload["compacted_from"] = self.compacted_from
        atomic_write_text(self.manifest_path, json.dumps(payload, indent=2) + "\n")
