"""Streaming trace format adapters.

The historical readers in :mod:`repro.traces.io` materialise a whole
:class:`~repro.core.sequence.SequenceDatabase` from one file.  This module
is the streaming replacement underneath them: every format is exposed as a
:class:`FormatAdapter` whose reader *yields* :class:`TraceRecord` values one
trace at a time from an open text handle, so arbitrarily large trace files
are parsed with memory bounded by the longest single trace (the CSV reader
additionally keeps a set of finished trace ids to catch non-contiguous
files loudly — see :func:`read_csv_stream`).  The adapters
are registered in a small registry keyed by format name; ``.gz``-wrapped
variants of every format are handled transparently by the path layer
(``traces.jsonl.gz`` is the ``jsonl`` format behind a gzip codec).

Three line-oriented formats ship by default, with exactly the grammar the
batch readers historically accepted:

* **text** — one event label per line, blank line between traces, optional
  ``# name`` comment naming the following trace;
* **jsonl** — one JSON object per line: ``{"name": ..., "events": [...]}``;
* **csv** — ``trace_id,position,event`` rows with a header.  Rows of one
  trace must be contiguous (the layout every writer produces); a trace id
  that reappears after its run ended is a loud :class:`DataFormatError`
  rather than a silent reorder, because a streaming reader cannot sort the
  whole file.

On top of the per-trace streams, :func:`stream_encoded_traces` interns the
labels through an :class:`~repro.core.events.EventVocabulary` so that
downstream consumers (the :class:`~repro.ingest.store.TraceStore`, the
miners) only ever see small integer ids, and :func:`stream_batches` chunks
any stream into bounded-size lists for batched appends.
"""

from __future__ import annotations

import csv
import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from ..core.errors import DataFormatError
from ..core.events import EventId, EventVocabulary
from . import DEFAULT_BATCH_SIZE

PathLike = Union[str, Path]


class TraceRecord(NamedTuple):
    """One trace as it crosses the streaming layer: labels plus a name."""

    events: Tuple[str, ...]
    name: Optional[str] = None


#: A streaming reader: yields one :class:`TraceRecord` per trace.
TraceReader = Callable[[TextIO], Iterator[TraceRecord]]
#: A streaming writer: consumes records, returns how many were written.
TraceWriter = Callable[[TextIO, Iterable[TraceRecord]], int]


@dataclass(frozen=True)
class FormatAdapter:
    """A named trace format: streaming reader + writer + path suffixes."""

    name: str
    suffixes: Tuple[str, ...]
    read: TraceReader
    write: TraceWriter


# ---------------------------------------------------------------------- #
# Plain text
# ---------------------------------------------------------------------- #
def read_text_stream(handle: TextIO) -> Iterator[TraceRecord]:
    """Yield traces from the plain-text format, one at a time."""
    current: List[str] = []
    current_name: Optional[str] = None
    for raw_line in handle:
        line = raw_line.strip()
        if not line:
            if current:
                yield TraceRecord(tuple(current), current_name)
            current, current_name = [], None
            continue
        if line.startswith("#"):
            current_name = line.lstrip("#").strip() or None
            continue
        current.append(line)
    if current:
        yield TraceRecord(tuple(current), current_name)


def write_text_stream(handle: TextIO, records: Iterable[TraceRecord]) -> int:
    """Write traces in the plain-text format; returns the trace count."""
    written = 0
    for record in records:
        if record.name:
            handle.write(f"# {record.name}\n")
        for event in record.events:
            handle.write(f"{event}\n")
        handle.write("\n")
        written += 1
    return written


# ---------------------------------------------------------------------- #
# JSON lines
# ---------------------------------------------------------------------- #
def read_jsonl_stream(handle: TextIO) -> Iterator[TraceRecord]:
    """Yield traces from the JSON-lines format, one object at a time."""
    for line_number, line in enumerate(handle, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise DataFormatError(f"invalid JSON on line {line_number}: {error}") from error
        if not isinstance(record, dict) or "events" not in record:
            raise DataFormatError(f"line {line_number} is not a trace record: {line!r}")
        yield TraceRecord(tuple(record["events"]), record.get("name"))


def write_jsonl_stream(handle: TextIO, records: Iterable[TraceRecord]) -> int:
    """Write one JSON object per trace; returns the trace count."""
    written = 0
    for record in records:
        payload = {"name": record.name, "events": [str(event) for event in record.events]}
        handle.write(json.dumps(payload) + "\n")
        written += 1
    return written


# ---------------------------------------------------------------------- #
# CSV
# ---------------------------------------------------------------------- #
def iter_csv_rows(handle: TextIO) -> Iterator[Tuple[int, int, str]]:
    """Validated ``(trace_id, position, event)`` rows of a CSV trace file.

    The single grammar both CSV consumers share: the streaming reader
    groups contiguous runs on top of it, the whole-file reader in
    :mod:`repro.traces.io` buffers and sorts — so header validation and
    row parsing can never drift between the two.
    """
    reader = csv.DictReader(handle)
    required = {"trace_id", "position", "event"}
    if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
        raise DataFormatError(
            f"CSV trace file must have columns {sorted(required)}, got {reader.fieldnames}"
        )
    for row in reader:
        try:
            yield int(row["trace_id"]), int(row["position"]), row["event"]
        except (TypeError, ValueError) as error:
            raise DataFormatError(f"invalid CSV trace row: {row!r}") from error


def read_csv_stream(handle: TextIO) -> Iterator[TraceRecord]:
    """Yield traces from contiguous ``trace_id,position,event`` runs.

    Positions are sorted within each run, so shuffled rows *inside* one
    trace are fine; a trace id coming back after its run ended means the
    file cannot be parsed with bounded memory and raises.  (The
    whole-file readers in :mod:`repro.traces.io` buffer instead and
    accept interleaved rows.)

    One deliberate exception to the bounded-memory contract: detecting a
    reappearing id loudly requires remembering every finished trace id —
    a set of ints, O(traces) but tiny per entry.  That is the price of
    never mis-parsing an interleaved file as two truncated traces.
    """
    finished: set = set()
    current_id: Optional[int] = None
    current: List[Tuple[int, str]] = []
    for trace_id, position, event in iter_csv_rows(handle):
        if trace_id != current_id:
            if current_id is not None:
                yield TraceRecord(
                    tuple(event for _, event in sorted(current)), f"trace-{current_id}"
                )
                finished.add(current_id)
            if trace_id in finished:
                raise DataFormatError(
                    f"CSV trace rows for trace_id {trace_id} are not contiguous; "
                    "a streaming reader cannot reorder whole traces"
                )
            current_id, current = trace_id, []
        current.append((position, event))
    if current_id is not None:
        yield TraceRecord(tuple(event for _, event in sorted(current)), f"trace-{current_id}")


def write_csv_stream(handle: TextIO, records: Iterable[TraceRecord]) -> int:
    """Write ``trace_id,position,event`` rows; returns the trace count."""
    writer = csv.writer(handle)
    writer.writerow(["trace_id", "position", "event"])
    written = 0
    for trace_id, record in enumerate(records):
        for position, event in enumerate(record.events):
            writer.writerow([trace_id, position, str(event)])
        written += 1
    return written


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_ADAPTERS: Dict[str, FormatAdapter] = {}
_SUFFIX_TO_FORMAT: Dict[str, str] = {}


def register_format(adapter: FormatAdapter) -> FormatAdapter:
    """Register (or replace) a format adapter and its path suffixes."""
    _ADAPTERS[adapter.name] = adapter
    for suffix in adapter.suffixes:
        _SUFFIX_TO_FORMAT[suffix.lower()] = adapter.name
    return adapter


def registered_formats() -> Tuple[str, ...]:
    """The names of every registered format, sorted."""
    return tuple(sorted(_ADAPTERS))


def adapter_for(name: str) -> FormatAdapter:
    """Look a format adapter up by name."""
    try:
        return _ADAPTERS[name]
    except KeyError:
        raise DataFormatError(f"unknown trace format {name!r}") from None


register_format(FormatAdapter("text", (".txt", ".trace"), read_text_stream, write_text_stream))
register_format(FormatAdapter("jsonl", (".jsonl",), read_jsonl_stream, write_jsonl_stream))
register_format(FormatAdapter("csv", (".csv",), read_csv_stream, write_csv_stream))


def format_for_path(path: PathLike, explicit: Optional[str] = None) -> Tuple[str, bool]:
    """Resolve ``(format name, gzipped?)`` for a path.

    A trailing ``.gz`` selects the gzip codec and the format is inferred
    from (or checked against) the suffix underneath it, so
    ``traces.jsonl.gz`` works with no explicit format.
    """
    path = Path(path)
    gzipped = path.suffix.lower() == ".gz"
    inner = Path(path.stem) if gzipped else path
    if explicit is not None:
        adapter_for(explicit)  # validate the name even when it wins outright
        return explicit, gzipped
    suffix = inner.suffix.lower()
    if suffix in _SUFFIX_TO_FORMAT:
        return _SUFFIX_TO_FORMAT[suffix], gzipped
    raise DataFormatError(
        f"cannot infer trace format from suffix {suffix!r}; pass format= explicitly"
    )


def open_trace_text(path: PathLike, mode: str, gzipped: bool) -> TextIO:
    """Open a trace file as text, through the gzip codec when asked.

    newline="" on both directions: the csv module requires it, and the
    line-oriented readers strip their own terminators anyway.
    """
    if gzipped:
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


def stream_traces(path: PathLike, format: Optional[str] = None) -> Iterator[TraceRecord]:
    """Stream the traces of a file, decompressing ``.gz`` transparently."""
    name, gzipped = format_for_path(path, format)
    adapter = adapter_for(name)
    with open_trace_text(path, "r", gzipped) as handle:
        yield from adapter.read(handle)


def write_trace_records(
    path: PathLike, records: Iterable[TraceRecord], format: Optional[str] = None
) -> int:
    """Write a stream of traces to a file, gzip-compressing ``.gz`` paths."""
    name, gzipped = format_for_path(path, format)
    adapter = adapter_for(name)
    with open_trace_text(path, "w", gzipped) as handle:
        return adapter.write(handle, records)


# ---------------------------------------------------------------------- #
# Interning and chunking
# ---------------------------------------------------------------------- #
class EncodedTrace(NamedTuple):
    """A trace after interning: small integer event ids plus a name."""

    events: Tuple[EventId, ...]
    name: Optional[str] = None


def stream_encoded_traces(
    path: PathLike,
    vocabulary: EventVocabulary,
    format: Optional[str] = None,
) -> Iterator[EncodedTrace]:
    """Stream a file's traces interned through ``vocabulary``.

    Labels leave this function as dense integer ids and stay that way all
    the way through the store and the miners; the vocabulary is append-only
    so ids handed out earlier never change meaning.
    """
    for record in stream_traces(path, format=format):
        yield EncodedTrace(vocabulary.encode(record.events, register=True), record.name)


def stream_batches(
    records: Iterable,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[List]:
    """Chunk any record stream into lists of at most ``batch_size``."""
    if batch_size < 1:
        raise DataFormatError(f"batch_size must be >= 1, got {batch_size!r}")
    batch: List = []
    for record in records:
        batch.append(record)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
