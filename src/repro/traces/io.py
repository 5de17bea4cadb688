"""Reading and writing trace databases.

Three interchange formats are supported, all line-oriented and dependency
free, each with a transparent gzip-wrapped variant (``.txt.gz``,
``.jsonl.gz``, ``.csv.gz``):

* **text** — one event label per line, blank line between traces, optional
  ``# name`` comment naming the following trace (the format produced by most
  ad-hoc instrumentation scripts);
* **jsonl** — one JSON object per line: ``{"name": ..., "events": [...]}``;
* **csv** — ``trace_id,position,event`` rows with a header.

Parsing and serialisation live in the streaming adapters of
:mod:`repro.ingest.formats`; this module is the thin whole-database
convenience layer on top, so the batch readers and the streaming ingestion
path can never drift apart.  For bounded-memory access to large files, use
:func:`repro.ingest.formats.stream_traces` directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from ..core.sequence import SequenceDatabase
from ..ingest.formats import (
    TraceRecord,
    format_for_path,
    iter_csv_rows,
    open_trace_text,
    stream_traces,
    write_trace_records,
)

PathLike = Union[str, Path]


def _database_records(database: SequenceDatabase):
    """The database's traces as stringified streaming records."""
    for index in range(len(database)):
        yield TraceRecord(
            tuple(str(event) for event in database[index]), database.name(index)
        )


def _collect(records) -> SequenceDatabase:
    """Materialise a record stream into a database."""
    database = SequenceDatabase()
    for record in records:
        database.add(record.events, name=record.name)
    return database


def _collect_csv(path: PathLike, gzipped: bool) -> SequenceDatabase:
    """Whole-file CSV semantics: buffer the rows, sort by trace_id.

    The streaming adapter requires contiguous per-trace runs (it cannot
    sort what it has not read); the whole-file reader keeps the historical
    behaviour instead — rows may be interleaved and traces come back
    ordered by their numeric trace_id.  Both sit on the same
    :func:`~repro.ingest.formats.iter_csv_rows` grammar, so header
    validation and row parsing cannot drift."""
    rows_by_trace: Dict[int, list] = {}
    with open_trace_text(path, "r", gzipped) as handle:
        for trace_id, position, event in iter_csv_rows(handle):
            rows_by_trace.setdefault(trace_id, []).append((position, event))
    database = SequenceDatabase()
    for trace_id in sorted(rows_by_trace):
        events = [event for _, event in sorted(rows_by_trace[trace_id])]
        database.add(events, name=f"trace-{trace_id}")
    return database


def write_traces(database: SequenceDatabase, path: PathLike, format: Optional[str] = None) -> None:
    """Write ``database`` to ``path`` in the given (or inferred) format."""
    write_trace_records(path, _database_records(database), format=format)


def read_traces(path: PathLike, format: Optional[str] = None) -> SequenceDatabase:
    """Read a trace database from ``path`` in the given (or inferred) format."""
    name, gzipped = format_for_path(path, format)
    if name == "csv":
        return _collect_csv(path, gzipped)
    return _collect(stream_traces(path, format=name))
