"""Store integrity auditor — the engine behind ``repro fsck``.

:func:`audit_store` walks everything a :class:`~repro.ingest.store.TraceStore`
directory can hold and classifies what it finds:

* **corruption** — the store's promises are broken and no automatic
  repair is safe: an unreadable manifest, a data file shorter than the
  manifest requires, or a batch payload whose re-hashed chained
  fingerprint no longer matches the manifest.  Exit code 2.
* **issues** — recoverable debris a crash can legitimately leave behind:
  a torn data-file tail past the last committed batch, stranded ``*.tmp``
  files from interrupted atomic writes, an orphaned data file from an
  interrupted compaction, incremental caches or checkpoint directories
  keyed to a fingerprint outside the store's current lineage, and torn
  checkpoint-journal tails.  With ``repair=True`` (the default) they are
  fixed in place.  Exit code 1 — issues were *found*, whether or not they
  were repaired, so operators notice even in ``--no-repair`` mode.
* nothing — exit code 0.

The checks mirror the writers: the chained SHA-256 re-hash retraces
``TraceStore._append_batch_unsaved``, cache validation calls the rule
``IncrementalMiner`` loads its caches by
(:func:`repro.ingest.incremental.cache_problem`), and checkpoint validation
retraces ``MiningCheckpoint`` identity matching — if a writer's invariant
changes, its audit lives here and must change with it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from ..ingest.incremental import cache_problem
from ..ingest.store import DATA_NAME, MANIFEST_NAME, MANIFEST_VERSION, BatchInfo
from . import checkpoint as checkpoint_format
from .journal import read_frames

PathLike = Union[str, Path]

EXIT_CLEAN = 0
EXIT_REPAIRED = 1
EXIT_CORRUPT = 2

_HASH_CHUNK = 1 << 20


@dataclass
class AuditReport:
    """What :func:`audit_store` found (and did) in one store directory."""

    directory: Path
    issues: List[str] = field(default_factory=list)
    repairs: List[str] = field(default_factory=list)
    corruption: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.corruption:
            return EXIT_CORRUPT
        if self.issues:
            return EXIT_REPAIRED
        return EXIT_CLEAN

    def lines(self) -> List[str]:
        """Human-readable findings, worst first."""
        out = [f"corrupt: {finding}" for finding in self.corruption]
        out += [f"issue: {finding}" for finding in self.issues]
        out += [f"repaired: {action}" for action in self.repairs]
        return out


def audit_store(directory: PathLike, *, repair: bool = True) -> AuditReport:
    """Audit (and optionally repair) a trace-store directory."""
    directory = Path(directory)
    report = AuditReport(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        report.corruption.append(f"no store manifest at {manifest_path}")
        return report
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        report.corruption.append(f"unreadable store manifest: {error}")
        return report
    if not isinstance(payload, dict) or payload.get("version") != MANIFEST_VERSION:
        report.corruption.append("unsupported store manifest version")
        return report
    try:
        batches = [BatchInfo.from_dict(entry) for entry in payload.get("batches", [])]
    except (KeyError, TypeError, ValueError) as error:
        report.corruption.append(f"malformed batch entry in manifest: {error}")
        return report

    data_file = str(payload.get("data_file", DATA_NAME))
    data_path = directory / data_file
    _audit_payload_chain(report, data_path, batches, repair=repair)
    _audit_stray_temporaries(report, directory, repair=repair)
    _audit_orphan_data_files(report, directory, data_file, repair=repair)
    chain = {batch.fingerprint for batch in batches}
    _audit_caches(report, directory, batches, repair=repair)
    _audit_checkpoints(report, directory, chain, repair=repair)
    return report


# ---------------------------------------------------------------------- #
# Individual checks
# ---------------------------------------------------------------------- #
def _audit_payload_chain(
    report: AuditReport, data_path: Path, batches: List[BatchInfo], *, repair: bool
) -> None:
    """Re-hash every batch payload and re-derive the fingerprint chain."""
    expected = batches[-1].offset + batches[-1].nbytes if batches else 0
    actual = data_path.stat().st_size if data_path.exists() else 0
    if actual < expected:
        report.corruption.append(
            f"data file {data_path.name} is {actual} bytes, "
            f"manifest requires at least {expected}"
        )
        return
    previous = ""
    if batches:
        with open(data_path, "rb") as handle:
            for batch in batches:
                handle.seek(batch.offset)
                digest = hashlib.sha256()
                remaining = batch.nbytes
                while remaining:
                    chunk = handle.read(min(_HASH_CHUNK, remaining))
                    if not chunk:
                        break
                    digest.update(chunk)
                    remaining -= len(chunk)
                derived = hashlib.sha256(
                    previous.encode("ascii") + digest.digest()
                ).hexdigest()
                if derived != batch.fingerprint:
                    report.corruption.append(
                        f"batch {batch.index} payload does not re-hash to its "
                        f"chained fingerprint (expected {batch.fingerprint[:12]}…, "
                        f"got {derived[:12]}…)"
                    )
                    return
                previous = batch.fingerprint
    if actual > expected:
        report.issues.append(
            f"torn tail: data file {data_path.name} has {actual - expected} "
            f"bytes past the last committed batch"
        )
        if repair:
            with open(data_path, "r+b") as handle:
                handle.truncate(expected)
            report.repairs.append(f"truncated {data_path.name} to {expected} bytes")


def _audit_stray_temporaries(report: AuditReport, directory: Path, *, repair: bool) -> None:
    """Leftover ``*.tmp`` files from interrupted atomic writes."""
    for stray in sorted(directory.glob("*.tmp")):
        report.issues.append(f"stranded temporary file {stray.name}")
        if repair:
            stray.unlink(missing_ok=True)
            report.repairs.append(f"removed {stray.name}")


def _audit_orphan_data_files(
    report: AuditReport, directory: Path, data_file: str, *, repair: bool
) -> None:
    """Data files the manifest does not reference.

    A compaction that crashed around its manifest swap leaves exactly one:
    either the half-written new generation (manifest still names the old
    file) or the superseded old generation (manifest already swapped).
    """
    for candidate in sorted(directory.glob("traces*.bin")):
        if candidate.name == data_file:
            continue
        report.issues.append(f"orphaned data file {candidate.name}")
        if repair:
            candidate.unlink(missing_ok=True)
            report.repairs.append(f"removed {candidate.name}")


def _audit_caches(
    report: AuditReport, directory: Path, batches: List[BatchInfo], *, repair: bool
) -> None:
    """Incremental record caches must be ones the miner would load."""
    cache_dir = directory / "cache"
    if not cache_dir.is_dir():
        return
    for cache_path in sorted(cache_dir.glob("*.pkl")):
        reason: Optional[str] = None
        try:
            payload = pickle.loads(cache_path.read_bytes())
        except Exception as error:
            reason = f"unreadable ({type(error).__name__})"
        else:
            reason = cache_problem(payload, batches)
        if reason is not None:
            report.issues.append(f"stale incremental cache cache/{cache_path.name}: {reason}")
            if repair:
                cache_path.unlink(missing_ok=True)
                report.repairs.append(f"removed cache/{cache_path.name}")


def _audit_checkpoints(
    report: AuditReport, directory: Path, chain: set, *, repair: bool
) -> None:
    """Checkpoint directories under the store: identity and journal health.

    Only checkpoints that live inside the store directory are in audit
    scope (``--checkpoint`` may point anywhere; a checkpoint elsewhere is
    validated by its own identity check on open).
    """
    for child in sorted(directory.iterdir() if directory.is_dir() else []):
        if not child.is_dir():
            continue
        manifest = child / checkpoint_format.MANIFEST_NAME
        if not manifest.is_file():
            continue
        relative = child.name
        try:
            payload = json.loads(manifest.read_text(encoding="utf-8"))
            database = payload["identity"]["database"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            database = None
        # A "file:"-keyed checkpoint mines a flat input file, not this
        # store; the chain cannot validate it either way, so leave it be.
        stale = database is None or (
            not database.startswith("file:") and database not in chain
        )
        if stale:
            report.issues.append(
                f"checkpoint {relative}/ keyed to a fingerprint outside this store's lineage"
            )
            if repair:
                shutil.rmtree(child, ignore_errors=True)
                report.repairs.append(f"removed checkpoint {relative}/")
            continue
        journal_path = child / checkpoint_format.JOURNAL_NAME
        if journal_path.is_file():
            size = journal_path.stat().st_size
            _, valid = read_frames(journal_path)
            if valid < size:
                report.issues.append(
                    f"torn checkpoint journal tail in {relative}/ "
                    f"({size - valid} bytes past the last intact frame)"
                )
                if repair:
                    with open(journal_path, "r+b") as handle:
                        handle.truncate(valid)
                    report.repairs.append(
                        f"truncated {relative}/{checkpoint_format.JOURNAL_NAME} to {valid} bytes"
                    )
