"""Checkpoint journal: crash-safe resume for long mining runs.

A :class:`MiningCheckpoint` is a directory holding two files:

* ``checkpoint.json`` — the run *identity*: database fingerprint, miner
  class and config token (the same scheme the incremental cache uses).
  Opening a checkpoint under a different identity discards the journal —
  journaled outcomes are only reusable against the exact corpus and
  configuration that produced them.
* ``checkpoint.bin`` — a CRC-framed journal (:mod:`repro.durability.journal`)
  of pickled entries, appended as the engine completes work:

  ==========  =======================================  ==================
  entry       payload                                  meaning
  ==========  =======================================  ==================
  ``unit``    ``(key, UnitOutcome)``                   unit completed
  ``spawn``   ``(parent key, (WorkUnit, ...))``        unit split children
  ``orphan``  ``(key,)``                               subtree invalidated
  ==========  =======================================  ==================

Frames of any other kind (such as the ``shard`` entries older versions
wrote) are skipped on replay; their work is simply mined again.

The journal is sound because work outcomes are *plan-independent*: a
``(kind, split-path)`` unit is a pure function of the database and the
mining configuration, so any outcome journaled under a matching
identity can be reused even if the resumed run plans differently (e.g.
the incremental cache turned a full mine into a delta mine).  Resume therefore needs no knowledge of *why*
the previous run died — it replays the journal, marks finished units
done, walks the spawn lineage below them, and mines only the remainder;
the deterministic merge makes the final output byte-identical to an
uninterrupted run.

A crash mid-append tears the journal tail; the framing truncates it on
reopen, costing at most the entries that had not reached the OS — never
the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..obs import metrics as obs_metrics
from .journal import JournalWriter, atomic_write_text, read_frames

PathLike = Union[str, Path]

CHECKPOINT_VERSION = 1
MANIFEST_NAME = "checkpoint.json"
JOURNAL_NAME = "checkpoint.bin"


def unit_key(unit) -> tuple:
    """The replay identity of a work unit: ``(kind, split-path)``.

    The split path starts at the root, so two units of the same kind
    collide only if they denote the same subtree — exactly when their
    outcomes are interchangeable.
    """
    return (unit.kind, tuple(unit.path))


def miner_config_token(miner) -> str:
    """Render a miner's full configuration as a stable identity string.

    Set-valued fields are rendered sorted so the token is independent of
    hash-seed iteration order; this is the token the incremental cache
    and the checkpoint manifest share.
    """
    config = getattr(miner, "config", None)
    if config is None or not dataclasses.is_dataclass(config):
        return f"{type(miner).__qualname__}:{config!r}"
    parts = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, (set, frozenset)):
            rendered = "{" + ", ".join(sorted(repr(item) for item in value)) + "}"
        else:
            rendered = repr(value)
        parts.append(f"{field.name}={rendered}")
    return f"{type(miner).__qualname__}({', '.join(parts)})"


def file_fingerprint(path: PathLike) -> str:
    """Content fingerprint of a flat input file (non-store mining sources)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return f"file:{digest.hexdigest()}"


class MiningCheckpoint:
    """An append-only journal of completed mining work under one identity.

    ``identity`` is a flat string→string mapping — conventionally
    ``{"database": ..., "miner": ..., "config": ...}`` — compared
    structurally against the persisted manifest.  On mismatch (or first
    use) the directory is re-keyed and any previous journal discarded.
    """

    def __init__(
        self,
        directory: PathLike,
        identity: Dict[str, str],
        *,
        fsync_interval: int = 8,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.identity = {str(key): str(value) for key, value in identity.items()}
        self._done_units: Dict[tuple, Any] = {}
        self._children: Dict[tuple, List[Any]] = {}
        journal_path = self.directory / JOURNAL_NAME
        manifest = {"version": CHECKPOINT_VERSION, "identity": self.identity}
        if self._load_manifest() != manifest:
            journal_path.unlink(missing_ok=True)
            atomic_write_text(
                self.directory / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n"
            )
        else:
            self._replay(journal_path)
        self._journal = JournalWriter(journal_path, fsync_interval=fsync_interval)

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def _load_manifest(self) -> Optional[dict]:
        path = self.directory / MANIFEST_NAME
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def _replay(self, journal_path: Path) -> None:
        payloads, _ = read_frames(journal_path)
        for payload in payloads:
            try:
                entry = pickle.loads(payload)
            except Exception:
                # An intact frame whose pickle no longer loads (say, a
                # version skew in the outcome types) only means its work
                # is re-mined; resume must never be worse than restart.
                continue
            kind = entry[0]
            if kind == "unit":
                self._done_units[entry[1]] = entry[2]
            elif kind == "spawn":
                self._children.setdefault(entry[1], []).extend(entry[2])
            elif kind == "orphan":
                self._discard_subtree(entry[1])

    def _discard_subtree(self, key: tuple) -> None:
        stack = [key]
        while stack:
            victim = stack.pop()
            self._done_units.pop(victim, None)
            for child in self._children.pop(victim, ()):
                stack.append(unit_key(child))

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _append(self, entry: tuple) -> None:
        self._journal.append(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))

    def record_unit(self, unit, outcome) -> None:
        """Journal one completed work unit's outcome."""
        key = unit_key(unit)
        self._done_units[key] = outcome
        self._append(("unit", key, outcome))

    def record_spawn(self, parent, units: Iterable[Any]) -> None:
        """Journal the children a unit split off.

        Must be journaled no later than the parent's own outcome (the
        coordinator's message order guarantees this for free): resume
        walks children only below *completed* units, so a completed unit
        with unjournaled children would under-cover the search space.
        """
        units = tuple(units)
        if not units:
            return
        key = unit_key(parent)
        self._children.setdefault(key, []).extend(units)
        self._append(("spawn", key, units))

    def record_orphan(self, unit) -> None:
        """Journal that a unit's attempt tree was invalidated (replay)."""
        key = unit_key(unit)
        self._discard_subtree(key)
        self._append(("orphan", key))

    # ------------------------------------------------------------------ #
    # Resume
    # ------------------------------------------------------------------ #
    def plan_resume(self, units: Iterable[Any]) -> Tuple[List[Any], List[Any]]:
        """Split planned units into journaled outcomes and a remainder.

        Walks the spawn lineage below every *completed* unit.  The
        journaled descendants of a unit that did not complete are
        deliberately not visited: re-running that unit re-covers its
        entire subtree, exactly the live coordinator's orphaning rule, so
        reusing its old children would double-count.
        """
        cached: List[Any] = []
        remaining: List[Any] = []
        stack = list(units)
        stack.reverse()
        while stack:
            unit = stack.pop()
            key = unit_key(unit)
            outcome = self._done_units.get(key)
            if outcome is not None:
                cached.append(outcome)
                children = self._children.get(key, ())
                stack.extend(reversed(children))
            else:
                remaining.append(unit)
        if cached:
            obs_metrics.DURABILITY_RESUMED_TOTAL.inc(len(cached), kind="unit")
        return cached, remaining

    @property
    def entries(self) -> int:
        """Frames in the journal (replayed + appended this run)."""
        return self._journal.entries

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "MiningCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
