"""Incremental mining over an append-only :class:`TraceStore`.

A from-scratch mine re-explores every first-level root of the search even
when an appended batch touched a handful of events.  The key observation
that makes delta mining sound is *root locality*: the entire subtree below
a first-level root ``e`` — pattern growth, closure checks, temporal points,
consequent growth, confidences — is computed exclusively from the sequences
that contain ``e`` (every instance of a pattern or premise starting with
``e`` lives in such a sequence).  Appending sequences that do not contain
``e`` therefore cannot change any record rooted at ``e``, and in an
append-only store supports only ever grow, so a root absent from the
appended batches' alphabets keeps its cached records verbatim.

:class:`IncrementalMiner` exploits this through the existing engine: its
runner filters the miner's plan down to the seed units of *touched* roots
(events appearing in the newly appended batches) and runs them on
any :class:`~repro.engine.backend.ExecutionBackend` — serial or
process — and merges the fresh records with the cached records of
untouched roots by the miner's canonical record key.  Because every backend
already merges deterministically by that same key, the merged output is
bit-identical to a full re-mine of the concatenated store.  Three events
force a full re-mine instead: the first refresh, a support threshold whose
absolute value moved with the database size (relative thresholds), and a
change in the premise filter's resolved event ids.

Between refreshes the miner keeps the per-run search context alive: the
:class:`~repro.core.positions.PositionIndex` is *extended* with just the
appended sequences instead of being rebuilt, and the context's derived
caches are invalidated, so the serial hot path pays O(new events) — not
O(corpus) — of indexing per refresh.  The pattern miners search the
frequent-event view (:class:`~repro.core.view.FrequentEventView`), which
compacts the appended sequences before the index sees them.  Root
locality holds on the view: under a fixed threshold its set of dropped
events only shrinks, and every event an append lifts to the threshold
occurs in the append, so its root is re-mined, while an untouched root's
extensions by that event keep the support they had below the threshold.
Such an append makes the context rebuild the view and the index (the one
O(corpus) refresh besides a full re-mine).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigurationError
from ..core.events import EventId
from ..core.sequence import SequenceDatabase
from ..core.stats import MiningStats
from ..durability.checkpoint import miner_config_token
from ..durability.journal import atomic_write_bytes
from ..engine import (
    ExecutionBackend,
    SearchMinerBase,
    SerialBackend,
    ShardRunner,
    WorkUnit,
)
from .store import BatchInfo, TraceStore

#: On-disk record-cache format version; unknown versions are ignored.
CACHE_VERSION = 1


def cache_problem(payload: Any, batches: Sequence[BatchInfo]) -> Optional[str]:
    """Why a persisted record cache does not fit a store, or ``None`` if it does.

    The one validity rule for the caches :class:`IncrementalMiner` writes,
    shared with ``repro fsck``: the payload has this module's
    :data:`CACHE_VERSION`, its synced batch count lies inside the store,
    and the store's fingerprint at that batch is the cached one.  Chained
    fingerprints make that one comparison: the cache fits iff the store's
    first ``synced`` batches are exactly the corpus it was computed from.
    The miner also checks the configuration token, which only it knows.
    """
    if not isinstance(payload, dict):
        return "malformed payload"
    version = payload.get("version")
    if version != CACHE_VERSION:
        return f"cache version {version!r}, expected {CACHE_VERSION}"
    synced = payload.get("synced_batches")
    if not isinstance(synced, int) or not 1 <= synced <= len(batches):
        return "synced batch count outside the store"
    if batches[synced - 1].fingerprint != payload.get("fingerprint"):
        return "fingerprint not in the store's lineage"
    return None


@dataclass(frozen=True)
class RefreshReport:
    """What one :meth:`IncrementalMiner.refresh` actually did."""

    traces_total: int
    traces_added: int
    roots_total: int
    roots_remined: int
    full_remine: bool
    reason: str
    elapsed_seconds: float


class _DeltaRunner(ShardRunner):
    """A runner whose plan keeps only the seed units of touched roots.

    Execution is untouched, so the search below each kept root — and
    therefore each root's records — is byte-for-byte the search a full
    mine would run.  ``changed=None`` keeps the whole plan (a full re-mine
    through the same code path).
    """

    def __init__(
        self,
        miner: SearchMinerBase,
        encoded: Any,
        extras: Dict[str, Any],
        context: Any,
        changed: Optional[FrozenSet[EventId]],
    ) -> None:
        super().__init__(miner, encoded, extras, context)
        self.changed = changed
        self.planned_total = 0
        self.planned_kept = 0

    def plan_units(self) -> Tuple[List[WorkUnit], int]:
        seeds, pruned_support = super().plan_units()
        self.planned_total = len(seeds)
        if self.changed is not None:
            seeds = [unit for unit in seeds if unit.root in self.changed]
        self.planned_kept = len(seeds)
        return seeds, pruned_support


class IncrementalMiner:
    """Keep a miner's output in sync with a growing :class:`TraceStore`.

    Works with any :class:`~repro.engine.runner.SearchMinerBase` miner
    (which adds ``resolved_support_threshold`` / ``runner_extras`` /
    ``record_root`` / ``record_sort_key`` / ``collect_result`` to the
    engine protocol): both iterative-pattern miners and both
    recurrent-rule miners qualify.

    With ``persist=True`` (or an explicit ``cache_path``) the committed
    record cache is also written into the store directory after every
    successful refresh, and a later :class:`IncrementalMiner` over the same
    store resumes from it — so separate processes (CLI invocations, daemon
    restarts) stay incremental too.  The persisted cache is invalidated by
    a store-fingerprint or miner-configuration mismatch and silently
    discarded; a discarded cache only ever costs a full re-mine.

    Example
    -------
    >>> miner = IncrementalMiner(ClosedIterativePatternMiner(config), store)
    >>> result, report = miner.refresh()        # full mine of the store
    >>> store.append_batch(new_traces)
    >>> result, report = miner.refresh()        # delta: touched roots only
    """

    def __init__(
        self,
        miner: Any,
        store: TraceStore,
        backend: Optional[ExecutionBackend] = None,
        *,
        persist: bool = False,
        cache_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if not isinstance(miner, SearchMinerBase):
            raise ConfigurationError(
                f"{type(miner).__name__} does not implement the incremental "
                "mining protocol (not a SearchMinerBase)"
            )
        self.miner = miner
        self.store = store
        self.backend = backend
        self._database: Optional[SequenceDatabase] = None
        self._context: Any = None
        self._synced_batches = 0
        # Mining-cache state, committed only after a successful run — a
        # refresh that raises mid-mine must leave the next refresh seeing
        # its roots as still dirty, never a silently stale cache.
        self._cache: Optional[Dict[EventId, Tuple[Any, ...]]] = None
        self._cache_threshold: Optional[int] = None
        self._cache_extras: Optional[Dict[str, Any]] = None
        self._cache_roots_total = 0
        self._dirty: FrozenSet[EventId] = frozenset()
        # Optional on-disk persistence of the record cache (CLI invocations
        # and daemon restarts stay incremental across processes).
        if cache_path is not None:
            self._cache_path: Optional[Path] = Path(cache_path)
        elif persist:
            self._cache_path = self.default_cache_path(store, miner)
        else:
            self._cache_path = None
        #: Whether the last construction adopted a persisted cache.
        self.resumed_from_cache = False
        if self._cache_path is not None:
            self.resumed_from_cache = self._load_persisted_cache()

    @property
    def database(self) -> Optional[SequenceDatabase]:
        """The live concatenated database (``None`` before the first refresh)."""
        return self._database

    # ------------------------------------------------------------------ #
    # Record-cache persistence
    # ------------------------------------------------------------------ #
    @staticmethod
    def default_cache_path(store: TraceStore, miner: Any) -> Path:
        """Where a persisted record cache lives inside the store directory.

        One file per miner class: two miners with the same class but
        different configurations share the path, and the configuration
        token inside the payload arbitrates (a mismatch discards the
        cache, never silently reuses it).
        """
        return store.directory / "cache" / f"{type(miner).__name__}.records.pkl"

    def _config_token(self) -> str:
        """Identity of the cached search: miner class + full configuration.

        Shared with the checkpoint journal (one definition of "same mining
        run" across both persistence layers); see
        :func:`repro.durability.checkpoint.miner_config_token` for why
        set-valued fields render sorted.
        """
        return miner_config_token(self.miner)

    def _load_persisted_cache(self) -> bool:
        """Adopt a persisted record cache when it matches store + config.

        Validation is strict and failure is silent-but-safe: a missing
        file, an unreadable pickle, a different miner/config token or any
        :func:`cache_problem` just leaves the miner cold — the next refresh
        is a full re-mine, which is always correct.  The payload is a pickle written by this
        class into the user's own store directory; treat the store
        directory with the same trust as the traces themselves.
        """
        path = self._cache_path
        if path is None or not path.is_file():
            return False
        try:
            payload = pickle.loads(path.read_bytes())
        except Exception:  # noqa: BLE001 - any corrupt cache means "cold start"
            return False
        if cache_problem(payload, self.store.batches) is not None:
            return False
        if payload.get("identity") != self._config_token():
            return False
        synced = payload["synced_batches"]
        database = SequenceDatabase(self.store.vocabulary)
        for trace in self.store.iter_traces(stop_batch=synced):
            database.add_encoded(trace.events, name=trace.name)
        self._database = database
        self._synced_batches = synced
        self._cache = {
            root: tuple(records) for root, records in payload["records"].items()
        }
        self._cache_threshold = payload["threshold"]
        self._cache_extras = payload["extras"]
        self._cache_roots_total = payload["roots_total"]
        return True

    def _save_persisted_cache(self) -> None:
        """Write the committed cache state next to the store (atomically)."""
        path = self._cache_path
        if path is None or self._synced_batches < 1 or self._cache is None:
            return
        payload = {
            "version": CACHE_VERSION,
            "identity": self._config_token(),
            "synced_batches": self._synced_batches,
            "fingerprint": self.store.batches[self._synced_batches - 1].fingerprint,
            "threshold": self._cache_threshold,
            "extras": self._cache_extras,
            "roots_total": self._cache_roots_total,
            "records": self._cache,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def refresh(self, backend: Optional[ExecutionBackend] = None) -> Tuple[Any, RefreshReport]:
        """Bring the mining result up to date with the store.

        Returns the result — bit-identical to a from-scratch mine of the
        store's current snapshot — together with a :class:`RefreshReport`
        saying how much of the search actually ran.
        """
        started = time.perf_counter()
        chosen = backend or self.backend or SerialBackend()

        if self._database is None:
            # Sharing the store's vocabulary object keeps decoding in sync
            # as later appends intern new labels; the database itself only
            # ever receives pre-encoded traces.
            self._database = SequenceDatabase(self.store.vocabulary)
        database = self._database

        # Sync the live database with the store.  The fallible reads happen
        # before any state moves: once the buffered traces are appended the
        # batch counter advances with them, and the roots they touch join
        # the *dirty* set — which only a successful mine clears, so a
        # refresh that dies mid-run leaves them pending for the retry.
        new_traces = list(self.store.iter_traces(start_batch=self._synced_batches))
        touched = frozenset(self.store.alphabet_since(self._synced_batches))
        before = len(database)
        for trace in new_traces:
            database.add_encoded(trace.events, name=trace.name)
        appended = database.encoded[before:]
        self._synced_batches = len(self.store.batches)
        self._dirty = self._dirty | touched

        threshold = self.miner.resolved_support_threshold(database)
        extras = self.miner.runner_extras(database)
        if self._cache is None:
            full, reason = True, "initial mine"
        elif self._cache_threshold != threshold:
            full, reason = True, (
                f"support threshold moved {self._cache_threshold} -> {threshold} "
                "with the database size"
            )
        elif self._cache_extras != extras:
            full, reason = True, "premise event filter resolved differently"
        elif not self._dirty:
            full, reason = False, "no new batches"
        elif appended:
            full, reason = False, f"{len(appended)} appended traces"
        else:
            full, reason = False, f"retrying {len(self._dirty)} dirty roots"

        if full or self._context is None:
            self._context = self.miner.build_context(database.encoded, extras)
        elif appended:
            self._context.absorb_appended(appended)

        stats = MiningStats()
        stats.start()
        if not full and not self._dirty:
            # Nothing to re-mine: rebuild the result straight from the
            # cache without touching the backend (a polling caller must
            # not pay pool spin-up and plan/merge for zero work).
            roots_total, roots_remined = self._cache_roots_total, 0
            cache = dict(self._cache or {})
        else:
            changed = None if full else self._dirty
            runner = _DeltaRunner(
                self.miner, database.encoded, extras, self._context, changed
            )
            records, search_stats = chosen.execute(runner)
            stats.merge_counters(search_stats)

            cache = {} if full else dict(self._cache or {})
            if changed is not None:
                for root in changed:
                    cache.pop(root, None)
            grouped: Dict[EventId, List[Any]] = {}
            for record in records:
                grouped.setdefault(self.miner.record_root(record), []).append(record)
            for root, root_records in grouped.items():
                cache[root] = tuple(root_records)
            roots_total, roots_remined = runner.planned_total, runner.planned_kept
        # The run succeeded: commit the cache state and clear the debt.
        self._cache = cache
        self._cache_threshold = threshold
        self._cache_extras = extras
        self._cache_roots_total = roots_total
        self._dirty = frozenset()
        self._save_persisted_cache()

        merged: List[Any] = []
        for root_records in cache.values():
            merged.extend(root_records)
        merged.sort(key=self.miner.record_sort_key)

        result = self.miner.collect_result(database, merged, stats)
        stats.stop()
        report = RefreshReport(
            traces_total=len(database),
            traces_added=len(appended),
            roots_total=roots_total,
            roots_remined=roots_remined,
            full_remine=full,
            reason=reason,
            elapsed_seconds=time.perf_counter() - started,
        )
        return result, report
