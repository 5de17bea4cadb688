"""The runner: the picklable bridge between miners and backends.

A :class:`ShardRunner` wraps a miner and an encoded database and knows how
to (a) plan the root-level seed units, (b) build the expensive per-run
search context — the frequent-event view, the
:class:`~repro.core.positions.PositionIndex` and the root payloads —
exactly once per process, and (c) execute one work unit.

Miners plug in through a duck-typed protocol (the engine imports nothing
from the miner packages):

``build_context(encoded, extras)``
    Build the per-run search context.  Called once in the coordinating
    process for planning, and once per worker process for mining.
``plan_units(context)``
    Return ``(seed units, pruned_support)``: one root-level
    :class:`~repro.engine.sharding.WorkUnit` per frequent root, and the
    number of roots the support threshold discarded.
``mine_unit(context, unit, stats, splitter)``
    Execute one work unit and return its final records, consulting
    ``splitter`` for dynamic subtree splitting and heavy-phase offload.
``resolve_units(outcomes)``
    Deterministically reassemble unit outcomes into the canonical serial
    record order (coordinating process only).

Both miner families implement all four — and ``mine()`` — through
:class:`SearchMinerBase`, whose :class:`SearchContext` carries what their
searches share.  Every unit emits final records: a subtree unit walks its
subtree depth first, and a deferred unit runs one node's offloaded heavy
phase (the closure check, consequent growth) and emits what it accepts,
so resolving is one sort by record key.  Each family supplies its unit
kinds, root weights and payloads, four search hooks (path replay, node
visit, child derivation, the deferred phase), ``record_sort_key`` and
``collect_result``.

The runner crosses into each worker process once; the context is *never*
pickled — ``__getstate__`` drops it so every worker rebuilds its
``PositionIndex`` cache locally once and reuses it for all the units it
executes, instead of rebuilding per subtree or shipping bulky indexes
over the wire.
"""

from __future__ import annotations

import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence as TypingSequence,
    Tuple,
)

from ..core.errors import ConfigurationError
from ..core.events import EncodedDatabase, EventId
from ..core.positions import PositionIndex
from ..core.sequence import absolute_support
from ..core.stats import MiningStats
from ..core.view import FrequentEventView
from ..obs import tracing
from .backend import ExecutionBackend, SerialBackend
from .sharding import UnitOutcome, WorkUnit
from .stealing import FrontierFrame, drive_split_subtree


def plan_weighted_roots(
    root_weights: Mapping[EventId, int], threshold: int, kind: str
) -> Tuple[List[WorkUnit], int]:
    """Shared planning step: one seed unit per root meeting ``threshold``.

    Both miner families plan identically — iterate the roots in sorted
    order, prune those whose weight (instance or sequence count) is below
    the support threshold, and seed a ``kind`` unit for each survivor with
    its weight as the cost hint.  Returns the seeds and the pruned count.
    """
    units: List[WorkUnit] = []
    pruned = 0
    for event in sorted(root_weights):
        weight = root_weights[event]
        if weight < threshold:
            pruned += 1
            continue
        units.append(WorkUnit(kind, event, (event,), weight))
    return units, pruned


def _record_payload_bytes(record: Any) -> int:
    """Buffer bytes a record's instance payload contributes to the outcome.

    Duck-typed so the engine stays miner-agnostic: any record exposing an
    ``instances`` attribute with an ``nbytes()`` method (the columnar
    blocks) is counted; everything else ships as plain small tuples and
    counts as zero.
    """
    payload = getattr(record, "instances", None)
    nbytes = getattr(payload, "nbytes", None)
    return nbytes() if callable(nbytes) else 0


class SearchContext:
    """Per-run search state, built once per process by the engine.

    Holds the source database, the miner's extras and its absolute
    support threshold.  The root weights, the database the search runs
    over (:attr:`encoded`), the :class:`PositionIndex` and the root
    payloads (a family's per-root starting state, keyed by root event) are
    materialised on first use: the coordinating process only plans (a
    counts-only pass), so only the processes that actually mine pay for
    the rest — each exactly once, reused across all the units it executes.

    A family that mines the frequent-event view (``frequent_view``, the
    pattern family) searches :class:`~repro.core.view.FrequentEventView`
    over the source instead of the source itself; its root weights must
    then be the events' occurrence counts, which decide what the view
    drops.
    """

    __slots__ = (
        "source",
        "extras",
        "min_support",
        "_root_weights",
        "_root_payloads",
        "_frequent_view",
        "_weights",
        "_view",
        "_index",
        "_roots",
    )

    def __init__(
        self,
        source: EncodedDatabase,
        extras: Dict[str, Any],
        min_support: int,
        root_weights: Callable[["SearchContext"], Mapping[EventId, int]],
        root_payloads: Callable[["SearchContext"], Dict[EventId, Any]],
        frequent_view: bool,
    ) -> None:
        self.source = source
        self.extras = extras
        self.min_support = min_support
        self._root_weights = root_weights
        self._root_payloads = root_payloads
        self._frequent_view = frequent_view
        self._weights: Optional[Mapping[EventId, int]] = None
        self._view: Optional[FrequentEventView] = None
        self._index: Optional[PositionIndex] = None
        self._roots: Optional[Dict[EventId, Any]] = None

    @property
    def weights(self) -> Mapping[EventId, int]:
        """Per-root support weights, from one counts-only pass over the source."""
        if self._weights is None:
            self._weights = self._root_weights(self)
        return self._weights

    @property
    def view(self) -> Optional[FrequentEventView]:
        """The frequent-event view, or ``None`` for a family that mines the source."""
        if self._view is None and self._frequent_view:
            self._view = FrequentEventView(self.source, self.weights, self.min_support)
        return self._view

    @property
    def encoded(self) -> EncodedDatabase:
        """The database the search runs over: the view, or the source."""
        view = self.view
        return self.source if view is None else view.sequences

    @property
    def index(self) -> PositionIndex:
        if self._index is None:
            self._index = PositionIndex(self.encoded)
        return self._index

    @property
    def roots(self) -> Dict[EventId, Any]:
        if self._roots is None:
            self._roots = self._root_payloads(self)
        return self._roots

    def absorb_appended(
        self, new_sequences: "TypingSequence[TypingSequence[int]]"
    ) -> None:
        """Absorb sequences appended (in place) to ``self.source``.

        The live index — the expensive part — is extended with just the
        new sequences instead of being rebuilt, after the view (if built)
        has compacted them.  An append that lifts an event the view
        dropped to the support threshold drops the view and the index
        instead, and both are rebuilt from the grown source on next use.
        The root weights and payloads are dropped and rebuilt lazily.
        Callers must have appended the same sequences to the ``source``
        list this context was built over — the incremental miner shares
        that list with its growing database.
        """
        self._weights = None
        self._roots = None
        if self._view is not None:
            new_sequences = self._view.extend(new_sequences)
            if new_sequences is None:
                self._view = None
                self._index = None
                return
        if self._index is not None:
            self._index.extend(new_sequences)


class ShardRunner:
    """Execute work units of a miner's root-parallel search."""

    def __init__(
        self,
        miner: Any,
        encoded: EncodedDatabase,
        extras: Optional[Dict[str, Any]] = None,
        context: Any = None,
    ) -> None:
        self.miner = miner
        self.encoded = encoded
        self.extras: Dict[str, Any] = dict(extras or {})
        # A pre-built context seeds the coordinating process only (it is
        # dropped at the pickle boundary like any other context): the
        # incremental miner uses this to keep one live PositionIndex across
        # store appends instead of rebuilding it every refresh.
        self._context: Any = context

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Build (or reuse) the per-process search context.

        In a worker process (the runner crossed a pickle boundary with the
        coordinator's tracing armed), this also arms the worker-side
        shipping collector and adopts the coordinator's trace context, so
        the worker's unit spans join the coordinator's trace when
        they travel back inside the outcomes.
        """
        # Two ways a worker learns the coordinator had tracing armed:
        # *spawned* workers receive the runner through a pickle, where
        # __getstate__ captured the flag and the trace context; *forked*
        # workers inherit the coordinator's collector itself through the
        # address space — detected by its foreign pid, because reusing it
        # would append to the parent's JSONL handle from two processes.
        # Either way the worker ends up on a fresh shipping buffer with
        # the coordinator's context adopted.
        ship = self.__dict__.pop("_ship_spans", False)
        trace_ctx = self.__dict__.pop("_trace_ctx", None)
        inherited = tracing.ACTIVE
        if (
            inherited is not None
            and not inherited.shipping
            and inherited.pid != os.getpid()
        ):
            ship = True
            if trace_ctx is None:
                # The span stack was copied at fork time: the coordinator
                # forks inside its "engine.execute" span, so this is it.
                trace_ctx = tracing.current_ids()
        if ship and not tracing.shipping():
            tracing.install_shipping()
        if trace_ctx is not None and tracing.shipping():
            tracing.adopt(*trace_ctx)
        self._ensure_context()

    # ------------------------------------------------------------------ #
    # Unit protocol
    # ------------------------------------------------------------------ #
    def plan_units(self) -> Tuple[List[WorkUnit], int]:
        """Plan the root-level seed units (coordinating process only)."""
        return self.miner.plan_units(self._ensure_context())

    def run_unit(self, unit: WorkUnit, splitter: Any) -> UnitOutcome:
        """Execute one work unit, packaging records and counters.

        ``shipped_bytes`` accounts the instance-block payload packaged into
        the outcome — the volume that crosses the worker-to-coordinator
        pickle boundary when workers run in processes (counted identically
        in process so the number is comparable across backends).

        Crash-recovery contract: a unit execution must be a pure function
        of ``(self, unit)`` — all state is re-derived by replaying along
        ``unit.path``, and nothing outside the returned outcome may be
        mutated.  The coordinator relies on this to re-execute a dead
        worker's unit on a survivor (discarding the dead attempt's
        split-off descendants) without changing the merged output.
        """
        context = self._ensure_context()
        started = time.perf_counter()
        stats = MiningStats()
        with tracing.span("engine.unit", kind=unit.kind, root=unit.root):
            records = tuple(self.miner.mine_unit(context, unit, stats, splitter))
        for record in records:
            stats.shipped_bytes += _record_payload_bytes(record)
        return UnitOutcome(
            unit, records, stats, time.perf_counter() - started, tracing.drain_shipped()
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _ensure_context(self) -> Any:
        if self._context is None:
            self._context = self.miner.build_context(self.encoded, self.extras)
        return self._context

    def __getstate__(self) -> Dict[str, Any]:
        # The context holds the PositionIndex and projection caches; it is
        # cheap to rebuild locally and expensive to pickle, so workers
        # always reconstruct it (once) in setup().
        state = self.__dict__.copy()
        state["_context"] = None
        # Pickling happens inside the coordinator's "engine.execute" span:
        # capture whether tracing is armed (and under which trace/span) so
        # worker processes can buffer child spans for shipping.
        if tracing.ACTIVE is not None and not tracing.ACTIVE.shipping:
            state["_ship_spans"] = True
            state["_trace_ctx"] = tracing.current_ids()
        return state


class SearchMinerBase:
    """The engine adapter both miner families share.

    Owns the configuration, :meth:`mine`, context building, planning and
    the unit protocol (:meth:`mine_unit`, :meth:`resolve_units`).  A family
    declares its two unit kinds and ``offload_counter`` and supplies
    :meth:`_min_support`, :meth:`_root_weights`, :meth:`_root_payloads`,
    ``record_sort_key(record)``, ``collect_result``, optionally
    :meth:`_support_of` (how a payload's support is counted; its row count
    by default) and four search hooks
    over its node type (the node's key paired with its projection payload):

    * ``_replay(context, path, stats) -> node`` re-derives a unit's node;
    * ``_visit(context, node, records, stats, splitter) -> frame | None``
      emits the node's records and opens its frame;
    * ``_child(frame, event, payload) -> node`` derives a frame's child;
    * ``_run_deferred(context, node, records, stats)`` runs the node's
      heavy phase, in place or as a ``deferred_kind`` unit.
    """

    #: Work-unit kind that mines a whole subtree (the seed units' kind).
    subtree_kind = ""
    #: Work-unit kind that runs one node's offloaded heavy phase.
    deferred_kind = ""
    #: ``MiningStats`` extra counter bumped per offloaded heavy phase.
    offload_counter = ""
    #: Whether the search runs over the frequent-event view of the
    #: database (see :class:`SearchContext`) instead of the database.
    frequent_view = False

    def __init__(self, config: Any) -> None:
        self.config = config

    def mine(self, database: Any, backend: Optional[ExecutionBackend] = None) -> Any:
        """Mine the database and return the family's result object.

        ``backend`` selects where the search runs (serial by default); the
        result does not depend on the choice.
        """
        stats = MiningStats()
        stats.start()
        runner = ShardRunner(self, database.encoded, self.runner_extras(database))
        records, search_stats = (backend or SerialBackend()).execute(runner)
        stats.merge_counters(search_stats)
        result = self.collect_result(database, records, stats)
        stats.stop()
        return result

    # ------------------------------------------------------------------ #
    # Incremental mining protocol
    # ------------------------------------------------------------------ #
    def resolved_support_threshold(self, database: Any) -> int:
        """The absolute support threshold against the current database size."""
        return database.absolute_support(self._min_support())

    def runner_extras(self, database: Any) -> Dict[str, Any]:
        """Extra per-run state to ship to the engine workers (none by default)."""
        return {}

    @staticmethod
    def record_root(record: Any) -> EventId:
        """The first-level root that produced ``record``.

        Every record's first field is its search key (pattern or premise),
        which starts at its root.
        """
        return record[0][0]

    # ------------------------------------------------------------------ #
    # Engine miner protocol
    # ------------------------------------------------------------------ #
    def build_context(
        self, encoded: EncodedDatabase, extras: Dict[str, Any]
    ) -> SearchContext:
        """Build the per-process search context (everything but the threshold lazy)."""
        return SearchContext(
            encoded,
            extras,
            absolute_support(self._min_support(), len(encoded)),
            self._root_weights,
            self._root_payloads,
            self.frequent_view,
        )

    def plan_units(self, context: SearchContext) -> Tuple[List[WorkUnit], int]:
        """One seed unit per frequent root, weighted for dispatch order."""
        return plan_weighted_roots(
            context.weights, context.min_support, self.subtree_kind
        )

    def mine_unit(
        self,
        context: SearchContext,
        unit: WorkUnit,
        stats: MiningStats,
        splitter: Any,
    ) -> List[Any]:
        """Execute one work unit and return its final records.

        The unit's node is re-derived by replaying its path.  A deferred
        unit then runs that node's heavy phase; a subtree unit walks the
        subtree below it depth first, splitting its frontier when the
        splitter asks.
        """
        if unit.kind not in (self.subtree_kind, self.deferred_kind):
            raise ConfigurationError(
                f"unknown {type(self).__name__} work-unit kind {unit.kind!r}"
            )
        records: List[Any] = []
        node = self._replay(context, unit.path, stats)
        if unit.kind == self.deferred_kind:
            self._run_deferred(context, node, records, stats)
            return records

        def visit_child(
            frame: FrontierFrame, event: EventId, payload: Any
        ) -> Optional[FrontierFrame]:
            return self._visit(
                context, self._child(frame, event, payload), records, stats, splitter
            )

        drive_split_subtree(
            self._visit(context, node, records, stats, splitter),
            visit_child,
            context.min_support,
            self._support_of(context),
            splitter,
            stats,
            self.subtree_kind,
        )
        return records

    def resolve_units(self, outcomes: List[UnitOutcome]) -> List[Any]:
        """Reassemble unit outcomes into the canonical serial record order.

        Every unit emits final records keyed by their own search-tree
        path, and the serial depth-first emission order (children visited
        in ascending event order) is the ascending order of those keys, so
        one sort reassembles it whichever unit produced each record.
        """
        records = [record for outcome in outcomes for record in outcome.records]
        records.sort(key=self.record_sort_key)
        return records

    def _offload_or_run(
        self,
        context: SearchContext,
        path: Tuple[EventId, ...],
        node: Any,
        cost_hint: int,
        records: List[Any],
        stats: MiningStats,
        splitter: Any,
    ) -> None:
        """Run a node's heavy phase in place, or leave it as a deferred unit.

        The phase leaves when the splitter reports a hungry pool and
        ``cost_hint`` (the node's payload rows) outweighs the replay a
        thief pays; the deferred unit then emits the node's records.
        """
        if splitter.should_offload(cost_hint):
            splitter.submit([WorkUnit(self.deferred_kind, path[0], path, cost_hint)])
            stats.bump(self.offload_counter)
        else:
            self._run_deferred(context, node, records, stats)

    # ------------------------------------------------------------------ #
    # Family hooks
    # ------------------------------------------------------------------ #
    def _min_support(self) -> float:
        """The configured support threshold (relative or absolute)."""
        raise NotImplementedError

    def _root_weights(self, context: SearchContext) -> Mapping[EventId, int]:
        """Per-root support weights from a counts-only database pass."""
        raise NotImplementedError

    def _root_payloads(self, context: SearchContext) -> Dict[EventId, Any]:
        """Each root's starting search state (built lazily, once per process)."""
        raise NotImplementedError

    def _support_of(self, context: SearchContext) -> Callable[[Any], int]:
        """How the search counts a payload's support: its row count."""
        return len
