"""Shared depth-first search used by the full and closed iterative-pattern miners.

The search grows patterns by forward extension only.  This is complete
because prefixes of frequent patterns are frequent (Theorem 1 — the apriori
property — which holds because truncating every instance of ``P`` to its
first ``k`` events yields distinct instances of ``P``'s length-``k`` prefix).
Each frequent pattern is therefore reached exactly once, along the chain of
its own prefixes.

Instance lists travel the search as columnar
:class:`~repro.core.blocks.InstanceBlock` values: flat int columns instead
of per-instance tuples, so the inner projection loops allocate nothing per
instance and unit outcomes pickle as a few buffers.  Each search node builds
one :class:`~repro.core.projection.AlphabetIndex` — the node's shared
``frozenset(pattern)`` plus merged per-sequence alphabet-occurrence lists —
which the forward projection, the backward closure scan and the infix check
all share instead of rebuilding per call.

The search is *root-parallel* and *unit-shardable*: the subtree below each
frequent singleton is independent of every other subtree, and any frontier
node inside a subtree can itself be carved off as a
:class:`~repro.engine.sharding.WorkUnit` keyed by its ``(root, split-path)``
and re-derived elsewhere by replaying projections along the path.  The
miners implement the engine's protocol (``build_context`` / ``plan_roots``
/ ``initial_units`` / ``mine_unit`` / ``resolve_units``) and let an
:class:`~repro.engine.backend.ExecutionBackend` decide where the search
runs.  Wherever it runs the merged output is bit-identical: the serial
depth-first emission order equals the ascending lexicographic order of the
emitted patterns, so sorting records by pattern reassembles it exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.blocks import InstanceBlock, WireInstanceBlock
from ..core.errors import ConfigurationError
from ..core.events import EncodedDatabase, EventId
from ..core.positions import PositionIndex
from ..core.projection import (
    AlphabetIndex,
    forward_extensions_block,
    project_extension_block,
    singleton_blocks,
)
from ..core.sequence import SequenceDatabase, absolute_support
from ..core.stats import MiningStats
from ..engine import (
    ExecutionBackend,
    LazyIndexContext,
    PlanResult,
    SerialBackend,
    ShardRunner,
    UnitOutcome,
    WorkUnit,
    plan_weighted_roots,
)
from ..engine.stealing import FrontierFrame, drive_split_subtree
from .config import IterativeMiningConfig
from .result import MinedPattern, PatternMiningResult

#: Work-unit kinds of the pattern search: ``grow`` mines a whole subtree,
#: ``verify`` runs one node's deferred closure check.
GROW_UNIT = "grow"
VERIFY_UNIT = "verify"


class PatternRecord(NamedTuple):
    """An emitted pattern in encoded (event-id) form, as produced by workers.

    ``instances`` carries the columnar wire block (no ``ends`` column) when
    instance collection is on (``None`` otherwise); the coordinator decodes
    it to :class:`~repro.core.instances.PatternInstance` tuples, so the
    block form only exists on the mining path and the
    worker-to-coordinator wire.
    """

    pattern: Tuple[EventId, ...]
    support: int
    instances: Optional[WireInstanceBlock]


class PendingClosure(NamedTuple):
    """A frequent pattern whose closure check was offloaded to a verify unit.

    The grow worker already ran the free forward check; the matching
    ``verify`` unit reports the backward/infix verdict and
    ``resolve_units`` turns the pair into a :class:`PatternRecord` (or
    drops it) on the coordinator.
    """

    pattern: Tuple[EventId, ...]
    support: int
    instances: Optional[WireInstanceBlock]


class ClosureVerdict(NamedTuple):
    """The outcome of a deferred closure check for one pattern."""

    pattern: Tuple[EventId, ...]
    closed: bool


class PatternSearchContext(LazyIndexContext):
    """Per-run search state, built once per process by the engine.

    The index and the singleton instance blocks are materialised lazily:
    the coordinating process only plans (a counts-only pass), so only the
    processes that actually mine pay for them — each exactly once,
    reused across all the units that process executes.
    """

    __slots__ = ("min_support", "_singletons")

    def __init__(self, encoded: EncodedDatabase, min_support: int) -> None:
        super().__init__(encoded)
        self.min_support = min_support
        self._singletons: Optional[Dict[EventId, InstanceBlock]] = None

    @property
    def singletons(self) -> Dict[EventId, InstanceBlock]:
        if self._singletons is None:
            self._singletons = singleton_blocks(self.encoded)
        return self._singletons

    def absorb_appended(self, new_sequences: Any) -> None:
        """Extend the live index with appended sequences (incremental path).

        The singleton block cache is invalidated rather than extended: it
        is rebuilt lazily from the grown database on next use, while the
        position index — the expensive part — grows in place.
        """
        super().absorb_appended(new_sequences)
        self._singletons = None


class IterativePatternMinerBase:
    """Template-method base class for the iterative-pattern miners."""

    closed_only = False

    def __init__(
        self, config: IterativeMiningConfig, backend: Optional[ExecutionBackend] = None
    ) -> None:
        self.config = config
        self.backend = backend

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def mine(
        self, database: SequenceDatabase, backend: Optional[ExecutionBackend] = None
    ) -> PatternMiningResult:
        """Mine the database and return all emitted patterns.

        ``backend`` (or the instance-level backend passed to the
        constructor) selects where the search runs; the result does not
        depend on the choice.
        """
        stats = MiningStats()
        stats.start()

        chosen = backend or self.backend or SerialBackend()
        runner = ShardRunner(self, database.encoded, self.runner_extras(database))
        records, search_stats = chosen.execute(runner)
        stats.merge_counters(search_stats)

        result = self.collect_result(database, records, stats)
        stats.stop()
        return result

    def collect_result(
        self,
        database: SequenceDatabase,
        records: List["PatternRecord"],
        stats: MiningStats,
    ) -> PatternMiningResult:
        """Decode merged records into the public result (coordinator side).

        Factored out of :meth:`mine` so the incremental miner can rebuild
        a result from cached-plus-fresh records through the exact same
        path a from-scratch mine uses.
        """
        result = PatternMiningResult(stats=stats, closed_only=self.closed_only)
        result.min_support = self.resolved_support_threshold(database)
        vocabulary = database.vocabulary
        encoded = database.encoded
        for record in records:
            result.patterns.append(
                MinedPattern(
                    events=vocabulary.decode(record.pattern),
                    support=record.support,
                    # Wire blocks ship without their ends column; rebuild it
                    # here, on the coordinator, from the pattern itself.
                    instances=(
                        record.instances.to_tuple(encoded, record.pattern)
                        if record.instances is not None
                        else ()
                    ),
                )
            )
        return result

    # ------------------------------------------------------------------ #
    # Incremental mining protocol
    # ------------------------------------------------------------------ #
    def resolved_support_threshold(self, database: SequenceDatabase) -> int:
        """The absolute support threshold against the current database size."""
        return database.absolute_support(self.config.min_support)

    def runner_extras(self, database: SequenceDatabase) -> Dict[str, Any]:
        """Extra per-run state to ship to the engine workers (none here)."""
        return {}

    @staticmethod
    def record_root(record: "PatternRecord") -> EventId:
        """The first-level root that produced ``record`` (its first event)."""
        return record.pattern[0]

    @staticmethod
    def record_sort_key(record: "PatternRecord") -> Tuple[EventId, ...]:
        """The canonical merge key: serial DFS order == pattern order."""
        return record.pattern

    # ------------------------------------------------------------------ #
    # Engine miner protocol
    # ------------------------------------------------------------------ #
    def build_context(
        self, encoded: EncodedDatabase, extras: Dict[str, Any]
    ) -> PatternSearchContext:
        """Build the per-process search context (lazy index + singleton cache)."""
        return PatternSearchContext(
            encoded=encoded,
            min_support=absolute_support(self.config.min_support, len(encoded)),
        )

    def plan_roots(self, context: PatternSearchContext) -> PlanResult:
        """Frequent singletons, weighted by instance count for dispatch order.

        A counts-only database pass: occurrence counts equal singleton
        instance counts, so the coordinator never materialises the
        per-event instance blocks the workers will build for themselves.
        """
        counts: Counter = Counter()
        for sequence in context.encoded:
            counts.update(sequence)
        return plan_weighted_roots(counts, context.min_support)

    def initial_units(
        self, context: PatternSearchContext, plan: PlanResult
    ) -> List[WorkUnit]:
        """One grow unit per frequent root, weighted by instance count."""
        return [
            WorkUnit(GROW_UNIT, root, (root,), weight) for root, weight in plan.roots
        ]

    def mine_unit(
        self,
        context: PatternSearchContext,
        unit: WorkUnit,
        stats: MiningStats,
        splitter: Any,
    ) -> List[object]:
        """Execute one work unit: mine a subtree or verify one closure."""
        records: List[object] = []
        if unit.kind == VERIFY_UNIT:
            block, node = self._replay(context, unit.path, stats)
            closed = self._verify_deferred_closure(context, node, block)
            if closed:
                stats.emitted += 1
            else:
                stats.pruned_closure += 1
            records.append(ClosureVerdict(unit.path, closed))
            return records
        if unit.kind != GROW_UNIT:
            raise ConfigurationError(f"unknown pattern work-unit kind {unit.kind!r}")
        block, node = self._replay(context, unit.path, stats)

        def visit_child(
            frame: FrontierFrame, event: EventId, child_block: InstanceBlock
        ) -> Optional[FrontierFrame]:
            return self._visit(
                context, child_block, frame.state.extend(event), records, stats, splitter
            )

        drive_split_subtree(
            self._visit(context, block, node, records, stats, splitter),
            visit_child,
            context.min_support,
            splitter,
            stats,
            GROW_UNIT,
        )
        return records

    def resolve_units(self, outcomes: List[UnitOutcome]) -> List[PatternRecord]:
        """Reassemble unit outcomes into the canonical serial record order.

        Deferred closure verdicts are matched back to their pending
        records first; the final sort by encoded pattern reproduces the
        serial depth-first emission order exactly (pre-order over children
        visited in ascending event order *is* lexicographic pattern
        order).
        """
        verdicts: Dict[Tuple[EventId, ...], bool] = {}
        mined: List[object] = []
        for outcome in outcomes:
            for record in outcome.records:
                if isinstance(record, ClosureVerdict):
                    verdicts[record.pattern] = record.closed
                else:
                    mined.append(record)
        resolved: List[PatternRecord] = []
        for record in mined:
            if isinstance(record, PendingClosure):
                if verdicts[record.pattern]:
                    resolved.append(
                        PatternRecord(record.pattern, record.support, record.instances)
                    )
            else:
                resolved.append(record)
        resolved.sort(key=lambda record: record.pattern)
        return resolved

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _should_emit(
        self,
        encoded: EncodedDatabase,
        index: PositionIndex,
        node: AlphabetIndex,
        block: InstanceBlock,
        extensions: Dict[EventId, InstanceBlock],
    ) -> bool:
        """Decide whether the current frequent pattern is part of the output.

        ``node`` is the search node's shared alphabet cache; its ``pattern``
        attribute is the pattern under test.
        """
        raise NotImplementedError

    def _emit(
        self,
        context: PatternSearchContext,
        node: AlphabetIndex,
        block: InstanceBlock,
        extensions: Dict[EventId, InstanceBlock],
        stats: MiningStats,
        splitter: Any,
        records: List[object],
    ) -> None:
        """Emit (or prune) the current node's pattern.

        The closed miner overrides this to split its closure check into a
        free inline part and an offloadable verify unit; the default keeps
        the one-shot ``_should_emit`` decision.
        """
        if self._should_emit(context.encoded, context.index, node, block, extensions):
            stats.emitted += 1
            records.append(
                PatternRecord(node.pattern, len(block), self._keep_instances(block))
            )
        else:
            stats.pruned_closure += 1

    def _verify_deferred_closure(
        self, context: PatternSearchContext, node: AlphabetIndex, block: InstanceBlock
    ) -> bool:
        """Run the deferred part of a closure check (verify units only)."""
        raise NotImplementedError(
            "only the closed miner offloads closure verification"
        )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _keep_instances(self, block: InstanceBlock) -> Optional[WireInstanceBlock]:
        """The record payload for ``block``: a wire block, or nothing.

        Wire form drops the ``ends`` column (derivable from the starts and
        the pattern) and shares the remaining columns, so keeping instances
        costs no copy and ships one column less.
        """
        return block.to_wire() if self.config.collect_instances else None

    def _replay(
        self,
        context: PatternSearchContext,
        path: Tuple[EventId, ...],
        stats: MiningStats,
    ) -> Tuple[InstanceBlock, AlphabetIndex]:
        """Re-derive a split node's instance block by replaying its path.

        This is the cost a thief pays for a stolen unit: one targeted
        single-event projection per path step instead of shipping bulky
        intermediate blocks through the queue.  Replayed rows are tracked
        separately from ``instances_materialized`` so the search counters
        stay comparable with the serial run.
        """
        block = context.singletons[path[0]]
        node = AlphabetIndex(context.index, (path[0],))
        for event in path[1:]:
            block = project_extension_block(
                context.encoded, context.index, node, block, event
            )
            node = node.extend(event)
            stats.bump("steal_replayed_rows", len(block))
        return block, node

    def _visit(
        self,
        context: PatternSearchContext,
        block: InstanceBlock,
        node: AlphabetIndex,
        records: List[object],
        stats: MiningStats,
        splitter: Any,
    ) -> Optional[FrontierFrame]:
        """Visit one search node: project, emit, and open its frame.

        ``node`` is this search node's shared boundary cache: every
        projection and closure query reuses the same frozenset(pattern)
        and merged alphabet-occurrence lists, derived incrementally from
        the parent node's cache.
        """
        encoded = context.encoded
        stats.visited += 1
        extensions = forward_extensions_block(encoded, context.index, node, block)
        for extension_block in extensions.values():
            stats.instances_materialized += len(extension_block)

        self._emit(context, node, block, extensions, stats, splitter, records)

        pattern = node.pattern
        if (
            self.config.max_pattern_length is not None
            and len(pattern) >= self.config.max_pattern_length
        ):
            return None

        explore = sorted(extensions)
        if self.config.adjacent_absorption_pruning:
            absorbed = self._adjacent_absorbing_event(encoded, block)
            if (
                absorbed is not None
                and absorbed in extensions
                and len(extensions[absorbed]) == len(block)
            ):
                stats.bump("absorption_pruned_branches", len(extensions) - 1)
                explore = [absorbed]

        return FrontierFrame(pattern, node, extensions, explore)

    @staticmethod
    def _adjacent_absorbing_event(
        encoded: EncodedDatabase, block: InstanceBlock
    ) -> "EventId | None":
        """The event immediately following *every* instance, if one exists.

        When such an event exists, every instance forward-extends with it at
        the adjacent position, so restricting the search to that extension
        follows the deterministic continuation of the pattern (see
        ``IterativeMiningConfig.adjacent_absorption_pruning``).
        """
        absorbing: "EventId | None" = None
        ends = block.ends
        for sid, lo, hi in block.groups():
            sequence = encoded[sid]
            sequence_len = len(sequence)
            for row in range(lo, hi):
                next_position = ends[row] + 1
                if next_position >= sequence_len:
                    return None
                event = sequence[next_position]
                if absorbing is None:
                    absorbing = event
                elif absorbing != event:
                    return None
        return absorbing
