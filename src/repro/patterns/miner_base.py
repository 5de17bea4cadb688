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
miners plug into the engine through
:class:`~repro.engine.runner.SearchMinerBase`, which owns ``mine()``,
context building and planning; this module adds the pattern family's root
weights (occurrence counts) and payloads (singleton instance blocks), the
node visit, the deferred closure phase, ``mine_unit``, ``resolve_units``
and ``collect_result``, and an
:class:`~repro.engine.backend.ExecutionBackend` decides where the search
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
from ..core.projection import (
    AlphabetIndex,
    forward_extensions_block,
    project_extension_block,
    singleton_blocks,
)
from ..core.sequence import SequenceDatabase
from ..core.stats import MiningStats
from ..engine import SearchContext, SearchMinerBase, UnitOutcome, WorkUnit
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


class IterativePatternMinerBase(SearchMinerBase):
    """Template-method base class for the iterative-pattern miners."""

    config: IterativeMiningConfig
    closed_only = False
    subtree_kind = GROW_UNIT

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
    @staticmethod
    def record_sort_key(record: "PatternRecord") -> Tuple[EventId, ...]:
        """The canonical merge key: serial DFS order == pattern order."""
        return record.pattern

    # ------------------------------------------------------------------ #
    # Engine miner protocol
    # ------------------------------------------------------------------ #
    def _min_support(self) -> float:
        return self.config.min_support

    def _root_weights(self, context: SearchContext) -> Counter[EventId]:
        """Event occurrence counts, which equal singleton instance counts.

        A counts-only database pass, so the coordinator never materialises
        the per-event instance blocks the workers will build for
        themselves.
        """
        counts: Counter[EventId] = Counter()
        for sequence in context.encoded:
            counts.update(sequence)
        return counts

    def _root_payloads(self, context: SearchContext) -> Dict[EventId, InstanceBlock]:
        """The singleton instance blocks every subtree starts from."""
        return singleton_blocks(context.encoded)

    def mine_unit(
        self,
        context: SearchContext,
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
        resolved.sort(key=self.record_sort_key)
        return resolved

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _emit(
        self,
        context: SearchContext,
        node: AlphabetIndex,
        block: InstanceBlock,
        extensions: Dict[EventId, InstanceBlock],
        stats: MiningStats,
        splitter: Any,
        records: List[object],
    ) -> None:
        """Emit the current node's pattern (below the length cap).

        The default emits every frequent pattern; the closed miner
        overrides this to split its closure check into a free inline part
        and an offloadable verify unit.
        """
        stats.emitted += 1
        records.append(
            PatternRecord(node.pattern, len(block), self._keep_instances(block))
        )

    def _verify_deferred_closure(
        self, context: SearchContext, node: AlphabetIndex, block: InstanceBlock
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
        context: SearchContext,
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
        block = context.roots[path[0]]
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
        context: SearchContext,
        block: InstanceBlock,
        node: AlphabetIndex,
        records: List[object],
        stats: MiningStats,
        splitter: Any,
    ) -> Optional[FrontierFrame]:
        """Visit one search node: project, emit, and open its frame.

        Nodes at ``max_pattern_length`` are emitted as they are, with no
        projection and no frame.

        ``node`` is this search node's shared boundary cache: every
        projection and closure query reuses the same frozenset(pattern)
        and merged alphabet-occurrence lists, derived incrementally from
        the parent node's cache.
        """
        encoded = context.encoded
        pattern = node.pattern
        stats.visited += 1
        max_length = self.config.max_pattern_length
        if max_length is not None and len(pattern) >= max_length:
            # A cap-length node opens no frame, and it is emitted without
            # a closure check: closedness is judged relative to the explored
            # pattern space, and every single-event extension of a
            # cap-length pattern lies outside it.  So its extensions are
            # never projected.
            stats.emitted += 1
            records.append(PatternRecord(pattern, len(block), self._keep_instances(block)))
            return None

        extensions = forward_extensions_block(encoded, context.index, node, block)
        for extension_block in extensions.values():
            stats.instances_materialized += len(extension_block)

        self._emit(context, node, block, extensions, stats, splitter, records)

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
