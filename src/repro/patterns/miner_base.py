"""Shared depth-first search used by the full and closed iterative-pattern miners.

The search grows patterns by forward extension only.  This is complete
because prefixes of frequent patterns are frequent (Theorem 1 — the apriori
property — which holds because truncating every instance of ``P`` to its
first ``k`` events yields distinct instances of ``P``'s length-``k`` prefix).
Each frequent pattern is therefore reached exactly once, along the chain of
its own prefixes.

The search runs over the *frequent-event view* of the database
(:class:`~repro.core.view.FrequentEventView`): every event that occurs
fewer than ``min_support`` times is removed from the sequences before the
first projection.  By the same theorem such an event is in no frequent
pattern, and it can never be the equal-support extension that makes a
pattern non-closed, so the kernels run unchanged over shorter sequences
and emit the same patterns; emitted instance blocks are mapped back to
source positions.  The view changes two search counters:
``instances_materialized`` and the child-level ``pruned_support`` no
longer count extensions by dropped events.  ``visited`` does not change.

Equal view sequences form classes, and the search walks one
representative per class: root blocks hold representative rows only, a
block's support is its rows weighted by their class sizes
(:meth:`~repro.core.view.FrequentEventView.weighted_support`), and
emitted blocks are expanded to every class member.  So
``instances_materialized`` counts representative rows.  The
forward-closure and absorption tests compare row counts, which is sound
under the weighting: each row extends at most once per event and every
weight is positive, so an extension keeps every weighted instance exactly
when it keeps every row.

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
context building, planning and the unit protocol; this module adds the
pattern family's root weights (occurrence counts) and payloads (singleton
instance blocks), path replay, the node visit and ``collect_result``, and
the closed miner adds the deferred closure phase.  A search node is the
pair ``(instance block, AlphabetIndex)``.  An
:class:`~repro.engine.backend.ExecutionBackend` decides where the search
runs.  Wherever it runs the merged output is bit-identical: the serial
depth-first emission order equals the ascending lexicographic order of the
emitted patterns, so sorting records by pattern reassembles it exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.blocks import InstanceBlock, WireInstanceBlock
from ..core.events import EventId
from ..core.projection import (
    AlphabetIndex,
    forward_extensions_block,
    project_extension_block,
    singleton_blocks,
)
from ..core.sequence import SequenceDatabase
from ..core.stats import MiningStats
from ..core.view import FrequentEventView
from ..engine import SearchContext, SearchMinerBase
from ..engine.stealing import FrontierFrame
from .config import IterativeMiningConfig
from .result import MinedPattern, PatternMiningResult

#: Work-unit kinds of the pattern search: ``grow`` mines a whole subtree,
#: ``verify`` runs one node's deferred closure check.
GROW_UNIT = "grow"
VERIFY_UNIT = "verify"

#: A pattern search node: its instance block and its boundary cache.
PatternNode = Tuple[InstanceBlock, AlphabetIndex]


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


class IterativePatternMinerBase(SearchMinerBase):
    """Template-method base class for the iterative-pattern miners."""

    config: IterativeMiningConfig
    closed_only = False
    subtree_kind = GROW_UNIT
    deferred_kind = VERIFY_UNIT
    offload_counter = "closure_offloads"
    frequent_view = True

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

        A counts-only pass over the source database, so the coordinator
        never materialises the per-event instance blocks the workers will
        build for themselves.  The same counts decide which events the
        frequent-event view drops.
        """
        counts: Counter[EventId] = Counter()
        for sequence in context.source:
            counts.update(sequence)
        return counts

    def _root_payloads(self, context: SearchContext) -> Dict[EventId, InstanceBlock]:
        """The singleton instance blocks every subtree starts from.

        Only class representatives hold rows; see :meth:`_support_of`.
        """
        return singleton_blocks(context.encoded, context.view.representatives)

    def _support_of(self, context: SearchContext) -> Callable[[InstanceBlock], int]:
        """Blocks weigh each representative row by its class size.

        While no two view sequences are equal every class is a singleton
        and the weight is plain ``len``.
        """
        view = context.view
        return view.weighted_support if view.has_copies else len

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _emit(
        self,
        context: SearchContext,
        node: PatternNode,
        extensions: Dict[EventId, InstanceBlock],
        records: List[object],
        stats: MiningStats,
        splitter: Any,
    ) -> None:
        """Emit the current node's pattern (below the length cap).

        The default emits every frequent pattern; the closed miner
        overrides this to split its closure check into a free inline part
        and an offloadable ``verify`` unit.
        """
        self._accept(context, node, records, stats)

    def _accept(
        self,
        context: SearchContext,
        node: PatternNode,
        records: List[object],
        stats: MiningStats,
    ) -> None:
        """Append the node's pattern as a final record."""
        block, alphabet = node
        stats.emitted += 1
        records.append(
            PatternRecord(
                alphabet.pattern,
                self._support_of(context)(block),
                self._keep_instances(context, block),
            )
        )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _keep_instances(
        self, context: SearchContext, block: InstanceBlock
    ) -> Optional[WireInstanceBlock]:
        """The record payload for ``block``: a wire block, or nothing.

        The block's representative rows are expanded to every member of
        their classes, in each member's source positions, so records,
        journals and caches never see the view.  Wire form
        drops the ``ends`` column (derivable from the starts and the
        pattern) and shares the remaining columns, so it ships one column
        less.
        """
        if not self.config.collect_instances:
            return None
        return context.view.expanded_block(block).to_wire()

    def _replay(
        self,
        context: SearchContext,
        path: Tuple[EventId, ...],
        stats: MiningStats,
    ) -> PatternNode:
        """Re-derive a split node's instance block by replaying its path.

        This is the cost a thief pays for a stolen unit: one targeted
        single-event projection per path step instead of shipping bulky
        intermediate blocks through the queue.  Replayed rows are tracked
        separately from ``instances_materialized`` so the search counters
        stay comparable with the serial run.
        """
        block = context.roots[path[0]]
        alphabet = AlphabetIndex(context.index, (path[0],))
        for event in path[1:]:
            block = project_extension_block(
                context.encoded, context.index, alphabet, block, event
            )
            alphabet = alphabet.extend(event)
            stats.bump("steal_replayed_rows", len(block))
        return block, alphabet

    def _child(
        self, frame: FrontierFrame, event: EventId, block: InstanceBlock
    ) -> PatternNode:
        return block, frame.state.extend(event)

    def _visit(
        self,
        context: SearchContext,
        node: PatternNode,
        records: List[object],
        stats: MiningStats,
        splitter: Any,
    ) -> Optional[FrontierFrame]:
        """Visit one search node: project, emit, and open its frame.

        Nodes at ``max_pattern_length`` are emitted as they are, with no
        projection and no frame.

        The node's ``AlphabetIndex`` is its shared boundary cache: every
        projection and closure query reuses the same frozenset(pattern)
        and merged alphabet-occurrence lists, derived incrementally from
        the parent node's cache.
        """
        encoded = context.encoded
        block, alphabet = node
        pattern = alphabet.pattern
        stats.visited += 1
        max_length = self.config.max_pattern_length
        if max_length is not None and len(pattern) >= max_length:
            # A cap-length node opens no frame, and it is emitted without
            # a closure check: closedness is judged relative to the explored
            # pattern space, and every single-event extension of a
            # cap-length pattern lies outside it.  So its extensions are
            # never projected.
            self._accept(context, node, records, stats)
            return None

        extensions = forward_extensions_block(encoded, context.index, alphabet, block)
        for extension_block in extensions.values():
            stats.instances_materialized += len(extension_block)

        self._emit(context, node, extensions, records, stats, splitter)

        explore = sorted(extensions)
        if self.config.adjacent_absorption_pruning:
            absorbed = self._adjacent_absorbing_event(context.view, block)
            # Row counts stand for weighted counts here (module docstring).
            if (
                absorbed is not None
                and absorbed in extensions
                and len(extensions[absorbed]) == len(block)
            ):
                stats.bump("absorption_pruned_branches", len(extensions) - 1)
                explore = [absorbed]

        return FrontierFrame(pattern, alphabet, extensions, explore)

    @staticmethod
    def _adjacent_absorbing_event(
        view: FrequentEventView, block: InstanceBlock
    ) -> "EventId | None":
        """The event immediately following *every* instance, if one exists.

        When such an event exists, every instance forward-extends with it at
        the adjacent position, so restricting the search to that extension
        follows the deterministic continuation of the pattern (see
        ``IterativeMiningConfig.adjacent_absorption_pruning``).  Adjacency
        is judged in the source: a dropped event right after an instance
        is the event that follows it, and being rare it never absorbs.  A
        representative row stands for one instance in every member of its
        class, so the event must be adjacent in each member's source.
        """
        absorbing: "EventId | None" = None
        ends = block.ends
        for sid, lo, hi in block.groups():
            sequence = view.sequences[sid]
            sequence_len = len(sequence)
            members = view.members[sid]
            for row in range(lo, hi):
                next_position = ends[row] + 1
                if next_position >= sequence_len or not all(
                    view.adjacent(member, next_position) for member in members
                ):
                    return None
                event = sequence[next_position]
                if absorbing is None:
                    absorbing = event
                elif absorbing != event:
                    return None
        return absorbing
