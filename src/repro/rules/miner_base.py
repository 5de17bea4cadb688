"""Shared driver for the full and non-redundant recurrent-rule miners.

Both miners follow the five-step recipe of Section 5: enumerate s-frequent
premises (Theorem 2 pruning), compute their temporal points, grow consequents
with confidence pruning (Theorem 3), filter by i-support, and finally filter
redundant rules.  The only difference between the two miners is one class
flag, ``non_redundant_only``: it makes the consequent grower suppress
dominated rules early and applies the final Definition 5.2 sweep.

Like the pattern miners, the premise search is *root-parallel* and
*unit-shardable*: the subtree below each single-event premise is
independent, and any frontier premise inside a subtree can be carved off
as a :class:`~repro.engine.sharding.WorkUnit` keyed by its ``(root,
split-path)`` — the thief re-derives the premise projections with one
binary search per supporting sequence per path step.  A premise's
consequent growth — the heavy phase of rule mining — can likewise leave as
its own ``consequent`` unit when the pool runs hungry; that unit emits the
premise's final rules.  The miners plug into the engine through
:class:`~repro.engine.runner.SearchMinerBase`, which owns ``mine()``,
context building, planning and the unit protocol; this module adds the
rule family's root weights (sequence counts) and payloads (single-event
premise projections), path replay, the premise visit, the deferred
consequent phase and ``collect_result``.  A search node is the pair
``(premise, projections)``.  Merged output is
bit-identical on every backend because the serial emission order equals the
ascending lexicographic order of ``(premise, consequent)`` keys.  The
Definition 5.2 sweep is global, so it always runs in the coordinating
process after the deterministic merge, on the encoded records and before
decode: only the rules that survive it are turned back into labels.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.blocks import PositionBlock
from ..core.events import EventId
from ..core.sequence import SequenceDatabase
from ..core.stats import MiningStats
from ..engine import SearchContext, SearchMinerBase
from ..engine.stealing import FrontierFrame
from .config import RuleMiningConfig
from .consequent_miner import ConsequentGrower
from .premise_miner import (
    premise_extensions,
    initial_premise_projections,
    project_premise_extension,
)
from .redundancy import filter_redundant
from .result import RuleMiningResult
from .rule import RecurrentRule

#: Work-unit kinds of the rule search: ``rules`` mines a whole premise
#: subtree (consequent growth included), ``consequent`` runs the deferred
#: consequent growth of a single premise.
RULES_UNIT = "rules"
CONSEQUENT_UNIT = "consequent"

#: A premise search node: the premise and its projections.
PremiseNode = Tuple[Tuple[EventId, ...], PositionBlock]


class RuleRecord(NamedTuple):
    """An emitted rule in encoded (event-id) form, as produced by workers."""

    premise: Tuple[EventId, ...]
    consequent: Tuple[EventId, ...]
    s_support: int
    i_support: int
    confidence: float


class RecurrentRuleMinerBase(SearchMinerBase):
    """Template-method base class for the recurrent-rule miners."""

    config: RuleMiningConfig
    #: Mine only non-redundant rules: suppress rules dominated by their own
    #: consequent extension during growth, then apply the final Definition
    #: 5.2 sweep.  Also copied to the result object.
    non_redundant_only = False
    subtree_kind = RULES_UNIT
    deferred_kind = CONSEQUENT_UNIT
    offload_counter = "consequent_offloads"

    def collect_result(
        self,
        database: SequenceDatabase,
        records: List["RuleRecord"],
        stats: MiningStats,
    ) -> RuleMiningResult:
        """Decode merged records into the public result (coordinator side).

        The global Definition 5.2 redundancy sweep belongs here — it
        compares rules across premises, so it must always run over the
        *complete* merged record set.  It runs on the encoded records
        (subsequence tests do not depend on the labels), so only the
        surviving rules are decoded.  Factored out of :meth:`mine` so the
        incremental miner can rebuild a result from cached-plus-fresh
        records through the exact same path a from-scratch mine uses.
        """
        if self.non_redundant_only:
            records, dropped = filter_redundant(records)
            stats.pruned_redundancy += len(dropped)
        result = RuleMiningResult(
            stats=stats,
            min_s_support=self.resolved_support_threshold(database),
            min_i_support=self.config.min_i_support,
            min_confidence=self.config.min_confidence,
            non_redundant_only=self.non_redundant_only,
        )
        vocabulary = database.vocabulary
        for record in records:
            result.rules.append(
                RecurrentRule(
                    premise=vocabulary.decode(record.premise),
                    consequent=vocabulary.decode(record.consequent),
                    s_support=record.s_support,
                    i_support=record.i_support,
                    confidence=record.confidence,
                )
            )
        return result

    # ------------------------------------------------------------------ #
    # Incremental mining protocol
    # ------------------------------------------------------------------ #
    def runner_extras(self, database: SequenceDatabase) -> Dict[str, Any]:
        """Resolve the configured premise label filter to current event ids."""
        extras: Dict[str, Any] = {}
        if self.config.allowed_premise_events is not None:
            vocabulary = database.vocabulary
            extras["allowed_event_ids"] = frozenset(
                vocabulary.id_of(label)
                for label in self.config.allowed_premise_events
                if label in vocabulary
            )
        return extras

    @staticmethod
    def record_sort_key(record: "RuleRecord") -> Tuple[Tuple[EventId, ...], ...]:
        """The canonical merge key: serial order == (premise, consequent)."""
        return (record.premise, record.consequent)

    # ------------------------------------------------------------------ #
    # Engine miner protocol
    # ------------------------------------------------------------------ #
    def _min_support(self) -> float:
        return self.config.min_s_support

    def _root_weights(self, context: SearchContext) -> Counter[EventId]:
        """Per-event sequence counts, which equal root projection counts.

        A counts-only database pass, so the coordinator never materialises
        the projection lists the workers will build for themselves.
        """
        allowed = context.extras.get("allowed_event_ids")
        counts: Counter[EventId] = Counter()
        for sequence in context.encoded:
            distinct = set(sequence)
            if allowed is not None:
                distinct &= allowed
            counts.update(distinct)
        return counts

    def _root_payloads(self, context: SearchContext) -> Dict[EventId, PositionBlock]:
        """The single-event premise projections every subtree starts from."""
        return initial_premise_projections(
            context.encoded, context.extras.get("allowed_event_ids")
        )

    # ------------------------------------------------------------------ #
    # Unit-search internals
    # ------------------------------------------------------------------ #
    def _replay(
        self,
        context: SearchContext,
        path: Tuple[EventId, ...],
        stats: MiningStats,
    ) -> PremiseNode:
        """Re-derive a split premise's projections by replaying its path."""
        projections = context.roots[path[0]]
        for event in path[1:]:
            projections = project_premise_extension(context.index, projections, event)
            stats.bump("steal_replayed_rows", len(projections))
        return path, projections

    def _child(
        self, frame: FrontierFrame, event: EventId, projections: PositionBlock
    ) -> PremiseNode:
        return frame.key + (event,), projections

    def _visit(
        self,
        context: SearchContext,
        node: PremiseNode,
        records: List[RuleRecord],
        stats: MiningStats,
        splitter: Any,
    ) -> "Optional[FrontierFrame]":
        """Visit one premise node: grow (or defer) its rules, open its frame."""
        premise, projections = node
        stats.visited += 1
        # Consequent growth is the heavy phase behind each premise; when
        # the pool is hungry it leaves as its own unit, with the premise's
        # supporting-sequence count as the cost hint.
        self._offload_or_run(
            context, premise, node, len(projections), records, stats, splitter
        )
        if (
            self.config.max_premise_length is not None
            and len(premise) >= self.config.max_premise_length
        ):
            return None
        extensions = premise_extensions(
            context.encoded, projections, context.extras.get("allowed_event_ids")
        )
        return FrontierFrame(premise, None, extensions, sorted(extensions))

    def _run_deferred(
        self,
        context: SearchContext,
        node: PremiseNode,
        records: List[RuleRecord],
        stats: MiningStats,
    ) -> None:
        premise, projections = node
        self._grow_consequents(context, premise, projections, records, stats)

    def _grow_consequents(
        self,
        context: SearchContext,
        premise: Tuple[EventId, ...],
        projections: PositionBlock,
        records: List[RuleRecord],
        stats: MiningStats,
    ) -> None:
        """Run the consequent grower for one premise, appending its rules."""
        grower = ConsequentGrower(
            encoded_db=context.encoded,
            index=context.index,
            premise=premise,
            premise_projections=projections,
            config=self.config,
            stats=stats,
        )
        for grown in grower.grow(skip_dominated=self.non_redundant_only):
            records.append(
                RuleRecord(
                    premise=premise,
                    consequent=grown.consequent,
                    s_support=grown.s_support,
                    i_support=grown.i_support,
                    confidence=grown.confidence,
                )
            )
