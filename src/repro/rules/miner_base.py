"""Shared driver for the full and non-redundant recurrent-rule miners.

Both miners follow the five-step recipe of Section 5: enumerate s-frequent
premises (Theorem 2 pruning), compute their temporal points, grow consequents
with confidence pruning (Theorem 3), filter by i-support, and finally filter
redundant rules.  The only differences between the two miners are whether the
consequent grower suppresses dominated rules early and whether the final
Definition 5.2 sweep is applied; both choices live in class attributes.

Like the pattern miners, the premise search is *root-parallel* and
*unit-shardable*: the subtree below each single-event premise is
independent, and any frontier premise inside a subtree can be carved off
as a :class:`~repro.engine.sharding.WorkUnit` keyed by its ``(root,
split-path)`` — the thief re-derives the premise projections with one
binary search per supporting sequence per path step.  A premise's
consequent growth — the heavy phase of rule mining — can likewise leave as
its own ``consequent`` unit when the pool runs hungry.  The miners
implement the engine's protocol (``build_context`` / ``plan_roots`` /
``initial_units`` / ``mine_unit`` / ``resolve_units``); merged output is
bit-identical on every backend because the serial emission order equals the
ascending lexicographic order of ``(premise, consequent)`` keys.  The
Definition 5.2 sweep is global, so it always runs in the coordinating
process after the deterministic merge.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..core.blocks import PositionBlock
from ..core.errors import ConfigurationError
from ..core.events import EncodedDatabase, EventId
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


class RuleRecord(NamedTuple):
    """An emitted rule in encoded (event-id) form, as produced by workers."""

    premise: Tuple[EventId, ...]
    consequent: Tuple[EventId, ...]
    s_support: int
    i_support: int
    confidence: float


class RuleSearchContext(LazyIndexContext):
    """Per-run search state, built once per process by the engine.

    The index and the root premise projections are materialised lazily:
    the coordinating process only plans (a counts-only pass), so only the
    processes that actually mine pay for them — each exactly once,
    reused across all the units that process executes.
    """

    __slots__ = ("min_s_support", "allowed_events", "_initial")

    def __init__(
        self,
        encoded: EncodedDatabase,
        min_s_support: int,
        allowed_events: Optional[FrozenSet[EventId]],
    ) -> None:
        super().__init__(encoded)
        self.min_s_support = min_s_support
        self.allowed_events = allowed_events
        self._initial: Optional[Dict[EventId, PositionBlock]] = None

    @property
    def initial(self) -> Dict[EventId, PositionBlock]:
        if self._initial is None:
            self._initial = initial_premise_projections(self.encoded, self.allowed_events)
        return self._initial

    def absorb_appended(self, new_sequences: Any) -> None:
        """Extend the live index with appended sequences (incremental path).

        The root projection cache is invalidated rather than extended: it
        is rebuilt lazily from the grown database on next use, while the
        position index — the expensive part — grows in place.
        """
        super().absorb_appended(new_sequences)
        self._initial = None


class RecurrentRuleMinerBase:
    """Template-method base class for the recurrent-rule miners."""

    #: suppress rules dominated by their own consequent extension during growth
    skip_dominated = False
    #: apply the final Definition 5.2 redundancy sweep
    apply_final_redundancy_filter = False
    #: marker copied to the result object
    non_redundant_only = False

    def __init__(
        self, config: RuleMiningConfig, backend: Optional[ExecutionBackend] = None
    ) -> None:
        self.config = config
        self.backend = backend

    def mine(
        self, database: SequenceDatabase, backend: Optional[ExecutionBackend] = None
    ) -> RuleMiningResult:
        """Mine the database and return the (full or non-redundant) rule set.

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
        records: List["RuleRecord"],
        stats: MiningStats,
    ) -> RuleMiningResult:
        """Decode merged records into the public result (coordinator side).

        The global Definition 5.2 redundancy sweep belongs here — it
        compares rules across premises, so it must always run over the
        *complete* merged record set.  Factored out of :meth:`mine` so the
        incremental miner can rebuild a result from cached-plus-fresh
        records through the exact same path a from-scratch mine uses.
        """
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
        if self.apply_final_redundancy_filter:
            kept, dropped = filter_redundant(result.rules)
            result.rules = kept
            stats.pruned_redundancy += len(dropped)
        return result

    # ------------------------------------------------------------------ #
    # Incremental mining protocol
    # ------------------------------------------------------------------ #
    def resolved_support_threshold(self, database: SequenceDatabase) -> int:
        """The absolute sequence-support threshold against the current size."""
        return database.absolute_support(self.config.min_s_support)

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
    def record_root(record: "RuleRecord") -> EventId:
        """The first-level root that produced ``record`` (premise head)."""
        return record.premise[0]

    @staticmethod
    def record_sort_key(record: "RuleRecord") -> Tuple[Tuple[EventId, ...], ...]:
        """The canonical merge key: serial order == (premise, consequent)."""
        return (record.premise, record.consequent)

    # ------------------------------------------------------------------ #
    # Engine miner protocol
    # ------------------------------------------------------------------ #
    def build_context(
        self, encoded: EncodedDatabase, extras: Dict[str, Any]
    ) -> RuleSearchContext:
        """Build the per-process search context (index + root projections)."""
        allowed_events = extras.get("allowed_event_ids")
        return RuleSearchContext(
            encoded=encoded,
            min_s_support=absolute_support(self.config.min_s_support, len(encoded)),
            allowed_events=allowed_events,
        )

    def plan_roots(self, context: RuleSearchContext) -> PlanResult:
        """Frequent single-event premises, weighted by sequence support.

        A counts-only database pass: the number of sequences containing an
        event equals its root projection count, so the coordinator never
        materialises the projection lists the workers will build for
        themselves.
        """
        allowed = context.allowed_events
        counts: Counter = Counter()
        for sequence in context.encoded:
            distinct = set(sequence)
            if allowed is not None:
                distinct &= allowed
            counts.update(distinct)
        return plan_weighted_roots(counts, context.min_s_support)

    def initial_units(
        self, context: RuleSearchContext, plan: PlanResult
    ) -> List[WorkUnit]:
        """One rules unit per frequent root premise, weighted by s-support."""
        return [
            WorkUnit(RULES_UNIT, root, (root,), weight) for root, weight in plan.roots
        ]

    def mine_unit(
        self,
        context: RuleSearchContext,
        unit: WorkUnit,
        stats: MiningStats,
        splitter: Any,
    ) -> List[RuleRecord]:
        """Execute one work unit: a premise subtree or one deferred grower."""
        records: List[RuleRecord] = []
        if unit.kind == CONSEQUENT_UNIT:
            projections = self._replay_projections(context, unit.path, stats)
            self._grow_consequents(context, unit.path, projections, records, stats)
            return records
        if unit.kind != RULES_UNIT:
            raise ConfigurationError(f"unknown rule work-unit kind {unit.kind!r}")
        projections = self._replay_projections(context, unit.path, stats)

        def visit_child(
            frame: FrontierFrame, event: EventId, child_projections: PositionBlock
        ) -> "Optional[FrontierFrame]":
            return self._visit_premise(
                context, frame.key + (event,), child_projections, records, stats, splitter
            )

        drive_split_subtree(
            self._visit_premise(context, unit.path, projections, records, stats, splitter),
            visit_child,
            context.min_s_support,
            splitter,
            stats,
            RULES_UNIT,
        )
        return records

    def resolve_units(self, outcomes: List[UnitOutcome]) -> List[RuleRecord]:
        """Reassemble unit outcomes into the canonical serial record order.

        Premises are emitted depth-first over children in ascending event
        order and each premise's consequents likewise, so the serial rule
        order is exactly the ascending lexicographic order of the
        ``(premise, consequent)`` pairs — whichever unit produced each.
        """
        records: List[RuleRecord] = []
        for outcome in outcomes:
            records.extend(outcome.records)
        records.sort(key=lambda record: (record.premise, record.consequent))
        return records

    # ------------------------------------------------------------------ #
    # Unit-search internals
    # ------------------------------------------------------------------ #
    def _replay_projections(
        self,
        context: RuleSearchContext,
        path: Tuple[EventId, ...],
        stats: MiningStats,
    ) -> PositionBlock:
        """Re-derive a split premise's projections by replaying its path."""
        projections = context.initial[path[0]]
        for event in path[1:]:
            projections = project_premise_extension(context.index, projections, event)
            stats.bump("steal_replayed_rows", len(projections))
        return projections

    def _visit_premise(
        self,
        context: RuleSearchContext,
        premise: Tuple[EventId, ...],
        projections: PositionBlock,
        records: List[RuleRecord],
        stats: MiningStats,
        splitter: Any,
    ) -> "Optional[FrontierFrame]":
        """Visit one premise node: grow (or defer) its rules, open its frame."""
        stats.visited += 1
        # Consequent growth is the heavy phase behind each premise; when
        # the pool is hungry it leaves as its own unit, with the premise's
        # supporting-sequence count as the cost hint.
        if splitter.should_offload(len(projections)):
            splitter.submit(
                [WorkUnit(CONSEQUENT_UNIT, premise[0], premise, len(projections))]
            )
            stats.bump("consequent_offloads")
        else:
            self._grow_consequents(context, premise, projections, records, stats)

        if (
            self.config.max_premise_length is not None
            and len(premise) >= self.config.max_premise_length
        ):
            return None
        extensions = premise_extensions(
            context.encoded, projections, context.allowed_events
        )
        return FrontierFrame(premise, None, extensions, sorted(extensions))

    def _grow_consequents(
        self,
        context: RuleSearchContext,
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
        for grown in grower.grow(skip_dominated=self.skip_dominated):
            records.append(
                RuleRecord(
                    premise=premise,
                    consequent=grown.consequent,
                    s_support=grown.s_support,
                    i_support=grown.i_support,
                    confidence=grown.confidence,
                )
            )
