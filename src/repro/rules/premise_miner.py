"""Premise generation for recurrent-rule mining (Step 1 of Section 5).

Premises are patterns whose *sequence support* (number of sequences
containing them as a subsequence) meets ``min_s_support``.  The search is a
PrefixSpan-style depth-first pattern growth over earliest-position
projections; the s-support apriori property (Theorem 2: extending a premise
can only lower its sequence support) makes the pruning sound.

Projections are kept columnar: a
:class:`~repro.core.blocks.PositionBlock` holds one ``(sequence_index,
end_position)`` row per supporting sequence as two flat ``array('i')``
columns, so the growth loop iterates ints and extension lists are built by
appending to int columns instead of allocating a tuple per sequence.
Iterating a block yields ``(sequence_index, position)`` pairs, preserving
the tuple-based interface for consumers.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
)

from ..core.blocks import PositionBlock, PositionBlockBuilder
from ..core.events import EncodedDatabase, EventId
from ..core.positions import PositionIndex
from ..core.stats import MiningStats


class MinedPremise(NamedTuple):
    """A premise candidate: the pattern, its s-support and its projections.

    ``projections`` maps each supporting sequence index to the end position
    of the earliest embedding of the premise in that sequence (columnar,
    one row per sequence, ascending); the consequent grower reuses it to
    seed the i-support recurrence.
    """

    pattern: Tuple[EventId, ...]
    s_support: int
    projections: PositionBlock


def initial_premise_projections(
    encoded_db: EncodedDatabase,
    allowed_events: Optional[FrozenSet[EventId]] = None,
) -> Dict[EventId, PositionBlock]:
    """Earliest-occurrence projections of every single-event premise.

    Maps each (allowed) event to a :class:`PositionBlock` of
    ``(sequence_index, position)`` rows, one per sequence containing it,
    pointing at its earliest occurrence.  This is the root level of the
    premise search; the engine computes it once to plan the seed units and
    workers reuse it to seed their subtrees.
    """
    builders: Dict[EventId, PositionBlockBuilder] = {}
    for sequence_index, sequence in enumerate(encoded_db):
        seen: Dict[EventId, int] = {}
        for position, event in enumerate(sequence):
            if event not in seen and (allowed_events is None or event in allowed_events):
                seen[event] = position
        for event, position in seen.items():
            builder = builders.get(event)
            if builder is None:
                builder = builders[event] = PositionBlockBuilder()
            builder.append(sequence_index, position)
    return {event: builder.build() for event, builder in builders.items()}


def premise_extensions(
    encoded_db: EncodedDatabase,
    projections: PositionBlock,
    allowed_events: Optional[FrozenSet[EventId]] = None,
) -> Dict[EventId, PositionBlock]:
    """Earliest-occurrence projections of every single-event premise extension.

    Scans the projected suffixes once, recording for every candidate
    extension event its earliest position after the current embedding.
    Projections keep their rows in ascending sequence order, so the
    extension columns come out ascending as well.  Shared by the recursive
    premise miner and the unit-based rule search.
    """
    extensions: Dict[EventId, PositionBlockBuilder] = {}
    seq_ids = projections.seq_ids
    positions = projections.positions
    for row in range(len(seq_ids)):
        sequence_index = seq_ids[row]
        position = positions[row]
        sequence = encoded_db[sequence_index]
        seen: Dict[EventId, int] = {}
        for next_position in range(position + 1, len(sequence)):
            event = sequence[next_position]
            if event not in seen and (allowed_events is None or event in allowed_events):
                seen[event] = next_position
        for event, next_position in seen.items():
            builder = extensions.get(event)
            if builder is None:
                builder = extensions[event] = PositionBlockBuilder()
            builder.append(sequence_index, next_position)
    return {event: builder.build() for event, builder in extensions.items()}


def project_premise_extension(
    index: PositionIndex, projections: PositionBlock, event: EventId
) -> PositionBlock:
    """The single-event restriction of :func:`premise_extensions`.

    Row-identical to ``premise_extensions(...)[event]`` but answered with
    one binary search per supporting sequence instead of a suffix scan —
    the work-unit replay path uses this to re-derive a split premise
    node's projections along its path.
    """
    builder = PositionBlockBuilder()
    seq_ids = projections.seq_ids
    positions = projections.positions
    for row in range(len(seq_ids)):
        sequence_index = seq_ids[row]
        next_position = index[sequence_index].first_after(event, positions[row])
        if next_position is not None:
            builder.append(sequence_index, next_position)
    return builder.build()


class PremiseMiner:
    """Enumerate all premises with sequence support at least ``min_s_support``."""

    def __init__(
        self,
        min_s_support: int,
        max_length: Optional[int] = None,
        stats: Optional[MiningStats] = None,
        allowed_events: Optional[FrozenSet[EventId]] = None,
    ) -> None:
        self.min_s_support = max(1, min_s_support)
        self.max_length = max_length
        self.stats = stats if stats is not None else MiningStats()
        self.allowed_events = allowed_events

    def _is_allowed(self, event: EventId) -> bool:
        return self.allowed_events is None or event in self.allowed_events

    def mine(self, encoded_db: EncodedDatabase) -> Iterator[MinedPremise]:
        """Yield every s-frequent premise, depth-first, shortest prefix first."""
        initial = initial_premise_projections(encoded_db, self.allowed_events)
        for event in sorted(initial):
            projections = initial[event]
            if len(projections) < self.min_s_support:
                self.stats.pruned_support += 1
                continue
            yield from self.grow_from_root(encoded_db, event, projections)

    def grow_from_root(
        self,
        encoded_db: EncodedDatabase,
        event: EventId,
        projections: PositionBlock,
    ) -> Iterator[MinedPremise]:
        """Yield the s-frequent premises of one root's subtree, depth-first.

        ``projections`` must be the earliest-occurrence projections of
        ``<event>`` (see :func:`initial_premise_projections`); the engine
        reaches it through the root's work unit.
        """
        yield from self._grow(encoded_db, (event,), projections)

    def _grow(
        self,
        encoded_db: EncodedDatabase,
        pattern: Tuple[EventId, ...],
        projections: PositionBlock,
    ) -> Iterator[MinedPremise]:
        self.stats.visited += 1
        yield MinedPremise(pattern, len(projections), projections)

        if self.max_length is not None and len(pattern) >= self.max_length:
            return

        extensions = premise_extensions(encoded_db, projections, self.allowed_events)
        for event in sorted(extensions):
            extended_projections = extensions[event]
            if len(extended_projections) < self.min_s_support:
                self.stats.pruned_support += 1
                continue
            yield from self._grow(encoded_db, pattern + (event,), extended_projections)
