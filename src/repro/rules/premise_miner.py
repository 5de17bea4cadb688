"""Premise generation for recurrent-rule mining (Step 1 of Section 5).

Premises are patterns whose *sequence support* (number of sequences
containing them as a subsequence) meets ``min_s_support``.  The search is a
PrefixSpan-style depth-first pattern growth over earliest-position
projections; the s-support apriori property (Theorem 2: extending a premise
can only lower its sequence support) makes the pruning sound.  The rule
miners run that search as work units (:mod:`repro.rules.miner_base`); this
module supplies its projection steps.

Projections are kept columnar: a
:class:`~repro.core.blocks.PositionBlock` holds one ``(sequence_index,
end_position)`` row per supporting sequence as two flat ``array('i')``
columns, so the growth loop iterates ints and extension lists are built by
appending to int columns instead of allocating a tuple per sequence.
Iterating a block yields ``(sequence_index, position)`` pairs, preserving
the tuple-based interface for consumers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from ..core.blocks import PositionBlock, PositionBlockBuilder
from ..core.events import EncodedDatabase, EventId
from ..core.positions import PositionIndex


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
    extension columns come out ascending as well.  The unit-based rule
    search calls it once per visited premise.
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

