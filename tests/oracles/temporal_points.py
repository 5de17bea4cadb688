"""Reference temporal points and rule statistics (Definition 5.1).

The *temporal points* of a pattern ``P`` in a sequence ``S`` are the
positions ``j`` such that the prefix of ``S`` ending at ``j`` is a
super-sequence of ``P`` and ``S[j] = last(P)``.  This module derives them
straight from the definition (:func:`temporal_points_in_sequence`) and
builds s-support, i-support and confidence on top
(:func:`rule_statistics`).  The rule miners' incremental statistics and
the streaming monitor are checked against it, and the two-event baseline
(:mod:`tests.baselines.sequential`) scores its candidates with it.

A convenient characterisation used throughout: once the *earliest* (greedy)
embedding of ``P[:-1]`` in ``S`` is known to end at position ``q``, the
temporal points of ``P`` are exactly the occurrences of ``last(P)`` at
positions strictly greater than ``q``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, NamedTuple, Optional, Sequence as TypingSequence, Tuple

from repro.core.errors import PatternError
from repro.core.events import EventId
from repro.core.pattern import is_subsequence
from repro.core.positions import PositionIndex, SequencePositions


class TemporalPoint(NamedTuple):
    """A temporal point: a sequence index and the position of the point."""

    sequence_index: int
    position: int


def earliest_embedding_end(
    sequence: TypingSequence[EventId], pattern: TypingSequence[EventId]
) -> Optional[int]:
    """End position of the greedy (earliest) embedding of ``pattern`` in ``sequence``.

    Returns ``None`` when ``pattern`` is not a subsequence of ``sequence``.
    The empty pattern embeds "before the sequence" and returns ``-1``.
    """
    position = -1
    for event in pattern:
        position += 1
        while position < len(sequence) and sequence[position] != event:
            position += 1
        if position == len(sequence):
            return None
    return position


def temporal_points_in_sequence(
    sequence: TypingSequence[EventId], pattern: TypingSequence[EventId]
) -> List[int]:
    """All temporal points of ``pattern`` in ``sequence`` (Definition 5.1)."""
    if not pattern:
        raise PatternError("temporal points of an empty pattern are undefined")
    prefix_end = earliest_embedding_end(sequence, pattern[:-1])
    if prefix_end is None:
        return []
    last_event = pattern[-1]
    return [
        position
        for position in range(prefix_end + 1, len(sequence))
        if sequence[position] == last_event
    ]


def temporal_points(
    encoded_db: TypingSequence[TypingSequence[EventId]], pattern: TypingSequence[EventId]
) -> List[TemporalPoint]:
    """All temporal points of ``pattern`` across the database."""
    points: List[TemporalPoint] = []
    for sequence_index, sequence in enumerate(encoded_db):
        for position in temporal_points_in_sequence(sequence, pattern):
            points.append(TemporalPoint(sequence_index, position))
    return points


def count_occurrences_in_sequence(
    positions: SequencePositions,
    sequence: TypingSequence[EventId],
    pattern: TypingSequence[EventId],
) -> int:
    """Number of occurrences (temporal points) of ``pattern`` in one sequence."""
    if not pattern:
        raise PatternError("occurrences of an empty pattern are undefined")
    prefix_end = earliest_embedding_end(sequence, pattern[:-1])
    if prefix_end is None:
        return 0
    last_positions = positions.positions_of(pattern[-1])
    return len(last_positions) - bisect_right(last_positions, prefix_end)


def instance_support(
    encoded_db: TypingSequence[TypingSequence[EventId]],
    index: PositionIndex,
    pattern: TypingSequence[EventId],
) -> int:
    """The rule i-support building block: total occurrences of ``pattern`` in the database."""
    total = 0
    for sequence_index, sequence in enumerate(encoded_db):
        total += count_occurrences_in_sequence(index[sequence_index], sequence, pattern)
    return total


def sequence_support(
    encoded_db: TypingSequence[TypingSequence[EventId]], pattern: TypingSequence[EventId]
) -> int:
    """Number of sequences containing ``pattern`` as a subsequence (rule s-support)."""
    return sum(1 for sequence in encoded_db if is_subsequence(pattern, sequence))


def is_followed_by(
    sequence: TypingSequence[EventId], point: int, consequent: TypingSequence[EventId]
) -> bool:
    """Whether the suffix strictly after ``point`` contains ``consequent`` as a subsequence."""
    return is_subsequence(consequent, sequence[point + 1 :])


def rule_statistics(
    encoded_db: TypingSequence[TypingSequence[EventId]],
    index: PositionIndex,
    premise: TypingSequence[EventId],
    consequent: TypingSequence[EventId],
) -> Tuple[int, int, float]:
    """Reference ``(s_support, i_support, confidence)`` of a rule.

    Confidence is 0.0 when the premise never occurs.
    """
    premise = tuple(premise)
    consequent = tuple(consequent)
    s_support = sequence_support(encoded_db, premise)
    i_support = instance_support(encoded_db, index, premise + consequent)
    points = temporal_points(encoded_db, premise)
    if not points:
        return (s_support, i_support, 0.0)
    followed = sum(
        1
        for point in points
        if is_followed_by(encoded_db[point.sequence_index], point.position, consequent)
    )
    return (s_support, i_support, followed / len(points))
