"""Reference closed-pattern checks over instance tuples (Definition 4.2).

The list-based counterparts of :mod:`repro.patterns.closure`: the backward
check through :func:`tests.oracles.projection.backward_extension_events`,
and the infix check by re-matching every candidate insertion with the
exact QRE matcher of :mod:`repro.core.instances`.  The property tests hold
the closed miner's block checks to these verdicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence as TypingSequence, Tuple

from repro.core.events import EncodedDatabase, EventId
from repro.core.instances import (
    PatternInstance,
    find_instances_in_sequence,
    gap_events,
    instances_correspond,
)
from repro.core.positions import PositionIndex
from repro.patterns.closure import forward_closure_violation

from .projection import backward_extension_events, occurs_between


def backward_closure_violation(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Optional[EventId]:
    """An event whose backward extension absorbs every instance, or ``None``."""
    events = backward_extension_events(encoded_db, index, pattern, instances)
    if events:
        return min(events)
    return None


def _gap_candidates(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Dict[EventId, List[int]]:
    """Candidate infix insertions: events in the gaps of every instance.

    Returns a mapping from each candidate event (outside the pattern
    alphabet, occurring strictly inside every instance span) to the gap
    positions it occupies *in the first instance* — a sound restriction of
    the insertion positions worth verifying, because an insertion that
    preserves every instance must in particular appear in that gap of the
    first instance.
    """
    if not instances:
        return {}
    alphabet = frozenset(pattern)
    first_instance = instances[0]
    first_sequence = encoded_db[first_instance.sequence_index]
    gaps_by_event: Dict[EventId, List[int]] = {}
    for gap_index, position in gap_events(
        first_sequence, pattern, (first_instance.start, first_instance.end)
    ):
        gaps = gaps_by_event.setdefault(first_sequence[position], [])
        if gap_index not in gaps:
            gaps.append(gap_index)
    candidates = set(gaps_by_event)
    for instance in instances[1:]:
        if not candidates:
            return {}
        positions = index[instance.sequence_index]
        candidates = {
            event
            for event in candidates
            if occurs_between(positions, event, instance.start, instance.end)
        }
    return {event: gaps_by_event[event] for event in candidates}


def infix_closure_violation(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Optional[Tuple[EventId, int]]:
    """A ``(event, insert_position)`` infix insertion violating closedness, or ``None``.

    The returned ``insert_position`` is the index in the pattern *before*
    which the event is inserted (``1 .. len(pattern) - 1``).
    """
    candidates = _gap_candidates(encoded_db, index, pattern, instances)
    if not candidates:
        return None
    support = len(instances)
    for event in sorted(candidates):
        for insert_position in candidates[event]:
            extended = pattern[:insert_position] + (event,) + pattern[insert_position:]
            extended_instances = _oracle_instances(encoded_db, index, extended)
            if len(extended_instances) != support:
                continue
            if instances_correspond(instances, extended_instances):
                return (event, insert_position)
    return None


def _oracle_instances(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
) -> List[PatternInstance]:
    """Exact instances of ``pattern`` across the database.

    Only sequences containing every event of the pattern can host an
    instance, so sequences failing that cheap index check are skipped before
    running the exact QRE matcher.  Scanning the *whole* database (rather
    than only sequences hosting the base pattern) matters for correctness:
    instance support is not anti-monotone under event insertion, so the
    extension may have instances in sequences the base pattern never matched,
    and undercounting them could wrongly equate the two supports.
    """
    needed = tuple(frozenset(pattern))
    results: List[PatternInstance] = []
    for sequence_index, sequence in enumerate(encoded_db):
        positions = index[sequence_index]
        if any(positions.count(event) == 0 for event in needed):
            continue
        for start, end in find_instances_in_sequence(sequence, pattern):
            results.append(PatternInstance(sequence_index, start, end))
    return results


def is_closed(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
    extension_instances: Dict[EventId, List[PatternInstance]],
    check_infix: bool = True,
) -> bool:
    """Full closedness check combining the forward, backward and infix tests."""
    if forward_closure_violation(extension_instances, len(instances)) is not None:
        return False
    if backward_closure_violation(encoded_db, index, pattern, instances) is not None:
        return False
    if check_infix and infix_closure_violation(encoded_db, index, pattern, instances) is not None:
        return False
    return True
