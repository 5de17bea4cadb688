"""Reference projection over instance tuples.

A direct, readable translation of the incremental projection rules in
:mod:`repro.core.projection`, over ``List[PatternInstance]`` and per-event
``bisect`` queries (:func:`last_before`, :func:`occurs_between`) instead
of occurrence links.  The miners run the columnar block path; the
property tests and the hot-path benchmark compare it against these
functions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, List, Optional, Sequence as TypingSequence, Set, Tuple

from repro.core.events import EncodedDatabase, EventId
from repro.core.instances import PatternInstance
from repro.core.positions import PositionIndex, SequencePositions


def last_before(positions: SequencePositions, event: EventId, position: int) -> Optional[int]:
    """Last occurrence of ``event`` strictly before ``position``."""
    occurrences = positions.positions_of(event)
    index = bisect_left(occurrences, position)
    return occurrences[index - 1] if index else None


def occurs_between(positions: SequencePositions, event: EventId, lo: int, hi: int) -> bool:
    """Whether ``event`` occurs at any position in the open interval ``(lo, hi)``."""
    occurrences = positions.positions_of(event)
    index = bisect_right(occurrences, lo)
    return index < len(occurrences) and occurrences[index] < hi


def singleton_instances(encoded_db: EncodedDatabase) -> Dict[EventId, List[PatternInstance]]:
    """Instances of every single-event pattern ``<e>`` in one database pass."""
    instances: Dict[EventId, List[PatternInstance]] = {}
    for sequence_index, sequence in enumerate(encoded_db):
        for position, event in enumerate(sequence):
            instances.setdefault(event, []).append(
                PatternInstance(sequence_index, position, position)
            )
    return instances


def _first_alphabet_event_after(
    positions: SequencePositions, alphabet: FrozenSet[EventId], position: int
) -> Optional[int]:
    """Position of the first occurrence of any alphabet event strictly after ``position``."""
    best: Optional[int] = None
    for event in alphabet:
        candidate = positions.first_after(event, position)
        if candidate is not None and (best is None or candidate < best):
            best = candidate
    return best


def _last_alphabet_event_before(
    positions: SequencePositions, alphabet: FrozenSet[EventId], position: int
) -> Optional[int]:
    """Position of the last occurrence of any alphabet event strictly before ``position``."""
    best: Optional[int] = None
    for event in alphabet:
        candidate = last_before(positions, event, position)
        if candidate is not None and (best is None or candidate > best):
            best = candidate
    return best


def forward_extensions(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Dict[EventId, List[PatternInstance]]:
    """Instances of every frequent-or-not single-event forward extension of ``pattern``.

    Returns a mapping ``e -> instances of pattern ++ <e>``.  Only events that
    yield at least one instance appear as keys.

    The miners run :func:`repro.core.projection.forward_extensions_block`,
    which the property tests hold to this function row for row.
    """
    alphabet = frozenset(pattern)
    extensions: Dict[EventId, List[PatternInstance]] = {}
    for instance in instances:
        sequence = encoded_db[instance.sequence_index]
        positions = index[instance.sequence_index]
        boundary = _first_alphabet_event_after(positions, alphabet, instance.end)
        window_end = boundary if boundary is not None else len(sequence)
        seen_outside: Set[EventId] = set()
        # Events outside the pattern alphabet occurring before the next
        # alphabet event: their first occurrence ends the extended instance.
        for position in range(instance.end + 1, window_end):
            event = sequence[position]
            if event in seen_outside:
                continue
            seen_outside.add(event)
            if occurs_between(positions, event, instance.start, instance.end):
                # ``event`` appears in a gap of the current instance, so the
                # extended pattern's QRE (which excludes ``event`` from every
                # gap) is violated for this instance.
                continue
            extensions.setdefault(event, []).append(
                PatternInstance(instance.sequence_index, instance.start, position)
            )
        if boundary is not None:
            # The next alphabet event itself is a valid extension target: the
            # extended pattern then repeats an event it already contains.
            event = sequence[boundary]
            extensions.setdefault(event, []).append(
                PatternInstance(instance.sequence_index, instance.start, boundary)
            )
    return extensions


def backward_extension_instance(
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instance: PatternInstance,
    event: EventId,
) -> Optional[PatternInstance]:
    """The instance of ``<event> ++ pattern`` extending ``instance`` backwards, if any.

    When ``event`` belongs to the pattern's alphabet, its last occurrence
    before the instance start may coincide with the last alphabet occurrence;
    that position is a valid backward extension (the extended pattern repeats
    an event it already contains), so only a *strictly later* alphabet
    occurrence blocks the extension.
    """
    alphabet = frozenset(pattern)
    positions = index[instance.sequence_index]
    if event not in alphabet and occurs_between(positions, event, instance.start, instance.end):
        return None
    previous_alphabet = _last_alphabet_event_before(positions, alphabet, instance.start)
    previous_event = last_before(positions, event, instance.start)
    if previous_event is None:
        return None
    if previous_alphabet is not None and previous_alphabet > previous_event:
        return None
    return PatternInstance(instance.sequence_index, previous_event, instance.end)


def backward_extension_events(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Set[EventId]:
    """Events ``e`` such that *every* instance of ``pattern`` extends to ``<e> ++ pattern``.

    Used by the closure check: any such event proves the pattern non-closed
    (Definition 4.2), because the instance counts match and each instance of
    the pattern nests inside the corresponding backward-extended instance.

    The miners run :func:`repro.core.projection.backward_extension_events_block`.
    """
    if not instances:
        return set()
    candidates: Optional[Set[EventId]] = None
    alphabet = frozenset(pattern)
    for instance in instances:
        sequence = encoded_db[instance.sequence_index]
        positions = index[instance.sequence_index]
        previous_alphabet = _last_alphabet_event_before(positions, alphabet, instance.start)
        window_start = previous_alphabet + 1 if previous_alphabet is not None else 0
        local: Set[EventId] = set()
        for position in range(window_start, instance.start):
            event = sequence[position]
            if event in alphabet:
                continue
            if occurs_between(positions, event, instance.start, instance.end):
                continue
            local.add(event)
        if previous_alphabet is not None:
            event = sequence[previous_alphabet]
            # A pattern-alphabet event immediately "reachable" to the left is
            # also a valid backward extension (the pattern repeats it).
            local.add(event)
        candidates = local if candidates is None else (candidates & local)
        if not candidates:
            return set()
    return candidates or set()
