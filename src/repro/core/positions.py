"""Per-sequence, per-event sorted position indexes and occurrence links.

The incremental miners repeatedly ask two kinds of question about a
sequence:

* "where is the first occurrence of event ``e`` strictly after position
  ``p``?" (forward extension), answered in ``O(log L)`` by keeping, for
  every event id, the sorted list of its positions in the sequence; and
* "does the event at position ``p`` also occur inside the open interval
  ``(lo, hi)``?" (gap checks for the QRE instance semantics), answered in
  ``O(1)`` by the per-position occurrence links :attr:`~SequencePositions.previous`
  and :attr:`~SequencePositions.following` — the previous / next position
  of the same event.  If ``p`` is the first occurrence of its event after
  ``hi``, the event occurs in ``(lo, hi)`` exactly when ``lo < previous[p]
  < hi``; if ``p`` is the last occurrence before ``lo``, exactly when
  ``lo < following[p] < hi``.  In the pattern kernels ``lo`` and ``hi``
  hold pattern events, which a gap event never is, so each gap check is
  one comparison.

:class:`PositionIndex` builds and caches both structures for a whole
encoded database, one sequence at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence as TypingSequence, Tuple

from .events import EventId


class SequencePositions:
    """Sorted occurrence positions and occurrence links for one sequence.

    ``previous[p]`` / ``following[p]`` are the previous / next position of
    the event ``sequence[p]`` (``-1`` / the sequence length if there is
    none); they are built in the same pass as the occurrence table.
    """

    __slots__ = ("length", "_positions", "previous", "following")

    def __init__(self, encoded: TypingSequence[EventId]) -> None:
        length = self.length = len(encoded)
        positions: Dict[EventId, List[int]] = {}
        previous = [-1] * length
        following = [length] * length
        for index, event in enumerate(encoded):
            occurrences = positions.get(event)
            if occurrences is None:
                positions[event] = [index]
            else:
                last = occurrences[-1]
                previous[index] = last
                following[last] = index
                occurrences.append(index)
        self._positions = positions
        self.previous = previous
        self.following = following

    def positions_of(self, event: EventId) -> List[int]:
        """All positions of ``event`` (possibly empty), sorted ascending."""
        return self._positions.get(event, [])

    def table(self) -> Dict[EventId, List[int]]:
        """The raw ``event -> sorted positions`` mapping (read-only view).

        Exposed for the columnar hot loops, which inline their binary
        searches over the per-event lists; callers must not mutate it.
        """
        return self._positions

    def count(self, event: EventId) -> int:
        """Number of occurrences of ``event`` in the sequence."""
        return len(self._positions.get(event, ()))

    def distinct_events(self) -> Tuple[EventId, ...]:
        """The distinct events occurring in the sequence."""
        return tuple(self._positions)

    def first_at_or_after(self, event: EventId, position: int) -> Optional[int]:
        """First occurrence of ``event`` at a position ``>= position``."""
        occurrences = self._positions.get(event)
        if not occurrences:
            return None
        index = bisect_left(occurrences, position)
        if index == len(occurrences):
            return None
        return occurrences[index]

    def first_after(self, event: EventId, position: int) -> Optional[int]:
        """First occurrence of ``event`` strictly after ``position``."""
        return self.first_at_or_after(event, position + 1)


class PositionIndex:
    """Position indexes for every sequence of an encoded database."""

    def __init__(self, encoded_sequences: TypingSequence[TypingSequence[EventId]]) -> None:
        self._per_sequence: List[SequencePositions] = [
            SequencePositions(sequence) for sequence in encoded_sequences
        ]

    def __len__(self) -> int:
        return len(self._per_sequence)

    def __getitem__(self, sequence_index: int) -> SequencePositions:
        return self._per_sequence[sequence_index]

    def extend(
        self, encoded_sequences: TypingSequence[TypingSequence[EventId]]
    ) -> None:
        """Index newly appended sequences without touching existing entries.

        Per-sequence indexes are independent, so an append-only database
        extension costs O(new events) — this is what lets incremental
        mining keep one live index across store appends instead of
        rebuilding it from the whole corpus.
        """
        self._per_sequence.extend(
            SequencePositions(sequence) for sequence in encoded_sequences
        )

    def sequence_support(self, event: EventId) -> int:
        """Number of sequences in which ``event`` occurs at least once."""
        return sum(1 for positions in self._per_sequence if positions.count(event) > 0)

    def instance_support(self, event: EventId) -> int:
        """Total number of occurrences of ``event`` across all sequences."""
        return sum(positions.count(event) for positions in self._per_sequence)

    def distinct_events(self) -> Tuple[EventId, ...]:
        """All distinct events occurring anywhere in the database."""
        seen = set()
        for positions in self._per_sequence:
            seen.update(positions.distinct_events())
        return tuple(sorted(seen))
