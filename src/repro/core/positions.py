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
encoded database, one sequence at a time.  Rule mining asks a third
question, "which events occur after position ``p``, and where first?", for
every alive temporal point of every consequent node;
:class:`SuccessorTable` answers it with one dict per position, built the
first time the position is asked about and kept with the index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, islice
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


class SuccessorTable(dict):
    """Where each event first occurs after a position, per position.

    Positions are numbered across the whole database by a *global position
    id* (gid): position ``p`` of sequence ``s`` is ``offsets[s] + p``.
    ``table[gid]`` maps every event occurring after the position to the
    gid of its first occurrence strictly after it, in the order the events
    first appear in the suffix.  A suffix position ``q`` holds such a first
    occurrence exactly when ``previous[q] <= p``, so an entry is one
    C-level ``compress`` over the suffix and its occurrence links.

    Entries are built on first lookup (``__missing__``) and then kept, so
    the table holds one dict per position ever asked about, each with as
    many entries as there are distinct events after that position.
    ``tail[gid]`` counts the occurrences of the position's event at or
    after it; it is built for every position up front.
    """

    __slots__ = ("offsets", "tail", "_gids", "_sequences", "_previous")

    def __init__(
        self,
        sequences: TypingSequence[TypingSequence[EventId]],
        positions: TypingSequence[SequencePositions],
    ) -> None:
        super().__init__()
        self.offsets: List[int] = []
        self.tail: List[int] = []
        # Each sequence's gids, one int object per position, shared by
        # every entry that names it.
        self._gids: List[List[int]] = []
        self._sequences: List[TypingSequence[EventId]] = []
        self._previous: List[List[int]] = []
        self.extend(sequences, positions)

    def extend(
        self,
        sequences: TypingSequence[TypingSequence[EventId]],
        positions: TypingSequence[SequencePositions],
    ) -> None:
        """Number appended sequences after the last gid; built entries stay."""
        for sequence, sequence_positions in zip(sequences, positions):
            offset = len(self.tail)
            column = [0] * sequence_positions.length
            for occurrences in sequence_positions._positions.values():
                for position, remaining in zip(occurrences, range(len(occurrences), 0, -1)):
                    column[position] = remaining
            self.offsets.append(offset)
            self.tail.extend(column)
            self._gids.append(list(range(offset, offset + len(column))))
            self._sequences.append(sequence)
            self._previous.append(sequence_positions.previous)

    def __missing__(self, gid: int) -> Dict[EventId, int]:
        sequence_index = bisect_right(self.offsets, gid) - 1
        position = gid - self.offsets[sequence_index]
        keep = list(
            map(position.__ge__, islice(self._previous[sequence_index], position + 1, None))
        )
        after = self[gid] = dict(
            zip(
                compress(islice(self._sequences[sequence_index], position + 1, None), keep),
                compress(islice(self._gids[sequence_index], position + 1, None), keep),
            )
        )
        return after


class PositionIndex:
    """Position indexes for every sequence of an encoded database."""

    def __init__(self, encoded_sequences: TypingSequence[TypingSequence[EventId]]) -> None:
        self._sequences: List[TypingSequence[EventId]] = list(encoded_sequences)
        self._per_sequence: List[SequencePositions] = [
            SequencePositions(sequence) for sequence in self._sequences
        ]
        self._successors: Optional[SuccessorTable] = None

    def __len__(self) -> int:
        return len(self._per_sequence)

    def __getitem__(self, sequence_index: int) -> SequencePositions:
        return self._per_sequence[sequence_index]

    @property
    def successors(self) -> SuccessorTable:
        """The database's :class:`SuccessorTable`, created on first use."""
        if self._successors is None:
            self._successors = SuccessorTable(self._sequences, self._per_sequence)
        return self._successors

    def extend(
        self, encoded_sequences: TypingSequence[TypingSequence[EventId]]
    ) -> None:
        """Index newly appended sequences without touching existing entries.

        Per-sequence indexes are independent, so an append-only database
        extension costs O(new events) — this is what lets incremental
        mining keep one live index across store appends instead of
        rebuilding it from the whole corpus.  Appended positions take gids
        past the end, so a successor table already created keeps every
        entry it has built.
        """
        sequences = list(encoded_sequences)
        added = [SequencePositions(sequence) for sequence in sequences]
        self._sequences.extend(sequences)
        self._per_sequence.extend(added)
        if self._successors is not None:
            self._successors.extend(sequences, added)

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
