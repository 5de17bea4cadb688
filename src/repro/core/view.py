"""The frequent-event view of an encoded database.

An iterative pattern's instances map one-to-one onto the occurrences of any
one of its events, so an event that occurs fewer than ``min_support`` times
in the whole database is in no frequent pattern (Theorem 1, the apriori
property).  Such an event cannot be the equal-support forward, backward or
infix extension that makes a frequent pattern non-closed either: the
extension would need one occurrence of it per instance of the pattern.
Removing every occurrence of these rare events from the sequences changes
none of that, and it leaves every instance of every frequent pattern in
place, because an instance only forbids its *own* alphabet from its gaps.

:class:`FrequentEventView` is that reduced database.  The pattern search
runs its kernels over the view's shorter sequences unchanged and maps the
blocks it emits back to source positions (:meth:`original_block`), so
mined instances always carry the source database's positions.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import List, Mapping, Optional, Sequence as TypingSequence, Set

from .blocks import BLOCK_TYPECODE, InstanceBlock
from .events import EventId


class FrequentEventView:
    """An encoded database without its events of fewer than ``min_support`` occurrences.

    ``sequences[i]`` is source sequence ``i`` with those events removed,
    and ``origins[i]`` maps each of its positions to the source position
    (one ``array("i")``), or is ``None`` when the sequence lost no event
    and both position spaces agree.  Sequence indexes are never remapped.

    Example
    -------
    >>> view = FrequentEventView([(0, 9, 1), (0, 1)], {0: 2, 1: 2, 9: 1}, 2)
    >>> view.sequences
    [(0, 1), (0, 1)]
    >>> list(view.origins[0]), view.origins[1]
    ([0, 2], None)
    """

    __slots__ = ("sequences", "origins", "min_support", "_counts", "_dropped")

    def __init__(
        self,
        source: TypingSequence[TypingSequence[EventId]],
        counts: Mapping[EventId, int],
        min_support: int,
    ) -> None:
        self.min_support = min_support
        self.sequences: List[TypingSequence[EventId]] = []
        self.origins: List[Optional[array]] = []
        self._counts: Counter[EventId] = Counter(counts)
        self._dropped: Set[EventId] = {
            event for event, count in counts.items() if count < min_support
        }
        self._compact(source)

    def _compact(
        self, source: TypingSequence[TypingSequence[EventId]]
    ) -> List[TypingSequence[EventId]]:
        """Append the view of each source sequence; return the new entries."""
        dropped = self._dropped
        added: List[TypingSequence[EventId]] = []
        for sequence in source:
            if dropped.isdisjoint(sequence):
                kept, origin = sequence, None
            else:
                origin = array(
                    BLOCK_TYPECODE,
                    [position for position, event in enumerate(sequence) if event not in dropped],
                )
                kept = tuple(map(sequence.__getitem__, origin))
            self.sequences.append(kept)
            self.origins.append(origin)
            added.append(kept)
        return added

    def extend(
        self, appended: TypingSequence[TypingSequence[EventId]]
    ) -> Optional[List[TypingSequence[EventId]]]:
        """Absorb sequences appended to the source; return their views.

        Under a fixed threshold the set of rare events only shrinks as the
        source grows.  Events the append introduces below the threshold
        join it; an event it lifts to ``min_support`` would have to be put
        back into sequences already compacted, so the view refuses and
        returns ``None`` and the caller builds a new one.
        """
        counts = self._counts
        for sequence in appended:
            counts.update(sequence)
        min_support = self.min_support
        if any(counts[event] >= min_support for event in self._dropped):
            return None
        for sequence in appended:
            self._dropped.update(
                event for event in sequence if counts[event] < min_support
            )
        return self._compact(appended)

    def original_block(self, block: InstanceBlock) -> InstanceBlock:
        """``block`` with its start and end positions mapped to the source.

        Returns ``block`` itself when none of its sequences lost an event.
        """
        origins = self.origins
        seq_ids = block.seq_ids
        if all(origins[sid] is None for sid in seq_ids):
            return block
        starts = array(BLOCK_TYPECODE)
        ends = array(BLOCK_TYPECODE)
        for sid, lo, hi in block.groups():
            origin = origins[sid]
            if origin is None:
                starts.extend(block.starts[lo:hi])
                ends.extend(block.ends[lo:hi])
            else:
                starts.extend(map(origin.__getitem__, block.starts[lo:hi]))
                ends.extend(map(origin.__getitem__, block.ends[lo:hi]))
        return InstanceBlock(seq_ids, block.offsets, starts, ends)

    def adjacent(self, sequence_index: int, position: int) -> bool:
        """Whether view ``position`` directly follows ``position - 1`` in the source."""
        origin = self.origins[sequence_index]
        return origin is None or origin[position] == origin[position - 1] + 1
