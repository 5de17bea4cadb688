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
blocks it emits back to source positions, so mined instances always carry
the source database's positions.

Traces repeat: many runs of one scenario give the same sequence once rare
events are gone.  The view therefore groups equal sequences into
*classes*.  A class's *representative* is its lowest sequence index, and
the search walks representatives only: every instance in a copy is the
representative's instance at the same view positions, so each
representative row stands for ``multiplicity[sid]`` instances
(:meth:`weighted_support`), and :meth:`expanded_block` turns a
representative's rows back into every member's rows, in each member's own
source positions.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import islice
from operator import mul, sub
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence as TypingSequence,
    Set,
    Tuple,
)

from .blocks import BLOCK_TYPECODE, InstanceBlock
from .events import EventId


class FrequentEventView:
    """An encoded database without its events of fewer than ``min_support`` occurrences.

    ``sequences[i]`` is source sequence ``i`` with those events removed,
    and ``origins[i]`` maps each of its positions to the source position
    (one ``array("i")``), or is ``None`` when the sequence lost no event
    and both position spaces agree.  Sequence indexes are never remapped.

    Equal view sequences form a class: ``representatives`` lists each
    class's lowest sequence index (ascending), ``members[rep]`` the class's
    sequence indexes (ascending), and ``multiplicity[i]`` is the class
    size for a representative and 0 for a copy.

    Example
    -------
    >>> view = FrequentEventView([(0, 9, 1), (0, 1)], {0: 2, 1: 2, 9: 1}, 2)
    >>> view.sequences
    [(0, 1), (0, 1)]
    >>> list(view.origins[0]), view.origins[1]
    ([0, 2], None)
    >>> view.representatives, view.members, view.multiplicity
    ([0], {0: [0, 1]}, [2, 0])
    """

    __slots__ = (
        "sequences",
        "origins",
        "min_support",
        "representatives",
        "members",
        "multiplicity",
        "_counts",
        "_dropped",
        "_classes",
    )

    def __init__(
        self,
        source: TypingSequence[TypingSequence[EventId]],
        counts: Mapping[EventId, int],
        min_support: int,
    ) -> None:
        self.min_support = min_support
        self.sequences: List[TypingSequence[EventId]] = []
        self.origins: List[Optional[array]] = []
        self.representatives: List[int] = []
        self.members: Dict[int, List[int]] = {}
        self.multiplicity: List[int] = []
        self._classes: Dict[Tuple[EventId, ...], int] = {}
        self._counts: Counter[EventId] = Counter(counts)
        self._dropped: Set[EventId] = {
            event for event, count in counts.items() if count < min_support
        }
        self._compact(source)

    def _compact(
        self, source: TypingSequence[TypingSequence[EventId]]
    ) -> List[TypingSequence[EventId]]:
        """Append the view of each source sequence; return the new entries.

        Each new entry joins the class of an equal earlier sequence, or
        opens a class of its own.
        """
        dropped = self._dropped
        classes = self._classes
        multiplicity = self.multiplicity
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
            index = len(self.sequences)
            representative = classes.setdefault(tuple(kept), index)
            if representative == index:
                self.representatives.append(index)
                self.members[index] = [index]
                multiplicity.append(1)
            else:
                self.members[representative].append(index)
                multiplicity[representative] += 1
                multiplicity.append(0)
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

    @property
    def has_copies(self) -> bool:
        """Whether two view sequences are equal (some class has a copy)."""
        return len(self.representatives) < len(self.sequences)

    def weighted_support(self, block: InstanceBlock) -> int:
        """The support of a block over representatives: rows × multiplicity."""
        offsets = block.offsets
        return sum(
            map(
                mul,
                map(self.multiplicity.__getitem__, block.seq_ids),
                map(sub, islice(offsets, 1, None), offsets),
            )
        )

    def original_block(self, block: InstanceBlock) -> InstanceBlock:
        """``block`` with its start and end positions mapped to the source.

        Returns ``block`` itself when none of its sequences lost an event.
        """
        if all(self.origins[sid] is None for sid in block.seq_ids):
            return block
        return self._source_rows(block, block.groups())

    def expanded_block(self, block: InstanceBlock) -> InstanceBlock:
        """A block over representatives as every class member's source rows.

        Each representative group is repeated once per member of its class,
        mapped through that member's own ``origins``, and the groups come
        out in ascending sequence order, so the result is exactly the block
        a search over every sequence would have emitted.
        """
        if not self.has_copies:
            return self.original_block(block)
        members = self.members
        return self._source_rows(
            block,
            sorted(
                (member, lo, hi)
                for sid, lo, hi in block.groups()
                for member in members[sid]
            ),
        )

    def _source_rows(
        self, block: InstanceBlock, groups: Iterable[Tuple[int, int, int]]
    ) -> InstanceBlock:
        """A block of ``block``'s row ranges ``(sequence, lo, hi)`` in source positions."""
        origins = self.origins
        seq_ids = array(BLOCK_TYPECODE)
        offsets = array(BLOCK_TYPECODE, [0])
        starts = array(BLOCK_TYPECODE)
        ends = array(BLOCK_TYPECODE)
        for sid, lo, hi in groups:
            origin = origins[sid]
            if origin is None:
                starts.extend(block.starts[lo:hi])
                ends.extend(block.ends[lo:hi])
            else:
                starts.extend(map(origin.__getitem__, block.starts[lo:hi]))
                ends.extend(map(origin.__getitem__, block.ends[lo:hi]))
            seq_ids.append(sid)
            offsets.append(len(starts))
        return InstanceBlock(seq_ids, offsets, starts, ends)

    def adjacent(self, sequence_index: int, position: int) -> bool:
        """Whether view ``position`` directly follows ``position - 1`` in the source."""
        origin = self.origins[sequence_index]
        return origin is None or origin[position] == origin[position - 1] + 1
