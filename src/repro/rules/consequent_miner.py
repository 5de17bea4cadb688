"""Consequent growth for recurrent-rule mining (Steps 2–4 of Section 5).

Given a premise and its temporal points, :class:`ConsequentGrower` explores
the space of consequents depth-first.  Two facts drive the search:

* **Confidence anti-monotonicity (Theorem 3).**  The temporal points of the
  premise satisfied by ``post ++ <e>`` are a subset of those satisfied by
  ``post``, so confidence can only drop along an extension; branches below
  ``min_confidence`` are pruned.
* **Incremental, deferred i-support.**  The occurrences of
  ``pre ++ post ++ <e>`` in a sequence are exactly the occurrences of ``e``
  after the earliest embedding end of ``pre ++ post``; maintaining that end
  per sequence turns i-support into a couple of binary searches per
  extension.  Expanding a node builds only the children's alive points; a
  child's i-support is measured only when the search needs it — when the
  child passes the confidence bound and is grown, or when it is a
  dominance candidate (same alive count as its parent, so it passes the
  bound anyway).  Most children fail the bound and never pay for it.

The alive temporal points of each search node are held as three parallel
``array('i')`` columns (sequence, point position, current greedy match
position) rather than a list of triples: expanding a node appends machine
ints to its children's columns, so the hottest rule-mining loop allocates
no per-point tuples while preserving the exact iteration order (and hence
bit-identical output) of the tuple-based implementation.

The grower serves both miners: the non-redundant miner additionally asks it
to suppress rules *dominated* by one of their own single-event consequent
extensions (same i-support and confidence — redundant by Definition 5.2).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.blocks import BLOCK_TYPECODE, PositionBlock
from ..core.events import EncodedDatabase, EventId
from ..core.positions import PositionIndex
from ..core.stats import MiningStats
from .config import RuleMiningConfig
from .temporal_points import temporal_points_in_sequence


@dataclass(frozen=True)
class GrownRule:
    """One rule produced by the grower (premise implied by context)."""

    consequent: Tuple[EventId, ...]
    s_support: int
    i_support: int
    confidence: float


class _SearchNode:
    """Mutable state for one consequent in the depth-first search.

    ``point_seqs`` / ``point_positions`` / ``match_positions`` are parallel
    columns over the alive temporal points: the point's sequence, the
    temporal point position itself, and the current greedy match position of
    the consequent after that point.  ``full_pattern_end`` (earliest
    embedding end of ``premise ++ consequent`` per sequence) and
    ``i_support`` stay unset (``None`` / 0) until
    :meth:`ConsequentGrower._measure_i_support` fills them in.
    """

    __slots__ = ("consequent", "point_seqs", "point_positions", "match_positions",
                 "full_pattern_end", "i_support")

    def __init__(
        self,
        consequent: Tuple[EventId, ...],
        point_seqs: array,
        point_positions: array,
        match_positions: array,
        full_pattern_end: Optional[Dict[int, int]],
        i_support: int,
    ) -> None:
        self.consequent = consequent
        self.point_seqs = point_seqs
        self.point_positions = point_positions
        self.match_positions = match_positions
        self.full_pattern_end = full_pattern_end
        self.i_support = i_support

    def alive_count(self) -> int:
        return len(self.point_seqs)


class ConsequentGrower:
    """Grow consequents for one premise and yield the resulting rules."""

    def __init__(
        self,
        encoded_db: EncodedDatabase,
        index: PositionIndex,
        premise: Tuple[EventId, ...],
        premise_projections: PositionBlock,
        config: RuleMiningConfig,
        stats: Optional[MiningStats] = None,
    ) -> None:
        self.encoded_db = encoded_db
        self.index = index
        self.premise = premise
        self.config = config
        self.stats = stats if stats is not None else MiningStats()

        self.s_support = len(premise_projections)
        point_seqs = array(BLOCK_TYPECODE)
        point_positions = array(BLOCK_TYPECODE)
        for sequence_index, _ in premise_projections:
            sequence = encoded_db[sequence_index]
            for position in temporal_points_in_sequence(sequence, premise):
                point_seqs.append(sequence_index)
                point_positions.append(position)
        self._point_seqs = point_seqs
        self._point_positions = point_positions
        self.total_points = len(point_seqs)
        self._root_full_end: Dict[int, int] = {
            sequence_index: position for sequence_index, position in premise_projections
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def grow(self, skip_dominated: bool = False) -> Iterator[GrownRule]:
        """Yield every rule of this premise meeting the confidence threshold.

        Rules failing ``min_i_support`` are filtered out (Step 4).  With
        ``skip_dominated`` the grower omits rules whose single-event
        consequent extension preserves both i-support and confidence — those
        are redundant by Definition 5.2 and the extension itself is always
        explored.
        """
        if self.total_points == 0:
            return
        root = _SearchNode(
            consequent=(),
            point_seqs=self._point_seqs,
            point_positions=self._point_positions,
            # At the root the greedy match of the empty consequent sits on
            # the temporal point itself.
            match_positions=array(BLOCK_TYPECODE, self._point_positions),
            full_pattern_end=dict(self._root_full_end),
            i_support=0,
        )
        yield from self._grow(root, skip_dominated)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _grow(self, node: _SearchNode, skip_dominated: bool) -> Iterator[GrownRule]:
        self.stats.visited += 1
        max_length = self.config.max_consequent_length
        at_length_cap = max_length is not None and len(node.consequent) >= max_length
        # Children beyond the length cap can never be emitted, so they must
        # not participate in the dominance check either (a rule may only be
        # suppressed in favour of a rule that stays in the explored space).
        children = {} if at_length_cap else self._expand(node)

        if node.consequent:
            alive = node.alive_count()
            confidence = alive / self.total_points
            # A dominance candidate keeps every alive point of ``node``, so
            # it passes the confidence bound below and its i-support is
            # measured once either way.
            dominated = skip_dominated and any(
                child.alive_count() == alive
                and self._measure_i_support(node, child) == node.i_support
                for child in children.values()
            )
            if dominated:
                self.stats.pruned_redundancy += 1
            elif node.i_support >= self.config.min_i_support:
                self.stats.emitted += 1
                yield GrownRule(
                    consequent=node.consequent,
                    s_support=self.s_support,
                    i_support=node.i_support,
                    confidence=confidence,
                )

        if at_length_cap:
            return

        min_alive = self.config.min_confidence * self.total_points
        for event in sorted(children):
            child = children[event]
            # Theorem 3: confidence only drops along consequent extensions.
            if child.alive_count() + 1e-9 < min_alive:
                self.stats.pruned_confidence += 1
                continue
            self._measure_i_support(node, child)
            yield from self._grow(child, skip_dominated)

    def _expand(self, node: _SearchNode) -> Dict[EventId, _SearchNode]:
        """Build the single-event extensions of ``node`` in one pass."""
        children: Dict[EventId, _SearchNode] = {}

        # Advance the greedy match of each alive temporal point past every
        # event occurring in its remaining suffix.  A suffix position holds
        # the first occurrence of its event after the match position exactly
        # when the event's previous occurrence is at or before the match
        # (the index's ``previous`` links) — one comparison, no bisect and
        # no per-point first-occurrence dict.  A child's per-point columns
        # receive at most one row per alive point, so the event iteration
        # order within a point never shows in the output.
        point_seqs = node.point_seqs
        point_positions = node.point_positions
        match_positions = node.match_positions
        index = self.index
        encoded_db = self.encoded_db
        last_sequence_index = -1
        sequence: List[EventId] = []
        previous: List[int] = []
        for row in range(len(point_seqs)):
            sequence_index = point_seqs[row]
            if sequence_index != last_sequence_index:
                sequence = encoded_db[sequence_index]
                previous = index[sequence_index].previous
                last_sequence_index = sequence_index
            point = point_positions[row]
            match_position = match_positions[row]
            for position in range(match_position + 1, len(sequence)):
                if previous[position] > match_position:
                    continue
                event = sequence[position]
                child = children.get(event)
                if child is None:
                    child = _SearchNode(
                        consequent=node.consequent + (event,),
                        point_seqs=array(BLOCK_TYPECODE),
                        point_positions=array(BLOCK_TYPECODE),
                        match_positions=array(BLOCK_TYPECODE),
                        full_pattern_end=None,
                        i_support=0,
                    )
                    children[event] = child
                child.point_seqs.append(sequence_index)
                child.point_positions.append(point)
                child.match_positions.append(position)
        return children

    def _measure_i_support(self, node: _SearchNode, child: _SearchNode) -> int:
        """Fill in ``child``'s i-support and full-pattern ends (once).

        Occurrences of ``premise ++ consequent ++ <e>`` are the occurrences
        of ``e`` after the earliest embedding end of the current full
        pattern, in every sequence where that pattern embeds.  Only children
        that pass the confidence bound ever reach this step.
        """
        if child.full_pattern_end is None:
            event = child.consequent[-1]
            i_support = 0
            full_end: Dict[int, int] = {}
            index = self.index
            for sequence_index, end_position in node.full_pattern_end.items():
                positions = index[sequence_index].positions_of(event)
                cut = bisect_right(positions, end_position)
                remaining = len(positions) - cut
                if remaining:
                    i_support += remaining
                    full_end[sequence_index] = positions[cut]
            child.i_support = i_support
            child.full_pattern_end = full_end
        return child.i_support
