"""Consequent growth for recurrent-rule mining (Steps 2–4 of Section 5).

Given a premise and its temporal points, :class:`ConsequentGrower` explores
the space of consequents depth-first.  Three ideas drive the search:

* **Confidence anti-monotonicity (Theorem 3).**  The temporal points of the
  premise satisfied by ``post ++ <e>`` are a subset of those satisfied by
  ``post``, so confidence can only drop along an extension; branches below
  ``min_confidence`` are pruned.
* **Count first, build survivors only.**  Expanding a node first counts,
  for every event, the alive points whose suffix contains it — one C-level
  ``compress`` over the suffix per point, read off the index's ``previous``
  links, then one ``Counter``.  Only the events that pass the confidence
  bound get a child; most extensions fail it and never cost a per-point
  row.
* **Incremental, deferred i-support.**  The occurrences of
  ``pre ++ post ++ <e>`` in a sequence are exactly the occurrences of ``e``
  after the earliest embedding end of ``pre ++ post``; maintaining that end
  per sequence turns i-support into a couple of binary searches per
  extension.  A child's i-support is measured only when the search needs
  it — when the child is grown, or when it is a dominance candidate (same
  alive count as its parent, so it passes the bound anyway).

The alive temporal points of each search node are held as two parallel
``array('i')`` columns (sequence, current greedy match position of the
consequent after the point) rather than a list of pairs, so the hottest
rule-mining loop allocates no per-point tuples.  The rows of one sequence
are contiguous and ascend in match position: the root's temporal points
ascend, and the first occurrence of an event after a match is monotone in
the match.  Children inherit that order from their parent, which lets a
child's build stop at the first row past the event's last occurrence.

The grower serves both miners: the non-redundant miner additionally asks it
to suppress rules *dominated* by one of their own single-event consequent
extensions (same i-support and confidence — redundant by Definition 5.2).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.blocks import BLOCK_TYPECODE, PositionBlock
from ..core.events import EncodedDatabase, EventId
from ..core.positions import PositionIndex
from ..core.stats import MiningStats
from .config import RuleMiningConfig


@dataclass(frozen=True)
class GrownRule:
    """One rule produced by the grower (premise implied by context)."""

    consequent: Tuple[EventId, ...]
    s_support: int
    i_support: int
    confidence: float


class _SearchNode:
    """Mutable state for one consequent in the depth-first search.

    ``point_seqs`` / ``match_positions`` are parallel columns over the alive
    temporal points: the point's sequence and the current greedy match
    position of the consequent after that point.  ``full_pattern_end``
    (earliest embedding end of ``premise ++ consequent`` per sequence) and
    ``i_support`` stay unset (``None`` / 0) until
    :meth:`ConsequentGrower._measure_i_support` fills them in.
    """

    __slots__ = ("consequent", "point_seqs", "match_positions", "full_pattern_end",
                 "i_support")

    def __init__(
        self,
        consequent: Tuple[EventId, ...],
        point_seqs: array,
        match_positions: array,
        full_pattern_end: Optional[Dict[int, int]],
        i_support: int,
    ) -> None:
        self.consequent = consequent
        self.point_seqs = point_seqs
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
        # A premise's temporal points in a sequence are the occurrences of
        # its last event at or after its earliest embedding end, which is
        # exactly the projection's position.
        last_event = premise[-1]
        point_seqs = array(BLOCK_TYPECODE)
        points = array(BLOCK_TYPECODE)
        for sequence_index, end_position in premise_projections:
            positions = index[sequence_index].positions_of(last_event)
            cut = bisect_left(positions, end_position)
            point_seqs.extend(repeat(sequence_index, len(positions) - cut))
            points.extend(islice(positions, cut, None))
        self._point_seqs = point_seqs
        self._points = points
        self.total_points = len(point_seqs)
        self._root_full_end: Dict[int, int] = dict(premise_projections)

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
            # At the root the greedy match of the empty consequent sits on
            # the temporal point itself.
            match_positions=self._points,
            full_pattern_end=self._root_full_end,
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
        children, pruned = ({}, 0) if at_length_cap else self._expand(node)

        if node.consequent:
            alive = node.alive_count()
            confidence = alive / self.total_points
            # A dominance candidate keeps every alive point of ``node``, so
            # it passes the confidence bound and was built by ``_expand``.
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

        self.stats.pruned_confidence += pruned
        for event in sorted(children):
            child = children[event]
            self._measure_i_support(node, child)
            yield from self._grow(child, skip_dominated)

    def _expand(self, node: _SearchNode) -> Tuple[Dict[EventId, _SearchNode], int]:
        """Build the single-event extensions of ``node`` that pass Theorem 3.

        Returns the surviving children and the number of extensions pruned
        on the confidence bound.  Counting comes first: a suffix position
        ``p`` after match ``m`` holds the first occurrence of its event
        exactly when ``previous[p] <= m`` (the index's occurrence links), so
        one ``compress`` per alive row lists the events the row stays alive
        for, and one ``Counter`` tallies every event's alive points.  Only
        the events reaching ``min_confidence * total_points`` are built.

        A survivor's child walks the node's rows sequence by sequence; its
        match is the event's first occurrence after ``m``.  The rows of a
        sequence ascend in ``m``, so the walk stops at the first row at or
        past the event's last occurrence.  Every survivor keeps at least a
        ``min_confidence`` share of the rows, so building costs a bounded
        multiple of the rows it keeps.
        """
        point_seqs = node.point_seqs
        match_positions = node.match_positions
        index = self.index
        encoded_db = self.encoded_db

        firsts: List[EventId] = []
        # One ``(sequence, occurrence table, first row)`` per sequence run.
        segments: List[Tuple[int, Dict[EventId, List[int]], int]] = []
        last_sequence_index = -1
        sequence: List[EventId] = []
        previous: List[int] = []
        for row, (sequence_index, match) in enumerate(zip(point_seqs, match_positions)):
            if sequence_index != last_sequence_index:
                sequence = encoded_db[sequence_index]
                positions_in_sequence = index[sequence_index]
                previous = positions_in_sequence.previous
                segments.append((sequence_index, positions_in_sequence.table(), row))
                last_sequence_index = sequence_index
            firsts.extend(
                compress(
                    islice(sequence, match + 1, None),
                    map(match.__ge__, islice(previous, match + 1, None)),
                )
            )
        stops = [start for _, _, start in segments[1:]]
        stops.append(len(point_seqs))

        children: Dict[EventId, _SearchNode] = {}
        pruned = 0
        min_alive = self.config.min_confidence * self.total_points
        for event, count in Counter(firsts).items():
            # Theorem 3: confidence only drops along consequent extensions.
            if count + 1e-9 < min_alive:
                pruned += 1
                continue
            child_seqs = array(BLOCK_TYPECODE)
            child_matches = array(BLOCK_TYPECODE)
            for (sequence_index, table, start), stop in zip(segments, stops):
                positions = table.get(event)
                if positions is None:
                    continue
                last = positions[-1]
                for row in range(start, stop):
                    match = match_positions[row]
                    if match >= last:
                        break
                    child_seqs.append(sequence_index)
                    child_matches.append(positions[bisect_right(positions, match)])
            children[event] = _SearchNode(
                consequent=node.consequent + (event,),
                point_seqs=child_seqs,
                match_positions=child_matches,
                full_pattern_end=None,
                i_support=0,
            )
        return children, pruned

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
