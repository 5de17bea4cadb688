"""Consequent growth for recurrent-rule mining (Steps 2–4 of Section 5).

Given a premise and its temporal points, :class:`ConsequentGrower` explores
the space of consequents depth-first.  Three ideas drive the search:

* **Confidence anti-monotonicity (Theorem 3).**  The temporal points of the
  premise satisfied by ``post ++ <e>`` are a subset of those satisfied by
  ``post``, so confidence can only drop along an extension; branches below
  ``min_confidence`` are pruned.
* **One C-level pass per search node.**  The alive temporal points of a
  node are one list of global position ids (gids, see
  :class:`~repro.core.positions.SuccessorTable`): the greedy match of the
  consequent after each point.  Expanding the node looks every match up
  in the index's successor table, whose entry lists the events after the
  match with the gid of each one's first occurrence.  One ``Counter`` over
  those entries counts, for every event, the points the extension keeps
  alive; only the events that pass the confidence bound get a child, whose
  matches are read off the same entries.  Most extensions fail the bound
  and never cost a per-point row.
* **Incremental, deferred i-support.**  The occurrences of
  ``pre ++ post ++ <e>`` in a sequence are exactly the occurrences of ``e``
  after the earliest embedding end of ``pre ++ post``; maintaining that end
  per sequence (as a gid) turns i-support into one table lookup and one
  read of the table's ``tail`` column per sequence.  A child's i-support
  is measured only when the search needs it — when the child is grown, or
  when it is a dominance candidate (same alive count as its parent, so it
  passes the bound anyway).

The grower serves both miners: the non-redundant miner additionally asks it
to suppress rules *dominated* by one of their own single-event consequent
extensions (same i-support and confidence — redundant by Definition 5.2).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.blocks import PositionBlock
from ..core.events import EventId
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

    ``matches`` holds one gid per alive temporal point: the current greedy
    match of the consequent after that point.  ``full_pattern_end`` (one
    gid per sequence where ``premise ++ consequent`` embeds: its earliest
    embedding end) and ``i_support`` stay unset (``None`` / 0) until
    :meth:`ConsequentGrower._measure_i_support` fills them in.
    """

    __slots__ = ("consequent", "matches", "full_pattern_end", "i_support")

    def __init__(
        self,
        consequent: Tuple[EventId, ...],
        matches: List[int],
        full_pattern_end: Optional[List[int]],
        i_support: int,
    ) -> None:
        self.consequent = consequent
        self.matches = matches
        self.full_pattern_end = full_pattern_end
        self.i_support = i_support

    def alive_count(self) -> int:
        return len(self.matches)


class ConsequentGrower:
    """Grow consequents for one premise and yield the resulting rules."""

    def __init__(
        self,
        index: PositionIndex,
        premise: Tuple[EventId, ...],
        premise_projections: PositionBlock,
        config: RuleMiningConfig,
        stats: Optional[MiningStats] = None,
    ) -> None:
        self.premise = premise
        self.config = config
        self.stats = stats if stats is not None else MiningStats()
        self._successors = successors = index.successors
        offsets = successors.offsets

        self.s_support = len(premise_projections)
        # A premise's temporal points in a sequence are the occurrences of
        # its last event at or after its earliest embedding end, which is
        # exactly the projection's position.
        last_event = premise[-1]
        points: List[int] = []
        for sequence_index, end_position in premise_projections:
            positions = index[sequence_index].positions_of(last_event)
            offset = offsets[sequence_index]
            points.extend(
                map(offset.__add__, islice(positions, bisect_left(positions, end_position), None))
            )
        self._points = points
        self.total_points = len(points)
        self._root_full_end = [
            offsets[sequence_index] + end_position
            for sequence_index, end_position in premise_projections
        ]

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
            # At the root the greedy match of the empty consequent sits on
            # the temporal point itself.
            matches=self._points,
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
        on the confidence bound.  Each alive match's successor entry lists
        the events the point stays alive for, so one ``Counter`` over the
        entries tallies every event's alive points.  Only the events
        reaching ``min_confidence * total_points`` are built; a child's
        match after each point is the event's first occurrence after the
        node's match, read off the same entry.
        """
        successors = list(map(self._successors.__getitem__, node.matches))
        counts = Counter(chain.from_iterable(successors))
        # Theorem 3: confidence only drops along consequent extensions.
        min_alive = self.config.min_confidence * self.total_points
        children = {
            event: _SearchNode(
                consequent=node.consequent + (event,),
                matches=[after[event] for after in successors if event in after],
                full_pattern_end=None,
                i_support=0,
            )
            for event, count in counts.items()
            if count + 1e-9 >= min_alive
        }
        return children, len(counts) - len(children)

    def _measure_i_support(self, node: _SearchNode, child: _SearchNode) -> int:
        """Fill in ``child``'s i-support and full-pattern ends (once).

        Occurrences of ``premise ++ consequent ++ <e>`` are the occurrences
        of ``e`` after the earliest embedding end of the current full
        pattern, in every sequence where that pattern embeds: the first of
        them is the new end, and the table's ``tail`` counts them.  Only
        children that pass the confidence bound ever reach this step.
        """
        if child.full_pattern_end is None:
            event = child.consequent[-1]
            successors = self._successors
            ends = [
                after[event]
                for after in map(successors.__getitem__, node.full_pattern_end)
                if event in after
            ]
            child.i_support = sum(map(successors.tail.__getitem__, ends))
            child.full_pattern_end = ends
        return child.i_support
