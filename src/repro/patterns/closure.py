"""Closed-pattern checks (Definition 4.2).

A frequent iterative pattern ``P`` is *closed* when no super-sequence ``Q``
exists with the same support such that every instance of ``P`` corresponds to
a unique instance of ``Q``.  Operationally — and this is the check used by
the original work's closed miner and by BIDE-style closed sequential-pattern
miners — it suffices to examine the super-sequences obtained from ``P`` by a
*single event insertion*:

* a **forward extension** ``P ++ <e>``,
* a **backward extension** ``<e> ++ P``,
* an **infix extension** inserting ``e`` into one of the gaps of ``P``.

The forward check is free: the miner already computes the instance blocks
of every forward extension while growing the search tree, and ``P ++ <e>``
has full instance correspondence with ``P`` exactly when every instance of
``P`` extends.  The backward check scans the region to the left of every
instance (:func:`~repro.core.projection.backward_extension_events_block`).
The infix check first collects candidate events occurring in the gaps of
*every* instance (usually none).  It verifies each candidate on the
block's own spans: the insertion keeps every instance exactly when each
span holds that event once, in the insertion gap
(:func:`infix_closure_violation_block` proves it), which is a few binary
searches per row and no re-projection of the extended pattern.

All three checks run over instance blocks
(:class:`~repro.core.blocks.InstanceBlock`) and share the search node's
:class:`~repro.core.projection.AlphabetIndex`, so the per-instance boundary
queries collapse into binary searches on one merged occurrence list, and
every gap check is one comparison against the sequence's occurrence links
(:class:`~repro.core.positions.SequencePositions`).  The list-based
reference checks live in the test oracles (``tests/oracles/closure.py``),
which the property tests compare against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Optional, Set, Sized, Tuple

from ..core.blocks import InstanceBlock
from ..core.events import EventId
from ..core.instances import gap_events
from ..core.positions import PositionIndex
from ..core.projection import (
    AlphabetIndex,
    EncodedDatabase,
    backward_extension_events_block,
)


def forward_closure_violation(
    extension_instances: Dict[EventId, Sized], instance_count: int
) -> Optional[EventId]:
    """An event whose forward extension absorbs every instance, or ``None``.

    ``extension_instances`` maps each extension event to the instances of
    ``P ++ <e>`` (as a list or an :class:`InstanceBlock` — only sizes are
    read); because each instance of ``P`` yields at most one extended
    instance per event, count equality means every instance extends.
    """
    for event, instances in extension_instances.items():
        if len(instances) == instance_count:
            return event
    return None


def _gap_candidates_block(
    encoded_db: EncodedDatabase,
    node: AlphabetIndex,
    block: InstanceBlock,
) -> Dict[EventId, int]:
    """Candidate infix insertions: events in the gaps of every instance.

    Returns a mapping from each candidate event (outside the pattern
    alphabet, occurring strictly inside every instance span) to the one
    gap it occupies *in the first instance*.  An insertion that keeps
    every instance must hold exactly one occurrence of its event in each
    span, in the insertion gap (see :func:`infix_closure_violation_block`),
    so an event occurring more than once in the first instance's span can
    never pass and is dropped here.  Each later row narrows the candidates
    to the events of its open span ``(start, end)`` with one set
    intersection; the set almost always empties after a handful of rows.
    """
    if not block:
        return {}
    first_instance = block.first()
    first_sequence = encoded_db[first_instance.sequence_index]
    gap_by_event: Dict[EventId, int] = {}
    repeated: Set[EventId] = set()
    for gap_index, position in gap_events(
        first_sequence, node.pattern, (first_instance.start, first_instance.end)
    ):
        event = first_sequence[position]
        if event in gap_by_event:
            repeated.add(event)
        gap_by_event[event] = gap_index
    candidates = set(gap_by_event).difference(repeated)
    starts = block.starts
    ends = block.ends
    for sid, lo, hi in block.groups():
        if not candidates:
            return {}
        sequence = encoded_db[sid]
        for row in range(lo if sid != first_instance.sequence_index else lo + 1, hi):
            # The events strictly inside (start, end), narrowed in one
            # C-level set operation per row.
            candidates = candidates.intersection(sequence[starts[row] + 1 : ends[row]])
            if not candidates:
                return {}
    return {event: gap_by_event[event] for event in candidates}


def infix_closure_violation_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
) -> Optional[Tuple[EventId, int]]:
    """A ``(event, insert_position)`` infix insertion violating closedness, or ``None``.

    The returned ``insert_position`` is the index in the pattern *before*
    which the event is inserted (``1 .. len(pattern) - 1``).

    The check is local to the block's own spans.  Let ``e`` lie outside
    ``P``'s alphabet and let ``Q`` insert ``e`` before ``P[k]``.  An
    instance of ``Q`` matches ``Q``'s alphabet events in order with only
    other events in its gaps, so projecting its span onto ``P``'s
    alphabet leaves exactly ``P``, and ``e`` is a gap event of ``P``:
    every instance of ``Q`` is an instance of ``P`` with the same span.
    Conversely an instance span of ``P`` is one of ``Q`` exactly when it
    holds exactly one ``e`` and that ``e`` lies in gap ``k`` (between
    ``P[k-1]`` and ``P[k]``).  ``Q``'s instances are therefore a subset of
    ``P``'s, and ``Q`` keeps every instance of ``P`` at equal support
    (Definition 4.2) exactly when the subset is all of them, i.e. when
    every span of the block holds one ``e``, in gap ``k``.  No other
    sequence can matter, because ``Q`` has no instance where ``P`` has
    none; and a frequent-event view's copies repeat their
    representative's spans, so the representative rows decide.

    Per row that is one bisect pair into ``e``'s occurrences (the count
    inside ``(start, end)`` must be one) and one bisect into the node's
    merged alphabet list: ``P``'s events in the span are ``merged[j:j +
    len(P)]`` with ``j = bisect_left(merged, start)``, so gap ``k`` is the
    open interval ``(merged[j + k - 1], merged[j + k])``.
    """
    candidates = _gap_candidates_block(encoded_db, node, block)
    for event in sorted(candidates):
        if _insertion_keeps_every_span(index, node, block, event, candidates[event]):
            return (event, candidates[event])
    return None


def _insertion_keeps_every_span(
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
    event: EventId,
    insert_position: int,
) -> bool:
    """Whether every span of ``block`` holds ``event`` once, in gap ``insert_position``."""
    starts = block.starts
    ends = block.ends
    for sid, lo, hi in block.groups():
        occurrences = index[sid].positions_of(event)
        merged = node.merged(sid)
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            first = bisect_right(occurrences, start)
            if bisect_left(occurrences, end, first) - first != 1:
                return False
            gap = bisect_left(merged, start) + insert_position
            if not merged[gap - 1] < occurrences[first] < merged[gap]:
                return False
    return True


def is_closed_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
    extension_blocks: Dict[EventId, InstanceBlock],
    check_infix: bool = True,
) -> bool:
    """Full closedness check combining the forward, backward and infix tests.

    ``node`` is the search node's shared :class:`AlphabetIndex`; the miner
    builds it once per node and the backward and infix checks reuse its
    merged occurrence lists instead of rebuilding per-call alphabet state.
    """
    if forward_closure_violation(extension_blocks, len(block)) is not None:
        return False
    if backward_extension_events_block(encoded_db, index, node, block):
        return False
    if check_infix and infix_closure_violation_block(encoded_db, index, node, block) is not None:
        return False
    return True
