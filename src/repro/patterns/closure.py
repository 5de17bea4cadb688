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
*every* instance (usually none) and verifies each candidate insertion with
the projection kernel
(:func:`~repro.core.projection.project_rows_in_sequence`).

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

from typing import Dict, List, Optional, Sequence as TypingSequence, Sized, Tuple

from ..core.blocks import InstanceBlock
from ..core.events import EventId
from ..core.instances import gap_events
from ..core.positions import PositionIndex
from ..core.projection import (
    AlphabetIndex,
    EncodedDatabase,
    backward_extension_events_block,
    project_rows_in_sequence,
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
) -> Dict[EventId, List[int]]:
    """Candidate infix insertions: events in the gaps of every instance.

    Returns a mapping from each candidate event (outside the pattern
    alphabet, occurring strictly inside every instance span) to the gap
    positions it occupies *in the first instance* — a sound restriction of
    the insertion positions worth verifying, because an insertion that
    preserves every instance must in particular appear in that gap of the
    first instance.  Each later row narrows the candidates to the events
    of its open span ``(start, end)`` with one set intersection; the set
    almost always empties after a handful of rows.
    """
    if not block:
        return {}
    first_instance = block.first()
    first_sequence = encoded_db[first_instance.sequence_index]
    gaps_by_event: Dict[EventId, List[int]] = {}
    for gap_index, position in gap_events(
        first_sequence, node.pattern, (first_instance.start, first_instance.end)
    ):
        gaps = gaps_by_event.setdefault(first_sequence[position], [])
        if gap_index not in gaps:
            gaps.append(gap_index)
    candidates = set(gaps_by_event)
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
    return {event: gaps_by_event[event] for event in candidates}


def _rows_correspond(
    block: InstanceBlock,
    lo: int,
    hi: int,
    super_starts: TypingSequence[int],
    super_ends: TypingSequence[int],
) -> bool:
    """Per-sequence Definition 4.2 correspondence, two-pointer form.

    ``block`` rows ``lo..hi`` are the sub-instances of one sequence;
    ``super_starts``/``super_ends`` the equally-many super-instances.  Both
    have strictly increasing starts *and* ends (an instance is determined
    by either endpoint), so "first unused enclosing super-instance"
    reduces to a forward sweep: super-rows ending before the current
    sub-row can never enclose a later sub-row either, and once a super-row
    starts after the sub-row every later one does too.
    """
    starts = block.starts
    ends = block.ends
    cursor = 0
    cursor_hi = len(super_ends)
    for row in range(lo, hi):
        end = ends[row]
        while cursor < cursor_hi and super_ends[cursor] < end:
            cursor += 1
        if cursor == cursor_hi or super_starts[cursor] > starts[row]:
            return False
        cursor += 1
    return True


def infix_closure_violation_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
    sequence_indexes: Optional[TypingSequence[int]] = None,
) -> Optional[Tuple[EventId, int]]:
    """A ``(event, insert_position)`` infix insertion violating closedness, or ``None``.

    The returned ``insert_position`` is the index in the pattern *before*
    which the event is inserted (``1 .. len(pattern) - 1``).  Candidates
    surviving the gap pre-filter are verified entirely on the
    merged-alphabet projection kernel — no instance tuples, no QRE
    rescans.  The key structural fact: correspondence plus equal support
    force the extended pattern's instance count to match the pattern's
    *in every single sequence* (and to vanish in sequences the pattern
    misses), so the check verifies sequence by sequence and abandons a
    candidate at its first mismatching sequence instead of materialising
    the extension across the whole database first.

    ``sequence_indexes`` names the sequences to verify (every sequence by
    default).  A search over the frequent-event view's class
    representatives passes those: a copy's instances are its
    representative's, so it can neither add nor break a correspondence.
    """
    candidates = _gap_candidates_block(encoded_db, node, block)
    if not candidates:
        return None
    pattern = node.pattern
    # Per-sequence instance counts of the pattern, and each group's rows.
    groups: Dict[int, Tuple[int, int]] = {
        sid: (lo, hi) for sid, lo, hi in block.groups()
    }
    # prefix_nodes[i] is the AlphabetIndex of pattern[:i + 1]; its merged
    # caches are shared by every candidate through the parent links.
    prefix_nodes = [AlphabetIndex(index, (pattern[0],))]
    for event in pattern[1:-1]:
        prefix_nodes.append(prefix_nodes[-1].extend(event))
    if sequence_indexes is None:
        sequence_indexes = range(len(encoded_db))
    for event in sorted(candidates):
        for insert_position in candidates[event]:
            extended = pattern[:insert_position] + (event,) + pattern[insert_position:]
            # nodes[k] is the AlphabetIndex of extended[:k + 1], so step k
            # extends it by extended[k + 1].
            nodes = prefix_nodes[: insert_position]
            nodes = nodes + [nodes[-1].extend(event)]
            for tail_event in pattern[insert_position:-1]:
                nodes.append(nodes[-1].extend(tail_event))
            steps = list(zip(nodes, extended[1:]))
            matched = True
            for sequence_index in sequence_indexes:
                bounds = groups.get(sequence_index)
                expected = bounds[1] - bounds[0] if bounds is not None else 0
                positions = index[sequence_index]
                first_positions = positions.positions_of(extended[0])
                if not first_positions:
                    if expected:
                        matched = False
                        break
                    continue
                super_starts, super_ends = project_rows_in_sequence(
                    encoded_db[sequence_index],
                    positions,
                    sequence_index,
                    steps,
                    first_positions,
                    first_positions,
                )
                if len(super_starts) != expected:
                    matched = False
                    break
                if expected and not _rows_correspond(
                    block, bounds[0], bounds[1], super_starts, super_ends
                ):
                    matched = False
                    break
            if matched:
                return (event, insert_position)
    return None


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
