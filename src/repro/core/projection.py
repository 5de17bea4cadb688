"""Incremental (projected-database) computation of iterative-pattern instances.

The miners in :mod:`repro.patterns` never rescan whole sequences when growing
a pattern.  Instead they maintain, for the current pattern ``P``, its full
instance list and derive the instance lists of every single-event extension
from it — the iterative-pattern analogue of PrefixSpan's projected database
(Section 4 of the paper).

Correctness of the incremental step (checked against the oracle in
:mod:`repro.core.instances` by the property tests):

``(sid, s, t')`` is an instance of ``P ++ <e>`` **iff** there is an instance
``(sid, s, t)`` of ``P`` such that

1. ``e`` does not occur in the gaps of ``(sid, s, t)`` (this is only possible
   when ``e`` is outside ``P``'s alphabet — gap events are by definition
   outside the alphabet), and
2. the first event of ``alphabet(P) ∪ {e}`` occurring after ``t`` is ``e``,
   at position ``t'``.

The symmetric statement holds for backward extensions ``<e> ++ P`` scanning
to the left of the instance start.  Both directions rely on the fact that an
instance is uniquely determined by its start (respectively end) position.

The miners run this projection over columnar instance blocks
(:class:`~repro.core.blocks.InstanceBlock`; :func:`singleton_blocks`,
:func:`forward_extensions_block`, :func:`backward_extension_events_block`).
They iterate flat int columns, hoist the per-sequence lookups out of the
per-instance loop, and answer every "first/last alphabet event around t"
query with one binary search in a per-node merged occurrence list
(:class:`AlphabetIndex`) instead of one ``bisect`` per alphabet event per
instance.  Every gap check ("does ``e`` occur inside ``(start, end)``?")
is one comparison against the sequence's occurrence links
(:attr:`~repro.core.positions.SequencePositions.previous` /
:attr:`~repro.core.positions.SequencePositions.following`), which also
dedupe the events of a forward window without a per-row set.  Rows come
out in canonical order (sequence, then start).  The readable list-based
translation of the rules above lives in the test oracles
(``tests/oracles/projection.py``), and the property tests pin the block
path against it row for row.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .blocks import BLOCK_TYPECODE, BlockBuilder, InstanceBlock
from .events import EncodedDatabase, EventId
from .positions import PositionIndex


class AlphabetIndex:
    """Per-search-node shared boundary cache.

    Every instance at a search node shares one pattern alphabet, so the
    "first alphabet event after t" / "last alphabet event before t" queries
    differ only in ``t``.  This cache merges the per-event sorted occurrence
    lists of the alphabet into one sorted list per sequence — built lazily,
    once per (node, sequence) — so the projection and closure loops answer
    each query with a single binary search on :meth:`merged` instead of
    one ``bisect`` per alphabet event per instance.

    It also owns the node's ``frozenset(pattern)`` so the projection,
    backward-extension and closure helpers stop rebuilding it per call.

    Child nodes are derived with :meth:`extend`, which exploits that a
    forward extension changes the alphabet by at most one event: extending
    with an event already in the alphabet *shares* the parent's merged
    lists outright (the overwhelmingly common case when patterns repeat
    their events), and a genuinely new event merges its occurrence list
    into the parent's — an O(n) two-run merge instead of a from-scratch
    rebuild over every alphabet event.
    """

    __slots__ = ("pattern", "alphabet", "_index", "_merged", "_parent", "_new_event")

    def __init__(self, index: PositionIndex, pattern: Tuple[EventId, ...]) -> None:
        self.pattern = pattern
        self.alphabet = frozenset(pattern)
        self._index = index
        self._merged: Dict[int, List[int]] = {}
        self._parent: Optional["AlphabetIndex"] = None
        self._new_event: Optional[EventId] = None

    def extend(self, event: EventId) -> "AlphabetIndex":
        """The cache for the child node ``pattern ++ <event>``."""
        child = AlphabetIndex.__new__(AlphabetIndex)
        child.pattern = self.pattern + (event,)
        child._index = self._index
        if event in self.alphabet:
            # Same alphabet: the merged lists are identical, share the cache
            # (both nodes may keep filling it — the values agree) along with
            # this node's own derivation for misses.
            child.alphabet = self.alphabet
            child._merged = self._merged
            child._parent = self._parent
            child._new_event = self._new_event
        else:
            child.alphabet = self.alphabet | {event}
            child._merged = {}
            child._parent = self
            child._new_event = event
        return child

    def merged(self, sequence_index: int) -> List[int]:
        """Sorted positions of every alphabet event in one sequence."""
        merged = self._merged.get(sequence_index)
        if merged is None:
            positions = self._index[sequence_index]
            parent = self._parent
            if parent is not None:
                base = parent.merged(sequence_index)
                extra = positions.positions_of(self._new_event)
                if not extra:
                    merged = base
                else:
                    # Two sorted runs: timsort merges them in linear time.
                    merged = base + extra
                    merged.sort()
            else:
                events = iter(self.alphabet)
                merged = list(positions.positions_of(next(events)))
                for event in events:
                    merged.extend(positions.positions_of(event))
                merged.sort()
            self._merged[sequence_index] = merged
        return merged


def singleton_blocks(
    encoded_db: EncodedDatabase, sequence_indexes: Optional[Iterable[int]] = None
) -> Dict[EventId, InstanceBlock]:
    """Instance blocks of every single-event pattern ``<e>`` in one pass.

    ``sequence_indexes`` (ascending) restricts the rows to those
    sequences; every sequence contributes by default.
    """
    if sequence_indexes is None:
        sequence_indexes = range(len(encoded_db))
    builders: Dict[EventId, BlockBuilder] = {}
    for sequence_index in sequence_indexes:
        for position, event in enumerate(encoded_db[sequence_index]):
            builder = builders.get(event)
            if builder is None:
                builder = builders[event] = BlockBuilder()
            builder.append(sequence_index, position, position)
    return {event: builder.build() for event, builder in builders.items()}


def forward_extensions_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
) -> Dict[EventId, InstanceBlock]:
    """Every forward extension of a block: ``e -> block of pattern ++ <e>``.

    Iterates the block sequence group by sequence group, hoisting the
    ``encoded_db[sid]`` / ``index[sid]`` / merged-alphabet lookups out of
    the per-instance loop, and emits extension rows into
    :class:`~repro.core.blocks.BlockBuilder` columns — no per-instance
    object allocation anywhere on the path.
    """
    # Per-event open builder state, laid out flat for the inner loop:
    # [starts.append, ends.append, seq_ids.append, offsets.append,
    #  last_sid, starts, ends, seq_ids, offsets]
    # Appending a row is two bound-method calls (plus a group registration
    # when the sequence changes) with no per-row Python function frames.
    entries: Dict[EventId, list] = {}
    alphabet = node.alphabet
    starts = block.starts
    ends = block.ends
    seq_ids = block.seq_ids
    offsets = block.offsets
    for group in range(len(seq_ids)):
        sid = seq_ids[group]
        sequence = encoded_db[sid]
        previous = index[sid].previous
        merged = node.merged(sid)
        merged_len = len(merged)
        sequence_len = len(sequence)
        lo = offsets[group]
        hi = offsets[group + 1]
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            after = end + 1
            if after < sequence_len and sequence[after] in alphabet:
                # Fast path: the adjacent event already bounds the window —
                # no boundary search, no gap window to scan.
                boundary = after
                window_end = after
            else:
                cursor = bisect_right(merged, end)
                if cursor < merged_len:
                    boundary = merged[cursor]
                    window_end = boundary
                else:
                    boundary = -1
                    window_end = sequence_len
            for position in range(after, window_end):
                # The window holds no alphabet event, so ``start`` and
                # ``end`` never hold this event: one comparison rejects
                # both a repeat inside the window (previous in (end,
                # position)) and a gap occurrence (previous in (start,
                # end)).
                if previous[position] > start:
                    continue
                event = sequence[position]
                entry = entries.get(event)
                if entry is None:
                    entry = entries[event] = _new_entry()
                if entry[4] != sid:
                    entry[2](sid)
                    entry[3](len(entry[5]))
                    entry[4] = sid
                entry[0](start)
                entry[1](position)
            if boundary >= 0:
                # The next alphabet event itself is a valid extension target:
                # the extended pattern then repeats an event it already has.
                event = sequence[boundary]
                entry = entries.get(event)
                if entry is None:
                    entry = entries[event] = _new_entry()
                if entry[4] != sid:
                    entry[2](sid)
                    entry[3](len(entry[5]))
                    entry[4] = sid
                entry[0](start)
                entry[1](boundary)
    extensions: Dict[EventId, InstanceBlock] = {}
    for event, entry in entries.items():
        entry[8].append(len(entry[5]))
        extensions[event] = InstanceBlock(entry[7], entry[8], entry[5], entry[6])
    return extensions


def _new_entry() -> list:
    """Fresh flat builder state for one extension event (see above layout)."""
    starts = array(BLOCK_TYPECODE)
    ends = array(BLOCK_TYPECODE)
    seq_ids = array(BLOCK_TYPECODE)
    offsets = array(BLOCK_TYPECODE)
    return [starts.append, ends.append, seq_ids.append, offsets.append, -1,
            starts, ends, seq_ids, offsets]


def project_extension_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
    event: EventId,
) -> InstanceBlock:
    """Instances of ``node.pattern ++ <event>`` derived from ``block`` alone.

    The single-event restriction of :func:`forward_extensions_block` —
    row-identical to ``forward_extensions_block(...)[event]`` (and to the
    empty block when the event yields no extension) but without touching
    any other extension event: each instance costs a couple of binary
    searches instead of a window scan.  The work-unit replay runs it once
    per path step.

    The per-row extension rule: an in-alphabet event can only extend to
    the first alphabet occurrence after the end; an outside event extends
    to its next occurrence when no alphabet event comes first and it does
    not occur in the instance's gaps — one comparison against the
    sequence's ``previous`` links at the target.
    """
    out_seq_ids = array(BLOCK_TYPECODE)
    out_offsets = array(BLOCK_TYPECODE)
    out_starts = array(BLOCK_TYPECODE)
    out_ends = array(BLOCK_TYPECODE)
    alphabet = node.alphabet
    in_alphabet = event in alphabet
    starts = block.starts
    ends = block.ends
    seq_ids = block.seq_ids
    offsets = block.offsets
    for group in range(len(seq_ids)):
        sid = seq_ids[group]
        sequence = encoded_db[sid]
        positions = index[sid]
        occurrences = positions.positions_of(event)
        if not in_alphabet and not occurrences:
            continue
        previous = positions.previous
        merged = node.merged(sid)
        merged_len = len(merged)
        sequence_len = len(sequence)
        group_start = len(out_starts)
        lo = offsets[group]
        hi = offsets[group + 1]
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            if in_alphabet:
                after = end + 1
                if after < sequence_len and sequence[after] in alphabet:
                    boundary = after
                else:
                    cursor = bisect_right(merged, end)
                    if cursor == merged_len:
                        continue
                    boundary = merged[cursor]
                if sequence[boundary] != event:
                    continue
                target = boundary
            else:
                cut = bisect_right(occurrences, end)
                if cut == len(occurrences):
                    continue
                target = occurrences[cut]
                # No alphabet event may sit between the end and the target.
                cursor = bisect_right(merged, end)
                if cursor < merged_len and merged[cursor] < target:
                    continue
                # Gap check: the event must not occur inside (start, end);
                # its previous occurrence is at most ``end`` and never on it.
                if previous[target] > start:
                    continue
            out_starts.append(start)
            out_ends.append(target)
        if len(out_starts) > group_start:
            out_seq_ids.append(sid)
            out_offsets.append(group_start)
    out_offsets.append(len(out_starts))
    return InstanceBlock(out_seq_ids, out_offsets, out_starts, out_ends)


def backward_extension_events_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
) -> Set[EventId]:
    """Events ``e`` such that *every* instance in ``block`` extends to ``<e> ++ pattern``.

    Used by the closure check: any such event proves the pattern non-closed
    (Definition 4.2), because the instance counts match and each instance
    of the pattern nests inside the corresponding backward-extended
    instance.  The window ``(previous alphabet occurrence, start)`` holds
    no alphabet event by construction, so no per-position alphabet
    membership test is needed.
    """
    if not block:
        return set()
    candidates: Optional[Set[EventId]] = None
    starts = block.starts
    ends = block.ends
    seq_ids = block.seq_ids
    offsets = block.offsets
    for group in range(len(seq_ids)):
        sid = seq_ids[group]
        sequence = encoded_db[sid]
        following = index[sid].following
        merged = node.merged(sid)
        lo = offsets[group]
        hi = offsets[group + 1]
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            cursor = bisect_left(merged, start) - 1
            previous_alphabet = merged[cursor] if cursor >= 0 else -1
            # An event extends backward iff it occurs in the window and not
            # inside (start, end).  Its last window occurrence is the only
            # one whose next occurrence lies past ``start``, and that next
            # occurrence is never ``start`` or ``end`` (pattern events).
            local = {
                sequence[position]
                for position in range(previous_alphabet + 1, start)
                if following[position] > end
            }
            if previous_alphabet >= 0:
                # A pattern-alphabet event immediately "reachable" to the
                # left is also a valid backward extension (the pattern
                # repeats it).
                local.add(sequence[previous_alphabet])
            candidates = local if candidates is None else (candidates & local)
            if not candidates:
                return set()
    return candidates or set()
