"""Columnar instance lists: flat-array projected databases for the hot loop.

The mining search spends nearly all of its time growing instance lists
(Section 4's projected-database formulation).  Materialising those lists as
``List[PatternInstance]`` — one NamedTuple per instance — makes every inner
loop pay for tuple allocation, attribute access and (between engine worker
processes) per-tuple pickling.

:class:`InstanceBlock` stores the same information column-wise: parallel
``array('i')`` columns of start and end positions, partitioned by sequence
through an offsets array.  The layout buys three things:

* inner loops iterate over machine ints and hoist the per-sequence
  ``encoded[sid]`` / ``index[sid]`` lookups out of the per-instance loop,
* a block pickles as a handful of contiguous buffers instead of millions
  of tuples when unit outcomes cross the worker/coordinator boundary, and
* the per-sequence partitioning gives the projection code its grouping for
  free (the rows of one sequence are a contiguous slice).

Blocks preserve the canonical instance order of the tuple-based code —
ascending sequence index, then ascending start position — so converting a
block back to :class:`~repro.core.instances.PatternInstance` tuples
reproduces the pre-columnar output bit for bit (property-tested against the
oracle in :mod:`repro.core.instances`).

:class:`PositionBlock` is the rule-mining sibling: flat ``(sequence,
position)`` columns used for premise projections and temporal points, where
each row is a single position rather than a span.

:class:`WireInstanceBlock` is the engine's *wire form* of an instance block:
because an instance is uniquely determined by its start position, the
``ends`` column is redundant on the worker-to-coordinator boundary — the
coordinator re-derives it by walking the pattern forward from each start.
Converting to wire form shares the remaining columns (zero copy), so
dropping ``ends`` shrinks the shipped payload by the whole column.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple

from .instances import PatternInstance

#: Typecode of every block column: C signed int, 4 bytes on every platform
#: CPython supports.  Positions and sequence indexes comfortably fit.
BLOCK_TYPECODE = "i"


def _int_array() -> array:
    return array(BLOCK_TYPECODE)


class InstanceBlock:
    """An immutable columnar list of pattern instances.

    Rows are grouped by sequence: ``seq_ids[k]`` is the k-th distinct
    sequence index (ascending) and its rows occupy the half-open range
    ``offsets[k] .. offsets[k+1]`` of the ``starts`` / ``ends`` columns.
    Within a sequence, rows are ordered by ascending start position — which
    for instances of one pattern is also ascending end position, since an
    instance is uniquely determined by either endpoint.
    """

    __slots__ = ("seq_ids", "offsets", "starts", "ends")

    def __init__(self, seq_ids: array, offsets: array, starts: array, ends: array) -> None:
        self.seq_ids = seq_ids
        self.offsets = offsets
        self.starts = starts
        self.ends = ends

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_instances(cls, instances: Iterable[PatternInstance]) -> "InstanceBlock":
        """Build a block from row objects (any order; rows are re-sorted)."""
        rows = sorted(instances)
        builder = BlockBuilder()
        for sequence_index, start, end in rows:
            builder.append(sequence_index, start, end)
        return builder.build()

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.starts)

    def __bool__(self) -> bool:
        return len(self.starts) > 0

    def __iter__(self) -> Iterator[PatternInstance]:
        """Yield rows as :class:`PatternInstance` — convenience, not hot path."""
        starts = self.starts
        ends = self.ends
        seq_ids = self.seq_ids
        offsets = self.offsets
        for group in range(len(seq_ids)):
            sid = seq_ids[group]
            for row in range(offsets[group], offsets[group + 1]):
                yield PatternInstance(sid, starts[row], ends[row])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceBlock):
            return NotImplemented
        return (
            self.seq_ids == other.seq_ids
            and self.offsets == other.offsets
            and self.starts == other.starts
            and self.ends == other.ends
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"InstanceBlock(rows={len(self)}, sequences={len(self.seq_ids)})"

    def first(self) -> PatternInstance:
        """The first row in canonical order (block must be non-empty)."""
        return PatternInstance(self.seq_ids[0], self.starts[0], self.ends[0])

    def groups(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(sequence_index, row_lo, row_hi)`` per sequence partition."""
        seq_ids = self.seq_ids
        offsets = self.offsets
        for group in range(len(seq_ids)):
            yield seq_ids[group], offsets[group], offsets[group + 1]

    # ------------------------------------------------------------------ #
    # Conversion / accounting
    # ------------------------------------------------------------------ #
    def to_instances(self) -> List[PatternInstance]:
        """Materialise the rows as the tuple-based representation."""
        return list(self)

    def to_tuple(self) -> Tuple[PatternInstance, ...]:
        """Materialise the rows as an immutable tuple (public result form)."""
        return tuple(self)

    def nbytes(self) -> int:
        """Size of the underlying buffers — the unit-transfer payload."""
        return (
            len(self.seq_ids) * self.seq_ids.itemsize
            + len(self.offsets) * self.offsets.itemsize
            + len(self.starts) * self.starts.itemsize
            + len(self.ends) * self.ends.itemsize
        )

    def to_wire(self) -> "WireInstanceBlock":
        """The wire form of this block: ``ends`` stays behind on pickling.

        Shares every column with this block (no copy), including ``ends``
        for free same-process decoding; only a pickle crossing drops the
        ends column, and the coordinator then reconstructs it from the
        pattern — see :meth:`WireInstanceBlock.to_block`.
        """
        return WireInstanceBlock(self.seq_ids, self.offsets, self.starts, self.ends)

    # arrays pickle as compact buffers already; the default reduce of a
    # __slots__ class handles the rest.
    def __reduce__(self):
        return (InstanceBlock, (self.seq_ids, self.offsets, self.starts, self.ends))


class WireInstanceBlock:
    """An instance block whose derivable ``ends`` column stays off the wire.

    This is what pattern records ship across the worker-to-coordinator
    boundary.  In-process the block keeps a reference to the original
    ``ends`` column (free — the columns are shared, not copied), so a
    serial run decodes instances without any recomputation; pickling
    detaches it (see ``__reduce__``), and only then does reconstruction
    happen, on the coordinator.  Reconstruction relies on the QRE instance
    semantics: from a valid instance start, each subsequent pattern
    event's match position is that event's *first* occurrence after the
    previous match (any earlier alphabet event would invalidate the
    instance), so a forward walk over the sequence recovers the end
    position exactly.
    """

    __slots__ = ("seq_ids", "offsets", "starts", "ends")

    def __init__(
        self,
        seq_ids: array,
        offsets: array,
        starts: array,
        ends: Optional[array] = None,
    ) -> None:
        self.seq_ids = seq_ids
        self.offsets = offsets
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.starts)

    def __bool__(self) -> bool:
        return len(self.starts) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WireInstanceBlock):
            return NotImplemented
        return (
            self.seq_ids == other.seq_ids
            and self.offsets == other.offsets
            and self.starts == other.starts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"WireInstanceBlock(rows={len(self)}, sequences={len(self.seq_ids)})"

    def nbytes(self) -> int:
        """Size of the buffers that cross the wire (``ends`` never does)."""
        return (
            len(self.seq_ids) * self.seq_ids.itemsize
            + len(self.offsets) * self.offsets.itemsize
            + len(self.starts) * self.starts.itemsize
        )

    def to_block(self, encoded_db, pattern) -> InstanceBlock:
        """The full :class:`InstanceBlock`: reattach or rebuild ``ends``."""
        if self.ends is not None:
            return InstanceBlock(self.seq_ids, self.offsets, self.starts, self.ends)
        tail = tuple(pattern)[1:]
        starts = self.starts
        offsets = self.offsets
        seq_ids = self.seq_ids
        ends = _int_array()
        for group in range(len(seq_ids)):
            sequence = encoded_db[seq_ids[group]]
            for row in range(offsets[group], offsets[group + 1]):
                position = starts[row]
                for event in tail:
                    position += 1
                    while sequence[position] != event:
                        position += 1
                ends.append(position)
        return InstanceBlock(seq_ids, offsets, starts, ends)

    def to_tuple(self, encoded_db, pattern) -> Tuple[PatternInstance, ...]:
        """Materialise the rows as :class:`PatternInstance` tuples."""
        return self.to_block(encoded_db, pattern).to_tuple()

    # Pickling detaches the ends column — that is the whole point of the
    # wire form; the receiving side reconstructs on demand.
    def __reduce__(self):
        return (WireInstanceBlock, (self.seq_ids, self.offsets, self.starts))


class BlockBuilder:
    """Append-only builder for :class:`InstanceBlock`.

    Rows must arrive grouped by non-decreasing sequence index — which is
    exactly the order every projection loop produces them in (they iterate
    the parent block sequence by sequence).
    """

    __slots__ = ("seq_ids", "offsets", "starts", "ends", "_last_sid")

    def __init__(self) -> None:
        self.seq_ids = _int_array()
        self.offsets = _int_array()
        self.starts = _int_array()
        self.ends = _int_array()
        self._last_sid = -1

    def append(self, sequence_index: int, start: int, end: int) -> None:
        if sequence_index != self._last_sid:
            self.seq_ids.append(sequence_index)
            self.offsets.append(len(self.starts))
            self._last_sid = sequence_index
        self.starts.append(start)
        self.ends.append(end)

    def __len__(self) -> int:
        return len(self.starts)

    def build(self) -> InstanceBlock:
        self.offsets.append(len(self.starts))
        block = InstanceBlock(self.seq_ids, self.offsets, self.starts, self.ends)
        # Detach every column so post-build appends cannot mutate the block
        # that was just handed out; the builder starts over empty.
        self.seq_ids = _int_array()
        self.offsets = _int_array()
        self.starts = _int_array()
        self.ends = _int_array()
        self._last_sid = -1
        return block


class PositionBlock:
    """A columnar list of ``(sequence_index, position)`` rows.

    Used by the rule miners for premise projections (one row per supporting
    sequence, ascending) and temporal points (rows grouped by sequence).
    """

    __slots__ = ("seq_ids", "positions")

    def __init__(self, seq_ids: array, positions: array) -> None:
        self.seq_ids = seq_ids
        self.positions = positions

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "PositionBlock":
        builder = PositionBlockBuilder()
        for sequence_index, position in pairs:
            builder.append(sequence_index, position)
        return builder.build()

    def __len__(self) -> int:
        return len(self.positions)

    def __bool__(self) -> bool:
        return len(self.positions) > 0

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.seq_ids, self.positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PositionBlock):
            return NotImplemented
        return self.seq_ids == other.seq_ids and self.positions == other.positions

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PositionBlock(rows={len(self)})"

    def nbytes(self) -> int:
        """Size of the underlying buffers."""
        return (
            len(self.seq_ids) * self.seq_ids.itemsize
            + len(self.positions) * self.positions.itemsize
        )

    def __reduce__(self):
        return (PositionBlock, (self.seq_ids, self.positions))


class PositionBlockBuilder:
    """Append-only builder for :class:`PositionBlock`."""

    __slots__ = ("seq_ids", "positions")

    def __init__(self) -> None:
        self.seq_ids = _int_array()
        self.positions = _int_array()

    def append(self, sequence_index: int, position: int) -> None:
        self.seq_ids.append(sequence_index)
        self.positions.append(position)

    def __len__(self) -> int:
        return len(self.positions)

    def build(self) -> PositionBlock:
        return PositionBlock(self.seq_ids, self.positions)
