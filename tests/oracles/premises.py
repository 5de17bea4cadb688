"""Reference premise enumeration (Step 1 of Section 5), one recursive miner.

The rule miners run their own unit loop over
:func:`repro.rules.premise_miner.premise_extensions`; this standalone
depth-first miner walks the same PrefixSpan-style search so the premise
tests can pin the s-support semantics without a full rule mine.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, NamedTuple, Optional, Tuple

from repro.core.blocks import PositionBlock
from repro.core.events import EncodedDatabase, EventId
from repro.core.stats import MiningStats
from repro.rules.premise_miner import initial_premise_projections, premise_extensions


class MinedPremise(NamedTuple):
    """A premise candidate: the pattern, its s-support and its projections.

    ``projections`` maps each supporting sequence index to the end position
    of the earliest embedding of the premise in that sequence (columnar,
    one row per sequence, ascending).
    """

    pattern: Tuple[EventId, ...]
    s_support: int
    projections: PositionBlock


class PremiseMiner:
    """Enumerate all premises with sequence support at least ``min_s_support``."""

    def __init__(
        self,
        min_s_support: int,
        max_length: Optional[int] = None,
        allowed_events: Optional[FrozenSet[EventId]] = None,
    ) -> None:
        self.min_s_support = max(1, min_s_support)
        self.max_length = max_length
        self.stats = MiningStats()
        self.allowed_events = allowed_events

    def mine(self, encoded_db: EncodedDatabase) -> Iterator[MinedPremise]:
        """Yield every s-frequent premise, depth-first, shortest prefix first."""
        initial = initial_premise_projections(encoded_db, self.allowed_events)
        for event in sorted(initial):
            projections = initial[event]
            if len(projections) < self.min_s_support:
                self.stats.pruned_support += 1
                continue
            yield from self._grow(encoded_db, (event,), projections)

    def _grow(
        self,
        encoded_db: EncodedDatabase,
        pattern: Tuple[EventId, ...],
        projections: PositionBlock,
    ) -> Iterator[MinedPremise]:
        self.stats.visited += 1
        yield MinedPremise(pattern, len(projections), projections)
        if self.max_length is not None and len(pattern) >= self.max_length:
            return
        extensions = premise_extensions(encoded_db, projections, self.allowed_events)
        for event in sorted(extensions):
            extended_projections = extensions[event]
            if len(extended_projections) < self.min_s_support:
                self.stats.pruned_support += 1
                continue
            yield from self._grow(encoded_db, pattern + (event,), extended_projections)
