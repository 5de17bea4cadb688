"""Sequential pattern and two-event rule baselines.

* :class:`PrefixSpan` — classic sequential pattern mining (Pei et al., ICDE
  2001).  The paper positions iterative pattern mining as an extension of
  it.  A pattern here is *supported by a sequence* when it is a
  subsequence of it; support is the number of supporting sequences —
  repetitions within a sequence are deliberately not counted, which is
  exactly the difference the paper's Section 1 motivates.
* :func:`closed_filter` — closed sequential patterns (CloSpan / BIDE
  result, Yan et al. [32], Wang & Han [30]).  A frequent sequential pattern
  is *closed* when no frequent super-sequence has the same sequence
  support.  Because sequence support is anti-monotone under the general
  subsequence relation, every same-support super-sequence of a frequent
  pattern is itself frequent and therefore present in the full result, so
  a grouping-by-support post filter is an exact (if not maximally fast) way
  to obtain the closed set.
* :class:`TwoEventRuleMiner` — the Perracotta-style baseline (ref [33]).
  The paper generalises prior rule-based specification miners that are
  "limited to two-event rules (e.g. <lock> -> <unlock>)" and "first list all
  possible two-event rules and then check the significance of each rule".
  Candidate rules are all ordered pairs ``(a, b)`` of events that co-occur
  in at least one sequence with ``a`` before ``b``; each candidate's
  statistics are computed with the same temporal-point semantics as
  recurrent rules (:func:`tests.oracles.temporal_points.rule_statistics`),
  so the numbers are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence as TypingSequence, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.core.events import EventLabel
from repro.core.pattern import is_subsequence
from repro.core.positions import PositionIndex
from repro.core.sequence import SequenceDatabase
from repro.core.stats import MiningStats
from repro.rules.rule import RecurrentRule
from tests.oracles.temporal_points import rule_statistics


@dataclass(frozen=True)
class SequentialPattern:
    """A frequent sequential pattern with its sequence support."""

    events: Tuple[EventLabel, ...]
    support: int

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class SequentialMiningResult:
    """Frequent sequential patterns plus the run's statistics."""

    patterns: List[SequentialPattern] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)
    min_support: int = 0

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def support_of(self, events: TypingSequence[EventLabel]) -> Optional[int]:
        """Support of the exact pattern, or ``None`` if it was not mined."""
        target = tuple(events)
        for pattern in self.patterns:
            if pattern.events == target:
                return pattern.support
        return None


class PrefixSpan:
    """Depth-first sequential pattern mining over earliest-position projections."""

    def __init__(self, min_support: float = 2.0, max_length: Optional[int] = None) -> None:
        if min_support <= 0:
            raise ConfigurationError(f"min_support must be positive, got {min_support!r}")
        if max_length is not None and max_length < 1:
            raise ConfigurationError(f"max_length must be at least 1, got {max_length!r}")
        self.min_support = min_support
        self.max_length = max_length

    def mine(self, database: SequenceDatabase) -> SequentialMiningResult:
        """Mine all frequent sequential patterns of the database."""
        stats = MiningStats()
        stats.start()
        result = SequentialMiningResult(stats=stats)
        result.min_support = database.absolute_support(self.min_support)

        encoded = database.encoded
        initial: Dict[int, List[Tuple[int, int]]] = {}
        for sequence_index, sequence in enumerate(encoded):
            first_seen: Dict[int, int] = {}
            for position, event in enumerate(sequence):
                if event not in first_seen:
                    first_seen[event] = position
            for event, position in first_seen.items():
                initial.setdefault(event, []).append((sequence_index, position))

        for event in sorted(initial):
            projections = initial[event]
            if len(projections) < result.min_support:
                stats.pruned_support += 1
                continue
            self._grow(database, encoded, (event,), projections, result)

        stats.stop()
        return result

    def _grow(
        self,
        database: SequenceDatabase,
        encoded: List[Tuple[int, ...]],
        pattern: Tuple[int, ...],
        projections: List[Tuple[int, int]],
        result: SequentialMiningResult,
    ) -> None:
        stats = result.stats
        stats.visited += 1
        stats.emitted += 1
        result.patterns.append(
            SequentialPattern(database.vocabulary.decode(pattern), len(projections))
        )

        if self.max_length is not None and len(pattern) >= self.max_length:
            return

        extensions: Dict[int, List[Tuple[int, int]]] = {}
        for sequence_index, position in projections:
            sequence = encoded[sequence_index]
            first_seen: Dict[int, int] = {}
            for next_position in range(position + 1, len(sequence)):
                event = sequence[next_position]
                if event not in first_seen:
                    first_seen[event] = next_position
            for event, next_position in first_seen.items():
                extensions.setdefault(event, []).append((sequence_index, next_position))

        for event in sorted(extensions):
            extended = extensions[event]
            if len(extended) < result.min_support:
                stats.pruned_support += 1
                continue
            self._grow(database, encoded, pattern + (event,), extended, result)


def mine_sequential_patterns(
    database: SequenceDatabase, min_support: float = 2.0, max_length: Optional[int] = None
) -> SequentialMiningResult:
    """Convenience wrapper around :class:`PrefixSpan`."""
    return PrefixSpan(min_support=min_support, max_length=max_length).mine(database)


def closed_filter(result: SequentialMiningResult) -> SequentialMiningResult:
    """Return a new result keeping only the closed patterns of ``result``."""
    by_support: Dict[int, List[SequentialPattern]] = {}
    for pattern in result.patterns:
        by_support.setdefault(pattern.support, []).append(pattern)

    closed = SequentialMiningResult(stats=result.stats, min_support=result.min_support)
    for pattern in result.patterns:
        peers = by_support.get(pattern.support, [])
        if not any(
            peer.events != pattern.events and is_subsequence(pattern.events, peer.events)
            for peer in peers
        ):
            closed.patterns.append(pattern)
    return closed


def mine_closed_sequential_patterns(
    database: SequenceDatabase, min_support: float = 2.0, max_length: Optional[int] = None
) -> SequentialMiningResult:
    """Mine all frequent sequential patterns, then keep the closed ones."""
    return closed_filter(mine_sequential_patterns(database, min_support, max_length))


@dataclass
class TwoEventRuleResult:
    """Mined two-event rules plus run statistics."""

    rules: List[RecurrentRule] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)
    candidates_examined: int = 0

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


class TwoEventRuleMiner:
    """Enumerate-and-check mining of two-event rules ``<a> -> <b>``."""

    def __init__(
        self,
        min_s_support: float = 2.0,
        min_confidence: float = 0.5,
        min_i_support: int = 1,
    ) -> None:
        if min_s_support <= 0:
            raise ConfigurationError(f"min_s_support must be positive, got {min_s_support!r}")
        if not (0.0 < min_confidence <= 1.0):
            raise ConfigurationError(
                f"min_confidence must be in (0, 1], got {min_confidence!r}"
            )
        if min_i_support < 1:
            raise ConfigurationError(f"min_i_support must be >= 1, got {min_i_support!r}")
        self.min_s_support = min_s_support
        self.min_confidence = min_confidence
        self.min_i_support = min_i_support

    def _candidate_pairs(self, database: SequenceDatabase) -> Set[Tuple[int, int]]:
        """Ordered event pairs occurring in order within at least one sequence."""
        pairs: Set[Tuple[int, int]] = set()
        for sequence in database.encoded:
            seen_before: Set[int] = set()
            for event in sequence:
                for earlier in seen_before:
                    pairs.add((earlier, event))
                seen_before.add(event)
        return pairs

    def mine(self, database: SequenceDatabase) -> TwoEventRuleResult:
        """Check every candidate pair and keep the significant ones."""
        stats = MiningStats()
        stats.start()
        result = TwoEventRuleResult(stats=stats)

        encoded = database.encoded
        index = PositionIndex(encoded)
        min_s_support = database.absolute_support(self.min_s_support)
        vocabulary = database.vocabulary

        # Premise-level sequence supports, reused across candidates.
        premise_support: Dict[int, int] = {}
        for event in index.distinct_events():
            premise_support[event] = index.sequence_support(event)

        for premise_event, consequent_event in sorted(self._candidate_pairs(database)):
            result.candidates_examined += 1
            stats.visited += 1
            if premise_support.get(premise_event, 0) < min_s_support:
                stats.pruned_support += 1
                continue
            s_support, i_support, confidence = rule_statistics(
                encoded, index, (premise_event,), (consequent_event,)
            )
            if (
                s_support >= min_s_support
                and i_support >= self.min_i_support
                and confidence >= self.min_confidence
            ):
                stats.emitted += 1
                result.rules.append(
                    RecurrentRule(
                        premise=(vocabulary.label_of(premise_event),),
                        consequent=(vocabulary.label_of(consequent_event),),
                        s_support=s_support,
                        i_support=i_support,
                        confidence=confidence,
                    )
                )

        stats.stop()
        return result


def mine_two_event_rules(
    database: SequenceDatabase,
    min_s_support: float = 2.0,
    min_confidence: float = 0.5,
    min_i_support: int = 1,
) -> TwoEventRuleResult:
    """Convenience wrapper around :class:`TwoEventRuleMiner`."""
    miner = TwoEventRuleMiner(
        min_s_support=min_s_support,
        min_confidence=min_confidence,
        min_i_support=min_i_support,
    )
    return miner.mine(database)
