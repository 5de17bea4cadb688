"""Episode mining baselines (Mannila et al. and Casas-Garriga, refs [22], [13]).

Episode mining is the related technique the paper contrasts iterative
patterns with: related events must fall inside a *window* of fixed width.

* :class:`WinepiMiner` — serial episodes under a fixed window.  A serial
  episode is an ordered tuple of events; it is *supported by a window* (a
  contiguous slice of ``window_width`` events) when it is a subsequence of
  the slice.  The support of an episode in a sequence is the number of
  windows supporting it, and supports add up across the sequences of a
  database (the original formulation handles a single long sequence; we
  simply sum, which reduces to it for a one-sequence database).  The
  "window barrier" the paper criticises is directly visible here: a pattern
  whose events lie further apart than ``window_width`` has support 0 no
  matter how often it occurs.
* :class:`MinepiMiner` — episodes measured by their *minimal occurrences*:
  intervals ``[start, end]`` in which the episode occurs while no proper
  sub-interval contains it.  Casas-Garriga (ref [13]) later replaced the
  fixed window by a *gap constraint* between consecutive episode events;
  ``max_gap`` is that knob.
* :func:`derive_episode_rules` — an episode rule ``alpha => beta`` relates
  an episode ``beta`` and one of its prefixes ``alpha``; its confidence is
  ``support(beta) / support(alpha)`` — "when the prefix is seen inside a
  window, how often does the whole episode complete within the same
  window".  Rules are generated directly from a WINEPI result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence as TypingSequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.events import EventLabel
from repro.core.pattern import is_subsequence
from repro.core.sequence import SequenceDatabase
from repro.core.stats import MiningStats


@dataclass(frozen=True)
class Episode:
    """A serial episode with its support."""

    events: Tuple[EventLabel, ...]
    support: int


def _support_of(episodes: List[Episode], events: TypingSequence[EventLabel]) -> Optional[int]:
    """Support of the exact episode, or ``None`` if it was not mined."""
    target = tuple(events)
    for episode in episodes:
        if episode.events == target:
            return episode.support
    return None


@dataclass
class EpisodeMiningResult:
    """Frequent serial episodes plus run statistics."""

    episodes: List[Episode] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)
    window_width: int = 0
    min_support: int = 0

    def __len__(self) -> int:
        return len(self.episodes)

    def support_of(self, events: TypingSequence[EventLabel]) -> Optional[int]:
        """Support of the exact episode, or ``None`` if it was not mined."""
        return _support_of(self.episodes, events)


def window_support(
    sequence: TypingSequence[EventLabel],
    episode: TypingSequence[EventLabel],
    window_width: int,
) -> int:
    """Number of width-``window_width`` windows of ``sequence`` supporting ``episode``."""
    if window_width < 1:
        raise ConfigurationError(f"window_width must be >= 1, got {window_width!r}")
    episode = tuple(episode)
    if len(episode) > window_width:
        return 0
    count = 0
    last_start = max(0, len(sequence) - window_width)
    for start in range(last_start + 1):
        window = sequence[start : start + window_width]
        if is_subsequence(episode, window):
            count += 1
    return count


#: Measures an episode over the database's sequences.
EpisodeSupport = Callable[[List[Tuple[EventLabel, ...]], Tuple[EventLabel, ...]], int]


def _grow_episodes(
    database: SequenceDatabase,
    support: EpisodeSupport,
    min_support: int,
    max_length: Optional[int],
    stats: MiningStats,
) -> List[Episode]:
    """Depth-first episode growth: every frequent episode, extension by extension.

    WINEPI and MINEPI differ only in ``support``; an episode of
    ``max_length`` events is not extended.
    """
    sequences = [tuple(sequence) for sequence in database]
    alphabet = sorted({event for sequence in sequences for event in sequence}, key=str)
    episodes: List[Episode] = []

    def grow(episode: Tuple[EventLabel, ...], episode_support: int) -> None:
        stats.visited += 1
        stats.emitted += 1
        episodes.append(Episode(episode, episode_support))
        if max_length is not None and len(episode) >= max_length:
            return
        for event in alphabet:
            extended = episode + (event,)
            extended_support = support(sequences, extended)
            if extended_support >= min_support:
                grow(extended, extended_support)
            else:
                stats.pruned_support += 1

    for event in alphabet:
        singleton_support = support(sequences, (event,))
        if singleton_support >= min_support:
            grow((event,), singleton_support)
        else:
            stats.pruned_support += 1
    return episodes


class WinepiMiner:
    """Depth-first mining of frequent serial episodes under a fixed window."""

    def __init__(
        self,
        window_width: int,
        min_support: int = 2,
        max_episode_length: Optional[int] = None,
    ) -> None:
        if window_width < 1:
            raise ConfigurationError(f"window_width must be >= 1, got {window_width!r}")
        if min_support < 1:
            raise ConfigurationError(f"min_support must be >= 1, got {min_support!r}")
        self.window_width = window_width
        self.min_support = min_support
        self.max_episode_length = max_episode_length

    def mine(self, database: SequenceDatabase) -> EpisodeMiningResult:
        """Mine all frequent serial episodes of the database."""
        stats = MiningStats()
        stats.start()
        result = EpisodeMiningResult(
            stats=stats, window_width=self.window_width, min_support=self.min_support
        )

        def support(sequences, episode: Tuple[EventLabel, ...]) -> int:
            return sum(
                window_support(sequence, episode, self.window_width) for sequence in sequences
            )

        result.episodes = _grow_episodes(
            database,
            support,
            self.min_support,
            self.max_episode_length or self.window_width,
            stats,
        )
        stats.stop()
        return result


def mine_episodes(
    database: SequenceDatabase,
    window_width: int,
    min_support: int = 2,
    max_episode_length: Optional[int] = None,
) -> EpisodeMiningResult:
    """Convenience wrapper around :class:`WinepiMiner`."""
    miner = WinepiMiner(
        window_width=window_width,
        min_support=min_support,
        max_episode_length=max_episode_length,
    )
    return miner.mine(database)


def minimal_occurrences(
    sequence: TypingSequence[EventLabel],
    episode: TypingSequence[EventLabel],
    max_gap: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Minimal occurrence intervals of a serial episode in ``sequence``.

    A minimal occurrence is an interval ``[start, end]`` such that the
    episode occurs inside it (respecting ``max_gap`` between consecutive
    episode events when given) and no proper sub-interval also contains an
    occurrence.  The standard computation walks the sequence once per episode
    event: for every possible end position the latest feasible start is
    tracked, and dominated intervals are discarded.
    """
    episode = tuple(episode)
    if not episode:
        raise ConfigurationError("cannot search for an empty episode")
    if max_gap is not None and max_gap < 0:
        raise ConfigurationError(f"max_gap must be >= 0, got {max_gap!r}")

    occurrences: List[Tuple[int, int]] = []
    for end in range(len(sequence)):
        if sequence[end] != episode[-1]:
            continue
        # Walk backwards matching the episode right-to-left as late as
        # possible; this yields the largest feasible start for this end,
        # which is exactly what minimality requires.
        position = end
        matched = len(episode) - 1
        start = end
        feasible = True
        while matched > 0:
            matched -= 1
            previous = position - 1
            found = None
            while previous >= 0:
                if sequence[previous] == episode[matched]:
                    found = previous
                    break
                previous -= 1
            if found is None:
                feasible = False
                break
            if max_gap is not None and (position - found - 1) > max_gap:
                feasible = False
                break
            position = found
            start = found
        if not feasible:
            continue
        # Minimality: if the previous interval starts no earlier (and ends
        # earlier), it is contained in this one, so this one is not minimal.
        if occurrences and occurrences[-1][0] >= start:
            continue
        occurrences.append((start, end))
    return occurrences


@dataclass
class MinepiResult:
    """Episodes measured by their number of minimal occurrences."""

    episodes: List[Episode] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)
    max_gap: Optional[int] = None
    min_support: int = 0

    def support_of(self, events: TypingSequence[EventLabel]) -> Optional[int]:
        """Support of the exact episode, or ``None`` if it was not mined."""
        return _support_of(self.episodes, events)


class MinepiMiner:
    """Mine serial episodes by minimal-occurrence count, with an optional gap constraint."""

    def __init__(
        self,
        min_support: int = 2,
        max_gap: Optional[int] = None,
        max_episode_length: Optional[int] = 4,
    ) -> None:
        if min_support < 1:
            raise ConfigurationError(f"min_support must be >= 1, got {min_support!r}")
        self.min_support = min_support
        self.max_gap = max_gap
        self.max_episode_length = max_episode_length

    def mine(self, database: SequenceDatabase) -> MinepiResult:
        """Mine all episodes whose minimal-occurrence count meets the threshold."""
        stats = MiningStats()
        stats.start()
        result = MinepiResult(stats=stats, max_gap=self.max_gap, min_support=self.min_support)

        def support(sequences, episode: Tuple[EventLabel, ...]) -> int:
            return sum(
                len(minimal_occurrences(sequence, episode, self.max_gap))
                for sequence in sequences
            )

        result.episodes = _grow_episodes(
            database, support, self.min_support, self.max_episode_length, stats
        )
        stats.stop()
        return result


@dataclass(frozen=True)
class EpisodeRule:
    """An episode rule ``prefix => episode`` with window-based confidence."""

    premise: Tuple[EventLabel, ...]
    consequent: Tuple[EventLabel, ...]
    support: int
    confidence: float

    @property
    def episode(self) -> Tuple[EventLabel, ...]:
        """The full episode the rule predicts (premise followed by consequent)."""
        return self.premise + self.consequent


@dataclass
class EpisodeRuleResult:
    """Episode rules derived from a WINEPI result."""

    rules: List[EpisodeRule] = field(default_factory=list)
    window_width: int = 0

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def derive_episode_rules(
    episodes: EpisodeMiningResult, min_confidence: float = 0.5
) -> EpisodeRuleResult:
    """Generate all episode rules meeting ``min_confidence`` from mined episodes."""
    if not (0.0 < min_confidence <= 1.0):
        raise ConfigurationError(f"min_confidence must be in (0, 1], got {min_confidence!r}")

    support_by_episode: Dict[Tuple[EventLabel, ...], int] = {
        episode.events: episode.support for episode in episodes.episodes
    }
    result = EpisodeRuleResult(window_width=episodes.window_width)
    for episode in episodes.episodes:
        for split in range(1, len(episode.events)):
            premise = episode.events[:split]
            consequent = episode.events[split:]
            premise_support = support_by_episode.get(premise)
            if not premise_support:
                continue
            confidence = episode.support / premise_support
            if confidence >= min_confidence:
                result.rules.append(
                    EpisodeRule(
                        premise=premise,
                        consequent=consequent,
                        support=episode.support,
                        confidence=confidence,
                    )
                )
    return result
