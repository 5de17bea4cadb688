"""Tests for the episode-mining baselines (WINEPI, MINEPI, episode rules)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.sequence import SequenceDatabase
from tests.baselines.episodes import (
    MinepiMiner,
    WinepiMiner,
    derive_episode_rules,
    mine_episodes,
    minimal_occurrences,
    window_support,
)


def test_window_support_counts_supporting_windows():
    sequence = ["a", "b", "c", "a", "b"]
    # Windows of width 3: abc, bca, cab -> wait: slices [a,b,c], [b,c,a], [c,a,b]
    assert window_support(sequence, ["a", "b"], 3) == 2
    assert window_support(sequence, ["a", "c"], 3) == 1
    assert window_support(sequence, ["a", "b"], 2) == 2
    assert window_support(sequence, ["c"], 1) == 1


def test_window_support_episode_longer_than_window_is_zero():
    assert window_support(["a", "b", "c"], ["a", "b", "c"], 2) == 0


def test_window_support_invalid_width():
    with pytest.raises(ConfigurationError):
        window_support(["a"], ["a"], 0)


def test_the_window_barrier():
    """Events further apart than the window are invisible to episode mining —
    the limitation of episode mining the paper removes (Section 2)."""
    db = SequenceDatabase.from_sequences(
        [["lock", "x1", "x2", "x3", "x4", "unlock"]] * 3
    )
    narrow = mine_episodes(db, window_width=3, min_support=3)
    assert narrow.support_of(("lock", "unlock")) is None
    wide = mine_episodes(db, window_width=6, min_support=3)
    assert wide.support_of(("lock", "unlock")) == 3


def test_winepi_miner_finds_frequent_serial_episodes():
    db = SequenceDatabase.from_sequences([["a", "b", "a", "b", "a", "b"]])
    result = mine_episodes(db, window_width=3, min_support=3)
    assert result.support_of(("a", "b")) is not None
    assert result.support_of(("a", "b")) >= 3


def test_winepi_configuration_validation():
    with pytest.raises(ConfigurationError):
        WinepiMiner(window_width=0)
    with pytest.raises(ConfigurationError):
        WinepiMiner(window_width=3, min_support=0)


def test_minimal_occurrences_simple():
    assert minimal_occurrences(["a", "b", "a", "b"], ["a", "b"]) == [(0, 1), (2, 3)]
    assert minimal_occurrences(["a", "x", "b"], ["a", "b"]) == [(0, 2)]
    assert minimal_occurrences(["b", "b"], ["a", "b"]) == []


def test_minimal_occurrences_pick_latest_start():
    # The minimal occurrence ending at the final 'b' starts at the *second* 'a'.
    assert minimal_occurrences(["a", "a", "b"], ["a", "b"]) == [(1, 2)]


def test_minimal_occurrences_with_gap_constraint():
    sequence = ["a", "x", "x", "b", "a", "b"]
    unconstrained = minimal_occurrences(sequence, ["a", "b"])
    assert (4, 5) in unconstrained
    constrained = minimal_occurrences(sequence, ["a", "b"], max_gap=0)
    assert constrained == [(4, 5)]


def test_minimal_occurrences_invalid_arguments():
    with pytest.raises(ConfigurationError):
        minimal_occurrences(["a"], [])
    with pytest.raises(ConfigurationError):
        minimal_occurrences(["a"], ["a"], max_gap=-1)


def test_minepi_miner_supports():
    db = SequenceDatabase.from_sequences([["a", "b", "a", "b"], ["a", "b"]])
    result = MinepiMiner(min_support=2, max_episode_length=2).mine(db)
    assert result.support_of(("a", "b")) == 3
    assert result.support_of(("a",)) == 3


def test_episode_rules_confidence():
    db = SequenceDatabase.from_sequences([["a", "b", "c", "a", "b", "c"]])
    episodes = mine_episodes(db, window_width=3, min_support=1)
    rules = derive_episode_rules(episodes, min_confidence=0.1)
    assert len(rules) > 0
    for rule in rules:
        premise_support = episodes.support_of(rule.premise)
        assert premise_support is not None
        assert rule.confidence == pytest.approx(rule.support / premise_support)
        assert rule.episode == rule.premise + rule.consequent


def test_episode_rules_threshold_validation():
    db = SequenceDatabase.from_sequences([["a", "b"]])
    episodes = mine_episodes(db, window_width=2, min_support=1)
    with pytest.raises(ConfigurationError):
        derive_episode_rules(episodes, min_confidence=0)
