"""Tests for the full (all-frequent) iterative pattern miner."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.instances import find_instances
from repro.core.sequence import SequenceDatabase
from repro.patterns.config import IterativeMiningConfig
from repro.patterns.full_miner import FullIterativePatternMiner, mine_frequent_patterns


def test_lock_unlock_example(lock_database):
    result = mine_frequent_patterns(lock_database, min_support=4)
    events = sorted(pattern.events for pattern in result)
    assert ("lock", "unlock") in events
    assert ("lock",) in events
    assert ("unlock",) in events
    assert result.support_of(("lock", "unlock")) == 5


def test_supports_match_the_oracle(abc_database):
    result = mine_frequent_patterns(abc_database, min_support=2)
    encoded = abc_database.encoded
    for pattern in result:
        oracle = len(find_instances(encoded, abc_database.vocabulary.encode(pattern.events)))
        assert oracle == pattern.support
        assert pattern.support >= result.min_support


def test_counts_repetitions_within_a_sequence():
    db = SequenceDatabase.from_sequences([["a", "b", "a", "b", "a", "b"]])
    result = mine_frequent_patterns(db, min_support=3)
    assert result.support_of(("a", "b")) == 3


def test_relative_min_support_uses_number_of_sequences():
    db = SequenceDatabase.from_sequences([["a", "b"]] * 10 + [["c"]] * 10)
    result = mine_frequent_patterns(db, min_support=0.5)
    assert result.min_support == 10
    assert result.contains(("a", "b"))
    assert result.contains(("c",))


def test_max_pattern_length_limits_search():
    db = SequenceDatabase.from_sequences([["a", "b", "c"]] * 3)
    result = mine_frequent_patterns(db, min_support=3, max_pattern_length=2)
    assert all(len(pattern) <= 2 for pattern in result)
    assert result.contains(("a", "b"))
    assert not result.contains(("a", "b", "c"))


def test_instances_collected_by_default_and_optional():
    db = SequenceDatabase.from_sequences([["a", "b"]] * 2)
    with_instances = FullIterativePatternMiner(IterativeMiningConfig(min_support=2)).mine(db)
    assert all(pattern.instances for pattern in with_instances)
    without = FullIterativePatternMiner(
        IterativeMiningConfig(min_support=2, collect_instances=False)
    ).mine(db)
    assert all(pattern.instances == () for pattern in without)


def test_every_prefix_of_a_frequent_pattern_is_frequent(abc_database):
    # Theorem 1 corollary: the result set is prefix-closed.
    result = mine_frequent_patterns(abc_database, min_support=2)
    mined = {pattern.events for pattern in result}
    for events in mined:
        for cut in range(1, len(events)):
            assert events[:cut] in mined


def test_infrequent_events_are_pruned(lock_database):
    result = mine_frequent_patterns(lock_database, min_support=2)
    assert not result.contains(("read",))
    assert result.stats.pruned_support > 0


def test_stats_are_populated(lock_database):
    result = mine_frequent_patterns(lock_database, min_support=2)
    assert result.stats.visited >= len(result)
    assert result.stats.emitted == len(result)
    assert result.stats.elapsed_seconds >= 0.0


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        IterativeMiningConfig(min_support=0)
    with pytest.raises(ConfigurationError):
        IterativeMiningConfig(min_support=2, max_pattern_length=0)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_non_finite_support_rejected(threshold):
    with pytest.raises(ConfigurationError, match="finite"):
        IterativeMiningConfig(min_support=threshold)


def test_empty_database_yields_no_patterns():
    result = mine_frequent_patterns(SequenceDatabase(), min_support=1)
    assert len(result) == 0
