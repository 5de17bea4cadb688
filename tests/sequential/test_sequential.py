"""Tests for the sequential pattern mining baselines (PrefixSpan, closed, two-event rules)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.pattern import is_subsequence
from repro.core.sequence import SequenceDatabase
from tests.baselines.sequential import (
    PrefixSpan,
    TwoEventRuleMiner,
    closed_filter,
    mine_closed_sequential_patterns,
    mine_sequential_patterns,
    mine_two_event_rules,
)


@pytest.fixture
def simple_db():
    return SequenceDatabase.from_sequences(
        [
            ["a", "b", "c"],
            ["a", "c", "b"],
            ["a", "b", "c", "b"],
        ]
    )


def test_prefixspan_sequence_supports(simple_db):
    result = mine_sequential_patterns(simple_db, min_support=2)
    assert result.support_of(("a",)) == 3
    assert result.support_of(("a", "b")) == 3
    assert result.support_of(("a", "c")) == 3
    assert result.support_of(("a", "b", "c")) == 2
    assert result.support_of(("c", "b")) == 2
    assert result.support_of(("b", "a")) is None  # never occurs in order


def test_prefixspan_counts_sequences_not_repetitions():
    db = SequenceDatabase.from_sequences([["a", "b", "a", "b"]])
    result = mine_sequential_patterns(db, min_support=1)
    # The pattern repeats twice within the sequence but sequence support is 1.
    assert result.support_of(("a", "b")) == 1


def test_prefixspan_results_are_genuine_subsequences(simple_db):
    result = mine_sequential_patterns(simple_db, min_support=2)
    sequences = list(simple_db)
    for pattern in result:
        supporting = sum(1 for sequence in sequences if is_subsequence(pattern.events, sequence))
        assert supporting == pattern.support


def test_prefixspan_max_length(simple_db):
    result = mine_sequential_patterns(simple_db, min_support=2, max_length=2)
    assert all(len(pattern) <= 2 for pattern in result)


def test_prefixspan_invalid_configuration():
    with pytest.raises(ConfigurationError):
        PrefixSpan(min_support=0)
    with pytest.raises(ConfigurationError):
        PrefixSpan(min_support=2, max_length=0)


def test_closed_filter_keeps_maximal_same_support_patterns(simple_db):
    full = mine_sequential_patterns(simple_db, min_support=2)
    closed = closed_filter(full)
    closed_events = {pattern.events for pattern in closed}
    # <a> (support 3) is absorbed by <a, b> and <a, c> which also have support 3.
    assert ("a",) not in closed_events
    assert ("a", "b") in closed_events
    # Every full pattern has a closed super-pattern with the same support.
    for pattern in full:
        assert any(
            is_subsequence(pattern.events, closed_pattern.events)
            and closed_pattern.support == pattern.support
            for closed_pattern in closed
        )


def test_mine_closed_sequential_patterns_smaller_than_full(simple_db):
    full = mine_sequential_patterns(simple_db, min_support=2)
    closed = mine_closed_sequential_patterns(simple_db, min_support=2)
    assert 0 < len(closed) <= len(full)


def test_two_event_rules_lock_unlock():
    db = SequenceDatabase.from_sequences(
        [
            ["lock", "use", "unlock"],
            ["lock", "unlock", "lock", "unlock"],
            ["open", "close"],
        ]
    )
    result = mine_two_event_rules(db, min_s_support=2, min_confidence=0.9)
    signatures = {(rule.premise, rule.consequent) for rule in result}
    assert (("lock",), ("unlock",)) in signatures
    assert all(len(rule.premise) == 1 and len(rule.consequent) == 1 for rule in result)


def test_two_event_rules_confidence_threshold():
    db = SequenceDatabase.from_sequences([["a", "b"], ["a", "c"], ["a", "b"]])
    permissive = mine_two_event_rules(db, min_s_support=2, min_confidence=0.5)
    strict = mine_two_event_rules(db, min_s_support=2, min_confidence=0.9)
    assert len(strict) <= len(permissive)
    assert all(rule.confidence >= 0.9 for rule in strict)


def test_two_event_rule_statistics_match_recurrent_semantics():
    db = SequenceDatabase.from_sequences([["a", "b", "a"], ["a", "b"]])
    result = mine_two_event_rules(db, min_s_support=2, min_confidence=0.5)
    rule = next(r for r in result if r.premise == ("a",) and r.consequent == ("b",))
    assert rule.s_support == 2
    assert rule.i_support == 2
    assert rule.confidence == pytest.approx(2 / 3)


def test_two_event_miner_configuration_validation():
    with pytest.raises(ConfigurationError):
        TwoEventRuleMiner(min_s_support=0)
    with pytest.raises(ConfigurationError):
        TwoEventRuleMiner(min_confidence=0)
    with pytest.raises(ConfigurationError):
        TwoEventRuleMiner(min_i_support=0)


def test_two_event_miner_counts_candidates():
    db = SequenceDatabase.from_sequences([["a", "b", "c"]])
    miner = TwoEventRuleMiner(min_s_support=1, min_confidence=0.5)
    result = miner.mine(db)
    assert result.candidates_examined == 3  # (a,b), (a,c), (b,c)
