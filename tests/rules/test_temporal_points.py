"""Tests for temporal points and rule statistics (Definition 5.1)."""

import pytest

from repro.core.errors import PatternError
from repro.core.positions import PositionIndex
from tests.oracles.temporal_points import (
    TemporalPoint,
    count_occurrences_in_sequence,
    earliest_embedding_end,
    instance_support,
    is_followed_by,
    rule_statistics,
    sequence_support,
    temporal_points,
    temporal_points_in_sequence,
)


def test_earliest_embedding_end():
    assert earliest_embedding_end(["a", "b", "c"], ["a", "c"]) == 2
    assert earliest_embedding_end(["a", "b", "c"], ["b"]) == 1
    assert earliest_embedding_end(["a", "b"], []) == -1
    assert earliest_embedding_end(["a", "b"], ["c"]) is None
    assert earliest_embedding_end(["a", "b", "a"], ["a", "a"]) == 2


def test_temporal_points_single_event():
    assert temporal_points_in_sequence(["a", "b", "a"], ["a"]) == [0, 2]


def test_temporal_points_require_prefix_and_last_event():
    # Points of <a, b>: positions of 'b' with an 'a' strictly before.
    assert temporal_points_in_sequence(["b", "a", "b", "b"], ["a", "b"]) == [2, 3]
    assert temporal_points_in_sequence(["b", "b"], ["a", "b"]) == []


def test_temporal_points_empty_pattern_rejected():
    with pytest.raises(PatternError):
        temporal_points_in_sequence(["a"], [])


def test_temporal_points_across_database():
    db = [["a", "b"], ["b"], ["a", "x", "b", "b"]]
    points = temporal_points(db, ["a", "b"])
    assert points == [TemporalPoint(0, 1), TemporalPoint(2, 2), TemporalPoint(2, 3)]


def test_count_occurrences_matches_temporal_point_count():
    sequence = ["a", "b", "a", "b", "b"]
    positions = PositionIndex([sequence])[0]
    assert count_occurrences_in_sequence(positions, sequence, ["a", "b"]) == len(
        temporal_points_in_sequence(sequence, ["a", "b"])
    )
    assert count_occurrences_in_sequence(positions, sequence, ["z", "b"]) == 0


def test_instance_and_sequence_support():
    db = [["a", "b", "b"], ["a"], ["b", "a", "b"]]
    index = PositionIndex(db)
    assert instance_support(db, index, ["a", "b"]) == 3
    assert sequence_support(db, ["a", "b"]) == 2
    assert sequence_support(db, ["a"]) == 3


def test_is_followed_by():
    assert is_followed_by(["a", "b", "c"], 0, ["b", "c"])
    assert not is_followed_by(["a", "b", "c"], 1, ["b"])
    assert is_followed_by(["a", "b", "c"], 1, ["c"])
    assert not is_followed_by(["a"], 0, ["a"])


def test_rule_statistics_lock_unlock():
    db = [["lock", "use", "unlock"], ["lock", "unlock", "lock"]]
    index = PositionIndex(db)
    s_support, i_support, confidence = rule_statistics(db, index, ["lock"], ["unlock"])
    assert s_support == 2
    assert i_support == 2
    # Temporal points of <lock>: 3; the final lock is never followed by unlock.
    assert confidence == pytest.approx(2 / 3)


def test_rule_statistics_with_unmatched_premise():
    db = [["a", "b"]]
    index = PositionIndex(db)
    s_support, i_support, confidence = rule_statistics(db, index, ["z"], ["b"])
    assert s_support == 0
    assert i_support == 0
    assert confidence == 0.0


def test_rule_statistics_multi_event_consequent():
    db = [["init", "work", "cleanup", "shutdown"], ["init", "shutdown"]]
    index = PositionIndex(db)
    s_support, i_support, confidence = rule_statistics(
        db, index, ["init"], ["cleanup", "shutdown"]
    )
    assert s_support == 2
    assert i_support == 1
    assert confidence == pytest.approx(0.5)
