"""Unit tests for the oracles' per-event position queries."""

from repro.core.positions import SequencePositions
from tests.oracles.projection import last_before, occurs_between


def test_last_before():
    positions = SequencePositions([5, 6, 5, 7])
    assert last_before(positions, 5, 2) == 0
    assert last_before(positions, 5, 3) == 2
    assert last_before(positions, 5, 0) is None
    assert last_before(positions, 9, 3) is None


def test_occurs_between_open_interval():
    positions = SequencePositions([1, 2, 3, 2, 1])
    assert occurs_between(positions, 2, 0, 2)  # position 1
    assert not occurs_between(positions, 2, 1, 3)  # (1, 3) holds only position 2, event 3
    assert occurs_between(positions, 3, 1, 3)
    assert not occurs_between(positions, 1, 0, 4)
    assert not occurs_between(positions, 2, 2, 3)  # empty open interval
