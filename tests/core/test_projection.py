"""Tests for the reference incremental (projected-database) instance computation.

The tuple-based projection in :mod:`tests.oracles.projection` is what the
columnar block path is held to; these tests pin it against the exact QRE
oracle of :mod:`repro.core.instances`.
"""

import random

from repro.core.instances import PatternInstance, find_instances
from repro.core.positions import PositionIndex
from tests.oracles.projection import (
    backward_extension_events,
    backward_extension_instance,
    forward_extensions,
    singleton_instances,
)


def _encode(sequences):
    return [tuple(sequence) for sequence in sequences]


def test_singleton_instances():
    db = _encode([[0, 1, 0], [1]])
    singles = singleton_instances(db)
    assert singles[0] == [PatternInstance(0, 0, 0), PatternInstance(0, 2, 2)]
    assert singles[1] == [PatternInstance(0, 1, 1), PatternInstance(1, 0, 0)]


def test_forward_extensions_match_oracle_on_simple_case():
    db = _encode([[0, 2, 1, 0, 1]])
    index = PositionIndex(db)
    base_instances = find_instances(db, (0,))
    extensions = forward_extensions(db, index, (0,), base_instances)
    assert extensions[1] == find_instances(db, (0, 1))
    assert extensions[2] == find_instances(db, (0, 2))


def test_forward_extension_respects_gap_exclusion():
    # Pattern (0, 1): extending with 2 requires no 2 inside the instance gaps.
    db = _encode([[0, 2, 1, 2], [0, 1, 2]])
    index = PositionIndex(db)
    base = find_instances(db, (0, 1))
    extensions = forward_extensions(db, index, (0, 1), base)
    # In sequence 0 the gap contains a 2, so only sequence 1 extends.
    assert extensions[2] == [PatternInstance(1, 0, 2)]
    assert extensions[2] == find_instances(db, (0, 1, 2))


def test_forward_extension_with_repeated_alphabet_event():
    db = _encode([[0, 1, 0, 1]])
    index = PositionIndex(db)
    base = find_instances(db, (0, 1))
    extensions = forward_extensions(db, index, (0, 1), base)
    assert extensions[0] == find_instances(db, (0, 1, 0))


def test_forward_extensions_against_oracle_randomised():
    rng = random.Random(42)
    for _ in range(30):
        db = _encode(
            [
                [rng.randrange(4) for _ in range(rng.randint(1, 15))]
                for _ in range(rng.randint(1, 4))
            ]
        )
        index = PositionIndex(db)
        pattern = tuple(rng.randrange(4) for _ in range(rng.randint(1, 3)))
        base = find_instances(db, pattern)
        extensions = forward_extensions(db, index, pattern, base)
        seen_events = {event for sequence in db for event in sequence}
        for event in seen_events:
            expected = find_instances(db, pattern + (event,))
            assert sorted(extensions.get(event, [])) == sorted(expected)


def test_backward_extension_instance():
    db = _encode([[2, 9, 0, 1]])
    index = PositionIndex(db)
    instance = PatternInstance(0, 2, 3)
    extended = backward_extension_instance(index, (0, 1), instance, 2)
    assert extended == PatternInstance(0, 0, 3)
    assert backward_extension_instance(index, (0, 1), instance, 7) is None


def test_backward_extension_instance_with_alphabet_event():
    # ``1`` is in the pattern alphabet and its last occurrence before the
    # instance start coincides with the last alphabet occurrence; that
    # position is a valid backward extension (the pattern repeats it).
    db = _encode([[0, 1, 0, 1]])
    index = PositionIndex(db)
    instance = PatternInstance(0, 2, 3)  # instance of (0, 1) starting at 2
    extended = backward_extension_instance(index, (0, 1), instance, 1)
    assert extended == PatternInstance(0, 1, 3)
    # The oracle agrees: <1, 0, 1> has exactly that instance.
    assert find_instances(db, (1, 0, 1)) == [PatternInstance(0, 1, 3)]


def test_backward_extension_instance_blocked_by_later_alphabet_event():
    # The last occurrence of ``2`` before the start is separated from the
    # instance by a later alphabet event, so no backward extension exists.
    db = _encode([[2, 0, 1, 0, 1]])
    index = PositionIndex(db)
    instance = PatternInstance(0, 3, 4)  # second instance of (0, 1)
    assert backward_extension_instance(index, (0, 1), instance, 2) is None


def test_backward_extension_events_full_coverage():
    # Event 9 immediately precedes every instance of (0, 1).
    db = _encode([[9, 0, 1], [3, 9, 0, 5, 1]])
    index = PositionIndex(db)
    base = find_instances(db, (0, 1))
    assert backward_extension_events(db, index, (0, 1), base) == {9}


def test_backward_extension_events_empty_when_not_shared():
    db = _encode([[9, 0, 1], [8, 0, 1]])
    index = PositionIndex(db)
    base = find_instances(db, (0, 1))
    assert backward_extension_events(db, index, (0, 1), base) == set()


def test_backward_extension_events_respect_gap_exclusion():
    # 9 precedes both instances but also occurs inside the gap of the second,
    # so <9, 0, 1> cannot absorb every instance.
    db = _encode([[9, 0, 1], [9, 0, 9, 1]])
    index = PositionIndex(db)
    base = find_instances(db, (0, 1))
    assert 9 not in backward_extension_events(db, index, (0, 1), base)


def test_backward_extension_events_against_oracle_randomised():
    rng = random.Random(7)
    for _ in range(30):
        db = _encode(
            [
                [rng.randrange(4) for _ in range(rng.randint(1, 12))]
                for _ in range(rng.randint(1, 3))
            ]
        )
        index = PositionIndex(db)
        pattern = tuple(rng.randrange(4) for _ in range(rng.randint(1, 2)))
        base = find_instances(db, pattern)
        if not base:
            continue
        events = backward_extension_events(db, index, pattern, base)
        for event in events:
            extended = find_instances(db, (event,) + pattern)
            # Every base instance must be covered by a backward-extended instance.
            assert len(extended) >= len(base)
            ends_extended = {(i.sequence_index, i.end) for i in extended}
            assert all((i.sequence_index, i.end) in ends_extended for i in base)
