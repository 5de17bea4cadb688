"""Unit tests for the reference closedness checks (:mod:`tests.oracles.closure`)."""

from repro.core.instances import find_instances
from repro.core.positions import PositionIndex
from repro.patterns.closure import forward_closure_violation
from tests.oracles.closure import (
    backward_closure_violation,
    infix_closure_violation,
    is_closed,
)
from tests.oracles.projection import forward_extensions


def _setup(sequences, pattern):
    encoded = [tuple(sequence) for sequence in sequences]
    index = PositionIndex(encoded)
    instances = find_instances(encoded, pattern)
    extensions = forward_extensions(encoded, index, pattern, instances)
    return encoded, index, instances, extensions


def test_forward_violation_detected():
    encoded, index, instances, extensions = _setup([[0, 1], [0, 2, 1]], (0,))
    assert forward_closure_violation(extensions, len(instances)) == 1
    assert not is_closed(encoded, index, (0,), instances, extensions)


def test_forward_violation_absent_when_supports_differ():
    encoded, index, instances, extensions = _setup([[0, 1], [0, 2]], (0,))
    assert forward_closure_violation(extensions, len(instances)) is None


def test_backward_violation_detected():
    encoded, index, instances, extensions = _setup([[5, 1], [9, 5, 1]], (1,))
    assert backward_closure_violation(encoded, index, (1,), instances) == 5
    assert not is_closed(encoded, index, (1,), instances, extensions)


def test_backward_violation_absent_when_predecessors_differ():
    encoded, index, instances, extensions = _setup([[5, 1], [6, 1]], (1,))
    assert backward_closure_violation(encoded, index, (1,), instances) is None


def test_infix_violation_detected():
    encoded, index, instances, extensions = _setup([[0, 7, 1], [0, 7, 1, 3]], (0, 1))
    violation = infix_closure_violation(encoded, index, (0, 1), instances)
    assert violation == (7, 1)
    assert not is_closed(encoded, index, (0, 1), instances, extensions)


def test_infix_violation_requires_all_instances():
    encoded, index, instances, extensions = _setup([[0, 7, 1], [0, 8, 1]], (0, 1))
    assert infix_closure_violation(encoded, index, (0, 1), instances) is None
    assert is_closed(encoded, index, (0, 1), instances, extensions)


def test_infix_violation_rejects_repeated_gap_event():
    # 7 occurs twice inside the first instance's gap, so inserting a single 7
    # does not yield a corresponding same-support super-pattern.
    encoded, index, instances, extensions = _setup([[0, 7, 7, 1], [0, 7, 1]], (0, 1))
    assert infix_closure_violation(encoded, index, (0, 1), instances) is None


def test_infix_violation_requires_equal_supports():
    # The third sequence hosts an instance of <0, 1> that the insertion
    # <0, 7, 1> cannot match, so the supports differ and <0, 1> stays closed.
    encoded, index, instances, extensions = _setup(
        [[0, 7, 1], [0, 7, 1, 3], [0, 7, 0, 1]], (0, 1)
    )
    base_instances = find_instances(encoded, (0, 1))
    extension_instances = find_instances(encoded, (0, 7, 1))
    assert len(extension_instances) != len(base_instances)
    assert infix_closure_violation(encoded, index, (0, 1), instances) is None


def test_is_closed_with_infix_disabled():
    encoded, index, instances, extensions = _setup([[0, 7, 1], [0, 7, 1, 3]], (0, 1))
    assert is_closed(encoded, index, (0, 1), instances, extensions, check_infix=False)
