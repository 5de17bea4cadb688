"""The pattern search runs over the frequent-event view of the database.

Events below the support threshold are removed before the first
projection (:class:`~repro.core.view.FrequentEventView`).  Nothing about
the output may show it: patterns, supports and source-position instances
stay exactly what a search over the whole database finds.  The metamorphic
property below inserts fresh rare events into a database and checks the
mined result only moves by the inserted positions.
"""

from hypothesis import given, settings, strategies as st

import repro.patterns.miner_base as miner_base
from repro.core.blocks import InstanceBlock
from repro.core.instances import PatternInstance
from repro.core.sequence import SequenceDatabase
from repro.core.view import FrequentEventView
from repro.engine import ProcessPoolBackend
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.patterns.full_miner import FullIterativePatternMiner

base_strategy = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=9), min_size=1, max_size=5
)


def _rows(result):
    return [(p.events, p.support, p.instances) for p in result.patterns]


def _insert_rare_events(draw, sequences, min_support, boundaries_only):
    """Insert fresh events, each fewer than ``min_support`` times in all.

    Returns the grown sequences and, per sequence, the new position of
    every original position.
    """
    grown = [list(sequence) for sequence in sequences]
    fresh = draw(st.integers(min_value=1, max_value=3))
    for label in range(fresh):
        for _ in range(draw(st.integers(min_value=1, max_value=min_support - 1))):
            sid = draw(st.integers(min_value=0, max_value=len(grown) - 1))
            if boundaries_only:
                at = draw(st.sampled_from([0, len(grown[sid])]))
            else:
                at = draw(st.integers(min_value=0, max_value=len(grown[sid])))
            grown[sid].insert(at, f"rare{label}")
    shifts = [
        [position for position, event in enumerate(sequence) if not event.startswith("rare")]
        for sequence in grown
    ]
    return grown, shifts


def _shifted(rows, shifts):
    return [
        (
            events,
            support,
            tuple(
                PatternInstance(
                    instance.sequence_index,
                    shifts[instance.sequence_index][instance.start],
                    shifts[instance.sequence_index][instance.end],
                )
                for instance in instances
            ),
        )
        for events, support, instances in rows
    ]


@given(data=st.data(), sequences=base_strategy)
@settings(max_examples=60, deadline=None)
def test_rare_events_leave_the_mined_result_unchanged(data, sequences):
    """Inserting events below the threshold moves instances, nothing else.

    With the inexact absorption heuristic on, a rare event right after an
    instance blocks it (as any event that cannot absorb does), which can
    legitimately surface more closed patterns; there the fresh events go
    to sequence starts and ends, where no instance is followed by them.
    """
    draw = data.draw
    min_support = draw(st.integers(min_value=2, max_value=3))
    absorb = draw(st.booleans())
    config = IterativeMiningConfig(
        min_support=min_support,
        max_pattern_length=draw(st.sampled_from([None, 2, 4])),
        collect_instances=draw(st.booleans()),
        adjacent_absorption_pruning=absorb,
    )
    miner = draw(
        st.sampled_from([ClosedIterativePatternMiner, FullIterativePatternMiner])
    )(config)
    grown, shifts = _insert_rare_events(draw, sequences, min_support, absorb)

    base = miner.mine(SequenceDatabase.from_sequences(sequences))
    serial = miner.mine(SequenceDatabase.from_sequences(grown))
    eager = miner.mine(
        SequenceDatabase.from_sequences(grown),
        backend=ProcessPoolBackend(workers=1, eager_split=True, split_depth=4),
    )
    assert _rows(serial) == _shifted(_rows(base), shifts)
    assert _rows(eager) == _rows(serial)


def test_projection_never_sees_an_event_below_the_threshold(monkeypatch):
    database = SequenceDatabase.from_sequences(
        [
            ["lock", "use", "unlock", "lock", "unlock"],
            ["lock", "read", "unlock"],
            ["lock", "write", "flush", "unlock", "lock", "use", "unlock"],
        ]
    )
    counts = {}
    for sequence in database.encoded:
        for event in sequence:
            counts[event] = counts.get(event, 0) + 1
    real = miner_base.forward_extensions_block
    seen = []

    def checked(encoded, index, node, block):
        for sid in block.seq_ids:
            seen.extend(event for event in encoded[sid] if counts[event] < 2)
        return real(encoded, index, node, block)

    monkeypatch.setattr(miner_base, "forward_extensions_block", checked)
    result = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)).mine(database)
    assert ("lock", "use", "unlock") in {p.events for p in result}
    assert seen == []


def test_a_rare_event_after_an_instance_still_blocks_absorption():
    """``<a>`` is always followed by ``b``, so the heuristic explores only
    ``<a, b>`` and loses the closed ``<a, a>``.  A rare event between the
    first ``a`` and its ``b`` is what follows that instance in the source,
    and it cannot absorb, so the heuristic must not fire there, although
    the view puts ``b`` right after the ``a``."""
    config = IterativeMiningConfig(min_support=2, adjacent_absorption_pruning=True)
    plain = ClosedIterativePatternMiner(config).mine(
        SequenceDatabase.from_sequences([list("ababbab")])
    )
    assert ("a", "a") not in {p.events for p in plain}

    blocked = ClosedIterativePatternMiner(config).mine(
        SequenceDatabase.from_sequences([list("arbabbab")])
    )
    assert (("a", "a"), 2) in {(p.events, p.support) for p in blocked}
    exact = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)).mine(
        SequenceDatabase.from_sequences([list("arbabbab")])
    )
    assert _rows(blocked) == _rows(exact)


def test_view_compacts_only_sequences_that_hold_rare_events():
    view = FrequentEventView([(0, 9, 1, 9), (0, 1)], {0: 2, 1: 2, 9: 2}, 3)
    assert view.sequences == [(), ()]
    view = FrequentEventView([(0, 9, 1, 8), (0, 1)], {0: 2, 1: 2, 8: 1, 9: 1}, 2)
    assert view.sequences == [(0, 1), (0, 1)]
    assert list(view.origins[0]) == [0, 2]
    assert view.origins[1] is None
    assert not view.adjacent(0, 1)
    assert view.adjacent(1, 1)

    block = InstanceBlock.from_instances(
        [PatternInstance(0, 0, 1), PatternInstance(1, 0, 1)]
    )
    assert list(view.original_block(block)) == [
        PatternInstance(0, 0, 2),
        PatternInstance(1, 0, 1),
    ]


def test_view_extension_refuses_to_lift_a_dropped_event():
    view = FrequentEventView([(0, 9, 1)], {0: 1, 1: 1, 9: 1}, 2)
    assert view.sequences == [()]
    # 0 and 1 reach the threshold, 7 arrives below it: rebuild needed.
    assert view.extend([(0, 7, 1)]) is None

    view = FrequentEventView([(0, 9, 0)], {0: 2, 9: 1}, 2)
    assert view.extend([(0, 7)]) == [(0,)]
    assert view.sequences == [(0, 0), (0,)]
    assert list(view.origins[1]) == [0]
