"""The pattern search mines each distinct view sequence once.

Equal sequences of the frequent-event view form a class, and the search
walks only the class representative, weighting its rows by the class size
(:class:`~repro.core.view.FrequentEventView`).  None of that may show in
the output.  The metamorphic property below copies every sequence k times
into shuffled positions (some copies with their own rare events) and
mines at k times the threshold: the patterns stay, every support grows k
times, and every instance appears once in each copy, at that copy's own
source positions.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.instances import PatternInstance
from repro.core.sequence import SequenceDatabase
from repro.core.view import FrequentEventView
from repro.engine import ProcessPoolBackend
from repro.ingest import IncrementalMiner, TraceStore
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.patterns.full_miner import FullIterativePatternMiner

base_strategy = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=8), min_size=1, max_size=4
)


def _rows(result):
    return [(p.events, p.support, p.instances) for p in result.patterns]


def _copied(draw, sequences, copies, rare_budget, boundaries_only):
    """Each sequence ``copies`` times at shuffled indexes, rare events added.

    Returns the grown database, the index of every copy of each source
    sequence, and per grown sequence the new position of each original
    position.  Every rare label occurs fewer than ``rare_budget`` times.
    """
    slots = [(source, copy) for source in range(len(sequences)) for copy in range(copies)]
    order = draw(st.permutations(slots))
    grown = [list(sequences[source]) for source, _ in order]
    where = {}
    for index, (source, _) in enumerate(order):
        where.setdefault(source, []).append(index)
    for label in range(draw(st.integers(min_value=0, max_value=3))):
        for _ in range(draw(st.integers(min_value=1, max_value=rare_budget - 1))):
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
    return grown, where, shifts


def _expected(rows, copies, where, shifts):
    """The base rows as the copied database must report them."""
    expected = []
    for events, support, instances in rows:
        copied = sorted(
            PatternInstance(
                copy, shifts[copy][instance.start], shifts[copy][instance.end]
            )
            for instance in instances
            for copy in where[instance.sequence_index]
        )
        expected.append((events, support * copies, tuple(copied)))
    return expected


@given(data=st.data(), sequences=base_strategy)
@settings(max_examples=80, deadline=None)
def test_copies_multiply_supports_and_repeat_instances(data, sequences):
    """With the inexact absorption heuristic on, a rare event right after
    an instance blocks it, which can legitimately change the output; there
    the rare events go to sequence starts and ends only."""
    draw = data.draw
    min_support = draw(st.integers(min_value=2, max_value=3))
    copies = draw(st.integers(min_value=1, max_value=3))
    absorb = draw(st.booleans())
    collect = draw(st.booleans())
    cap = draw(st.sampled_from([None, 2, 4]))
    miner_class = draw(
        st.sampled_from([ClosedIterativePatternMiner, FullIterativePatternMiner])
    )

    def mine(database, min_sup):
        config = IterativeMiningConfig(
            min_support=min_sup,
            max_pattern_length=cap,
            collect_instances=collect,
            adjacent_absorption_pruning=absorb,
        )
        return miner_class(config).mine(SequenceDatabase.from_sequences(database))

    grown, where, shifts = _copied(
        draw, sequences, copies, min_support * copies, absorb
    )
    base = mine(sequences, min_support)
    copied = mine(grown, min_support * copies)
    expected = _expected(_rows(base), copies, where, shifts)
    if not collect:
        expected = [(events, support, ()) for events, support, _ in expected]
    # Shuffling renumbers the events, and results come in event-id order.
    assert sorted(_rows(copied)) == sorted(expected)


@given(data=st.data(), sequences=base_strategy)
@settings(max_examples=25, deadline=None)
def test_eager_splits_match_serial_on_copies(data, sequences):
    """Split units and offloaded closure checks replay over representatives."""
    draw = data.draw
    grown, _, _ = _copied(draw, sequences, draw(st.integers(2, 3)), 4, False)
    config = IterativeMiningConfig(
        min_support=4,
        max_pattern_length=draw(st.sampled_from([None, 3])),
        collect_instances=True,
    )
    miner = draw(
        st.sampled_from([ClosedIterativePatternMiner, FullIterativePatternMiner])
    )(config)
    database = SequenceDatabase.from_sequences(grown)
    serial = miner.mine(database)
    eager = miner.mine(
        database,
        backend=ProcessPoolBackend(workers=1, eager_split=True, split_depth=4),
    )
    assert _rows(eager) == _rows(serial)


def test_worker_processes_match_serial_on_copies():
    sequences = [list("abcabdab"), list("acbdab"), list("abcabdab"), list("bbab")]
    database = SequenceDatabase.from_sequences(sequences * 3)
    miner = ClosedIterativePatternMiner(
        IterativeMiningConfig(min_support=4, collect_instances=True)
    )
    serial = miner.mine(database)
    pooled = miner.mine(
        database, backend=ProcessPoolBackend(workers=2, eager_split=True, split_depth=4)
    )
    assert _rows(pooled) == _rows(serial)
    assert any(p.support >= 6 for p in serial.patterns)  # non-vacuous


def _absorbing_mine(sequences):
    config = IterativeMiningConfig(min_support=4, adjacent_absorption_pruning=True)
    return ClosedIterativePatternMiner(config).mine(
        SequenceDatabase.from_sequences([list(sequence) for sequence in sequences])
    )


def test_absorption_needs_adjacency_in_every_class_member():
    """``<a>`` is always followed by ``b`` in ``ababbab``, so the heuristic
    explores only ``<a, b>`` and loses the closed ``<a, a>``.  Both
    sequences below have that view, and each dropped its own rare event.
    Where one member has its rare event right after the first ``a``, that
    instance is not followed by ``b`` in the source, so the heuristic must
    not fire although the representative puts ``b`` right after it."""
    view = FrequentEventView(
        [tuple("arbabbab"), tuple("ababbabq")],
        {"a": 6, "b": 8, "r": 1, "q": 1},
        4,
    )
    assert view.members == {0: [0, 1]}
    assert view.multiplicity == [2, 0]

    plain = _absorbing_mine(["ababbab", "ababbab"])
    assert ("a", "a") not in {p.events for p in plain}

    apart = _absorbing_mine(["ababbabr", "qababbab"])
    assert [(p.events, p.support) for p in apart] == [
        (p.events, p.support) for p in plain
    ]

    # The blocking member is the representative, then the copy.
    for members in (["arbabbab", "ababbabq"], ["ababbabq", "arbabbab"]):
        blocked = _absorbing_mine(members)
        assert (("a", "a"), 4) in {(p.events, p.support) for p in blocked}
        exact = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=4)).mine(
            SequenceDatabase.from_sequences([list(member) for member in members])
        )
        assert _rows(blocked) == _rows(exact)


def test_infix_check_verifies_representatives_only():
    """``<a, b>`` is not closed only because ``c`` can be inserted into
    its gap.  The copy holds no rows of its own, so verifying it like a
    sequence without instances would reject the insertion."""
    result = ClosedIterativePatternMiner(
        IterativeMiningConfig(min_support=2, collect_instances=True)
    ).mine(SequenceDatabase.from_sequences([list("acb"), list("axcb")]))
    assert _rows(result) == [
        (
            ("a", "c", "b"),
            2,
            (PatternInstance(0, 0, 2), PatternInstance(1, 0, 3)),
        )
    ]


def test_view_classes_follow_appends():
    view = FrequentEventView([(0, 1), (0, 9, 1), (1, 0)], {0: 3, 1: 3, 9: 1}, 2)
    assert view.representatives == [0, 2]
    assert view.members == {0: [0, 1], 2: [2]}
    assert view.multiplicity == [2, 0, 1]
    assert view.has_copies

    # One exact copy of a class and one new class.
    assert view.extend([(1, 0, 8), (0, 0)]) == [(1, 0), (0, 0)]
    assert view.representatives == [0, 2, 4]
    assert view.members == {0: [0, 1], 2: [2, 3], 4: [4]}
    assert view.multiplicity == [2, 0, 2, 0, 1]


def _incremental_parity(batches, config):
    miner = ClosedIterativePatternMiner(config)
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp + "/store")
        incremental = IncrementalMiner(miner, store)
        for batch in batches:
            store.append_batch(batch)
            result, report = incremental.refresh()
            cold = miner.mine(store.snapshot())
            assert _rows(result) == _rows(cold)
        return report


def test_incremental_append_of_an_exact_copy_matches_cold():
    config = IterativeMiningConfig(min_support=2, collect_instances=True)
    first = [list("abcab"), list("abxab"), list("cc")]
    report = _incremental_parity([first, [list("abcab")], [list("abyab")]], config)
    assert not report.full_remine


def test_incremental_append_of_a_new_class_matches_cold():
    config = IterativeMiningConfig(min_support=2, collect_instances=True)
    first = [list("abcab"), list("abcab")]
    report = _incremental_parity([first, [list("cab"), list("bca")], [list("cab")]], config)
    assert not report.full_remine


@given(
    batches=st.lists(
        st.lists(st.sampled_from(["ab", "abc", "ba", "abxa", "cc"]), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=25, deadline=None)
def test_incremental_appends_of_repeated_traces_match_cold(batches):
    config = IterativeMiningConfig(min_support=2, collect_instances=True)
    _incremental_parity(
        [[list(trace) for trace in batch] for batch in batches], config
    )
