"""Tests for the per-event position indexes and occurrence links."""

from hypothesis import given, settings, strategies as st

from repro.core.positions import PositionIndex, SequencePositions

# Small alphabets make repeated events (the interesting case) likely.
sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), max_size=16), max_size=4
)


def _brute_force_links(sequence):
    """``(previous, following)`` by scanning each position's neighbourhood."""
    length = len(sequence)
    previous = []
    following = []
    for position, event in enumerate(sequence):
        earlier = [p for p in range(position) if sequence[p] == event]
        later = [p for p in range(position + 1, length) if sequence[p] == event]
        previous.append(earlier[-1] if earlier else -1)
        following.append(later[0] if later else length)
    return previous, following


def test_positions_of_and_count():
    positions = SequencePositions([0, 1, 0, 2, 0])
    assert positions.positions_of(0) == [0, 2, 4]
    assert positions.count(0) == 3
    assert positions.count(9) == 0
    assert positions.positions_of(9) == []
    assert positions.length == 5


def test_first_after_and_at_or_after():
    positions = SequencePositions([5, 6, 5, 7])
    assert positions.first_after(5, -1) == 0
    assert positions.first_after(5, 0) == 2
    assert positions.first_after(5, 2) is None
    assert positions.first_at_or_after(6, 1) == 1
    assert positions.first_at_or_after(6, 2) is None


def test_distinct_events():
    positions = SequencePositions([4, 4, 5])
    assert set(positions.distinct_events()) == {4, 5}


def test_position_index_supports():
    index = PositionIndex([[0, 1, 0], [1, 2], [2]])
    assert len(index) == 3
    assert index.sequence_support(0) == 1
    assert index.sequence_support(1) == 2
    assert index.sequence_support(2) == 2
    assert index.instance_support(0) == 2
    assert index.instance_support(2) == 2
    assert index.distinct_events() == (0, 1, 2)
    assert index[0].count(0) == 2


@given(first=sequences_strategy, appended=sequences_strategy)
@settings(max_examples=80, deadline=None)
def test_occurrence_links_match_brute_force_after_extend(first, appended):
    """The links equal a brute-force scan, for the sequences indexed at
    construction and for those added by the in-place ``extend`` the
    incremental miners use."""
    index = PositionIndex(first)
    for sequence_index, sequence in enumerate(first):
        assert (index[sequence_index].previous, index[sequence_index].following) == (
            _brute_force_links(sequence)
        )
    index.extend(appended)
    assert len(index) == len(first) + len(appended)
    for sequence_index, sequence in enumerate(first + appended):
        assert (index[sequence_index].previous, index[sequence_index].following) == (
            _brute_force_links(sequence)
        )


# Sequences with repeats: the successor table's entries differ from a plain
# "events after p" set exactly where an event recurs.
repeating_sequences = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), max_size=30), min_size=1, max_size=4
)


def _naive_successors(sequence, position, offset):
    """``{event: gid of its first occurrence after position}``, suffix order."""
    after = {}
    for later in range(position + 1, len(sequence)):
        after.setdefault(sequence[later], offset + later)
    return after


@given(first=repeating_sequences, appended=sequences_strategy, data=st.data())
@settings(max_examples=80, deadline=None)
def test_successor_table_matches_its_definition(first, appended, data):
    """Every entry asked for lists the events after its position in
    first-occurrence order, each with the gid of that occurrence; ``tail``
    equals a naive count; and a lookup builds the entries asked for and
    no others, before and after an ``extend``."""
    index = PositionIndex(first)
    table = index.successors

    def check(sequences):
        gids = [
            (sequence_index, position)
            for sequence_index, sequence in enumerate(sequences)
            for position in range(len(sequence))
        ]
        assert len(table.tail) == len(gids)
        for gid, (sequence_index, position) in enumerate(gids):
            sequence = sequences[sequence_index]
            assert table.offsets[sequence_index] + position == gid
            assert table.tail[gid] == sequence[position:].count(sequence[position])
        asked = data.draw(st.sets(st.integers(min_value=0, max_value=len(gids) - 1))) if gids else set()
        built_before = set(table)
        for gid in asked:
            sequence_index, position = gids[gid]
            expected = _naive_successors(
                sequences[sequence_index], position, table.offsets[sequence_index]
            )
            assert list(table[gid].items()) == list(expected.items())
        assert set(table) == built_before | asked

    check(first)
    index.extend(appended)
    check(first + appended)
