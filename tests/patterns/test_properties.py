"""Property-based tests for iterative pattern mining (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.instances import find_instances, find_instances_in_sequence
from repro.core.pattern import is_subsequence
from repro.core.positions import PositionIndex
from repro.core.sequence import SequenceDatabase
from repro.patterns.closed_miner import mine_closed_patterns
from repro.patterns.full_miner import mine_frequent_patterns
from tests.oracles.projection import forward_extensions

# Small alphabets make repetitions (the interesting case) likely.
sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    min_size=1,
    max_size=4,
)
pattern_strategy = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_instances_are_disjoint_in_alphabet_events(sequences, pattern):
    """Inside an instance the alphabet events are exactly the pattern, in order."""
    alphabet = set(pattern)
    for sequence in sequences:
        for start, end in find_instances_in_sequence(sequence, pattern):
            inside = [event for event in sequence[start : end + 1] if event in alphabet]
            assert inside == list(pattern)


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_instances_uniquely_determined_by_start_and_end(sequences, pattern):
    for sequence in sequences:
        spans = find_instances_in_sequence(sequence, pattern)
        starts = [start for start, _ in spans]
        ends = [end for _, end in spans]
        assert len(starts) == len(set(starts))
        assert len(ends) == len(set(ends))


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=50, deadline=None)
def test_prefix_support_is_antimonotone(sequences, pattern):
    """Theorem 1: truncating a pattern can only increase its support."""
    full_support = len(find_instances(sequences, pattern))
    for cut in range(1, len(pattern)):
        prefix_support = len(find_instances(sequences, pattern[:cut]))
        suffix_support = len(find_instances(sequences, pattern[cut:]))
        assert prefix_support >= full_support
        assert suffix_support >= full_support


@given(sequences=sequences_strategy, pattern=pattern_strategy, event=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_incremental_forward_extension_matches_oracle(sequences, pattern, event):
    encoded = [tuple(sequence) for sequence in sequences]
    index = PositionIndex(encoded)
    base = find_instances(encoded, pattern)
    extensions = forward_extensions(encoded, index, tuple(pattern), base)
    assert sorted(extensions.get(event, [])) == sorted(find_instances(encoded, tuple(pattern) + (event,)))


@given(sequences=sequences_strategy, min_support=st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_full_miner_supports_match_oracle(sequences, min_support):
    db = SequenceDatabase.from_sequences(sequences)
    result = mine_frequent_patterns(db, min_support=min_support)
    for pattern in result:
        encoded_pattern = db.vocabulary.encode(pattern.events)
        assert len(find_instances(db.encoded, encoded_pattern)) == pattern.support


@given(sequences=sequences_strategy, min_support=st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_closed_set_summarises_full_set(sequences, min_support):
    """Closed ⊆ full, supports agree, and every frequent pattern has a closed cover."""
    db = SequenceDatabase.from_sequences(sequences)
    full = mine_frequent_patterns(db, min_support=min_support)
    closed = mine_closed_patterns(db, min_support=min_support)
    full_supports = {pattern.events: pattern.support for pattern in full}
    for pattern in closed:
        assert full_supports.get(pattern.events) == pattern.support
    for pattern in full:
        assert any(
            is_subsequence(pattern.events, closed_pattern.events)
            and closed_pattern.support >= pattern.support
            for closed_pattern in closed
        )
