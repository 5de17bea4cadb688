"""Property tests: the columnar block pipelines match the tuple-based oracle.

The block path (``InstanceBlock`` + ``AlphabetIndex`` + the ``*_block``
projection/closure functions) is the implementation the miners run; the
oracle in :mod:`repro.core.instances` and the list-based reference
functions in :mod:`tests.oracles` define what it must compute.
Randomised traces (hypothesis) assert agreement on instances, support,
forward/backward extensions and all three closure verdicts, and that the
serial and process-pool mining pipelines stay bit-identical on top of
blocks.
"""

import pickle
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.blocks import InstanceBlock, PositionBlock
from repro.core.instances import PatternInstance, find_instances
from repro.core.positions import PositionIndex
from repro.core.projection import (
    AlphabetIndex,
    backward_extension_events_block,
    forward_extensions_block,
    project_extension_block,
    singleton_blocks,
)
from repro.core.sequence import SequenceDatabase
from repro.core.view import FrequentEventView
from repro.engine import ProcessPoolBackend, SerialBackend
from repro.patterns.closure import infix_closure_violation_block, is_closed_block
from repro.patterns.closed_miner import mine_closed_patterns
from repro.rules.premise_miner import initial_premise_projections
from tests.oracles.closure import infix_closure_violation, is_closed
from tests.oracles.projection import (
    backward_extension_events,
    forward_extensions,
    singleton_instances,
)

# Small alphabets make repetitions (the interesting case) likely.
sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=14),
    min_size=1,
    max_size=4,
)
pattern_strategy = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)


def _encode(sequences):
    return [tuple(sequence) for sequence in sequences]


# --------------------------------------------------------------------- #
# Block structure round-trips
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_block_roundtrips_oracle_instances(sequences, pattern):
    encoded = _encode(sequences)
    oracle = find_instances(encoded, tuple(pattern))
    block = InstanceBlock.from_instances(oracle)
    assert len(block) == len(oracle)
    assert block.to_instances() == oracle
    assert block.to_tuple() == tuple(oracle)
    assert list(block) == oracle


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=30, deadline=None)
def test_block_pickles_to_equal_block(sequences, pattern):
    encoded = _encode(sequences)
    block = InstanceBlock.from_instances(find_instances(encoded, tuple(pattern)))
    clone = pickle.loads(pickle.dumps(block))
    assert clone == block
    assert clone.to_instances() == block.to_instances()
    assert clone.nbytes() == block.nbytes()


@given(sequences=sequences_strategy)
@settings(max_examples=40, deadline=None)
def test_singleton_blocks_match_singleton_instances(sequences):
    encoded = _encode(sequences)
    blocks = singleton_blocks(encoded)
    lists = singleton_instances(encoded)
    assert set(blocks) == set(lists)
    for event, block in blocks.items():
        assert block.to_instances() == lists[event]


# --------------------------------------------------------------------- #
# Projection: forward and backward extensions
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_forward_extensions_block_matches_reference_and_oracle(sequences, pattern):
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    base = find_instances(encoded, pattern)
    node = AlphabetIndex(index, pattern)
    block_extensions = forward_extensions_block(
        encoded, index, node, InstanceBlock.from_instances(base)
    )
    reference = forward_extensions(encoded, index, pattern, base)
    assert set(block_extensions) == set(reference)
    for event, extension_block in block_extensions.items():
        # Bit-identical to the reference path, including row order...
        assert extension_block.to_instances() == reference[event]
        # ...and semantically exactly the oracle's instance set.
        assert sorted(extension_block) == sorted(find_instances(encoded, pattern + (event,)))


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_project_extension_block_matches_full_projection(sequences, pattern):
    """The targeted single-event projection agrees with the full one, row for row."""
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    base = InstanceBlock.from_instances(find_instances(encoded, pattern))
    node = AlphabetIndex(index, pattern)
    full = forward_extensions_block(encoded, index, node, base)
    for event in range(5):
        targeted = project_extension_block(encoded, index, node, base, event)
        if event in full:
            assert targeted == full[event]
        else:
            assert len(targeted) == 0


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_project_extension_block_chain_matches_oracle_instances(sequences, pattern):
    """A chain of single-event projections from the singleton block (the
    work-unit replay path) yields exactly the oracle's instances."""
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    _, block = _replayed_block(encoded, index, singleton_blocks(encoded), pattern)
    assert block.to_instances() == find_instances(encoded, pattern)


def _replayed_block(encoded, index, roots, pattern):
    """The node and block of ``pattern`` the way the miners replay a path:
    the first event's root block, then one projection per step."""
    node = AlphabetIndex(index, pattern[:1])
    block = roots.get(pattern[0], InstanceBlock.from_instances([]))
    for event in pattern[1:]:
        block = project_extension_block(encoded, index, node, block, event)
        node = node.extend(event)
    return node, block


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_wire_block_reconstructs_ends_exactly(sequences, pattern):
    """Dropping the ends column on the wire loses nothing: the pattern walk
    at the coordinator rebuilds the identical block (pickled or not)."""
    encoded = _encode(sequences)
    pattern = tuple(pattern)
    block = InstanceBlock.from_instances(find_instances(encoded, pattern))
    wire = block.to_wire()
    assert wire.nbytes() < block.nbytes() or len(block) == 0
    assert wire.to_block(encoded, pattern) == block
    shipped = pickle.loads(pickle.dumps(wire))
    assert shipped.to_tuple(encoded, pattern) == block.to_tuple()
    assert len(pickle.dumps(wire)) < len(pickle.dumps(block))


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_backward_extension_events_block_matches_reference(sequences, pattern):
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    base = find_instances(encoded, pattern)
    node = AlphabetIndex(index, pattern)
    block_events = backward_extension_events_block(
        encoded, index, node, InstanceBlock.from_instances(base)
    )
    assert block_events == backward_extension_events(encoded, index, pattern, base)


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_alphabet_index_matches_per_event_scans(sequences, pattern):
    """The merged boundary cache lists exactly the alphabet's occurrences,
    whether built for the whole pattern or derived event by event with
    ``extend`` (the miners' path)."""
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    alphabet = frozenset(pattern)
    direct = AlphabetIndex(index, pattern)
    derived = AlphabetIndex(index, pattern[:1])
    for event in pattern[1:]:
        derived = derived.extend(event)
    for sid, sequence in enumerate(encoded):
        expected = [position for position, event in enumerate(sequence) if event in alphabet]
        assert direct.merged(sid) == expected
        assert derived.merged(sid) == expected


# --------------------------------------------------------------------- #
# Closure verdicts
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy, pattern=pattern_strategy, check_infix=st.booleans())
@settings(max_examples=60, deadline=None)
def test_closure_verdicts_match_reference(sequences, pattern, check_infix):
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    base = find_instances(encoded, pattern)
    if not base:
        return
    node = AlphabetIndex(index, pattern)
    block = InstanceBlock.from_instances(base)
    extensions = forward_extensions(encoded, index, pattern, base)
    extension_blocks = forward_extensions_block(encoded, index, node, block)
    assert is_closed_block(
        encoded, index, node, block, extension_blocks, check_infix=check_infix
    ) == is_closed(encoded, index, pattern, base, extensions, check_infix=check_infix)


@given(sequences=sequences_strategy, pattern=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_infix_violations_match_reference(sequences, pattern):
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    base = find_instances(encoded, pattern)
    if not base:
        return
    node = AlphabetIndex(index, pattern)
    block = InstanceBlock.from_instances(base)
    assert infix_closure_violation_block(encoded, index, node, block) == infix_closure_violation(
        encoded, index, pattern, base
    )


@st.composite
def copied_databases(draw):
    """Sequences with exact copies and up to three stray events (7..9),
    which the frequent-event view drops when they fall below the threshold."""
    sequences = [list(sequence) for sequence in draw(sequences_strategy)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        sequences.append(list(draw(st.sampled_from(sequences))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        sequence = draw(st.sampled_from(sequences))
        at = draw(st.integers(min_value=0, max_value=len(sequence)))
        sequence.insert(at, draw(st.integers(min_value=7, max_value=9)))
    return _encode(sequences)


@given(
    encoded=copied_databases(),
    cap=st.sampled_from([3, 4, 5]),
    data=st.data(),
    min_support=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_infix_violations_over_view_representatives_match_reference(
    encoded, cap, data, min_support
):
    """The span-local infix check over the frequent-event view's
    representative rows gives the oracle's verdict over every sequence of
    the view, and, for a frequent pattern, over the source database too."""
    counts = Counter(event for sequence in encoded for event in sequence)
    view = FrequentEventView(encoded, counts, min_support)
    # A subsequence of some view sequence, so most draws have instances.
    hosts = [sequence for sequence in view.sequences if len(sequence) > 1]
    if not hosts:
        return
    host = data.draw(st.sampled_from(hosts))
    picked = data.draw(
        st.lists(st.sampled_from(range(len(host))), min_size=2, max_size=cap, unique=True)
    )
    pattern = tuple(host[position] for position in sorted(picked))
    index = PositionIndex(view.sequences)
    roots = singleton_blocks(view.sequences, view.representatives)
    node, block = _replayed_block(view.sequences, index, roots, pattern)
    if not block:
        return
    verdict = infix_closure_violation_block(view.sequences, index, node, block)
    instances = find_instances(view.sequences, pattern)
    assert view.weighted_support(block) == len(instances)
    assert verdict == infix_closure_violation(view.sequences, index, pattern, instances)
    if len(instances) >= min_support:
        source_instances = find_instances(encoded, pattern)
        assert verdict == infix_closure_violation(
            encoded, PositionIndex(encoded), pattern, source_instances
        )


def _infix_verdict(sequences, pattern):
    encoded = [tuple(sequence) for sequence in sequences]
    index = PositionIndex(encoded)
    block = InstanceBlock.from_instances(find_instances(encoded, pattern))
    verdict = infix_closure_violation_block(encoded, index, AlphabetIndex(index, pattern), block)
    assert verdict == infix_closure_violation(encoded, index, pattern, list(block))
    return verdict


def test_infix_check_needs_the_same_gap_in_every_instance():
    # "x" sits inside every span of (a, b, c), but in gap 1 of the first
    # instance and gap 2 of the second: neither insertion keeps both.
    assert _infix_verdict(["axbc", "abxc"], tuple("abc")) is None
    assert _infix_verdict(["axbc", "caxbc"], tuple("abc")) == ("x", 1)


def test_infix_check_needs_exactly_one_occurrence_in_every_instance():
    # The second span holds "x" twice, so (a, x, b) loses that instance;
    # a first instance holding it twice is dropped by the pre-filter.
    assert _infix_verdict(["axb", "axxb"], tuple("ab")) is None
    assert _infix_verdict(["axxb", "axb"], tuple("ab")) is None
    assert _infix_verdict(["axb", "baxb"], tuple("ab")) == ("x", 1)


# --------------------------------------------------------------------- #
# Rule-side projections
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy)
@settings(max_examples=40, deadline=None)
def test_initial_premise_projections_are_columnar_earliest_occurrences(sequences):
    encoded = _encode(sequences)
    projections = initial_premise_projections(encoded)
    for event, block in projections.items():
        assert isinstance(block, PositionBlock)
        rows = list(block)
        expected = [
            (sid, sequence.index(event))
            for sid, sequence in enumerate(encoded)
            if event in sequence
        ]
        assert rows == expected


# --------------------------------------------------------------------- #
# End-to-end: block pipeline across backends, instances vs oracle
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy, split_depth=st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_mined_instances_match_oracle_across_serial_shard_paths(sequences, split_depth):
    """Instances stay exact when the serial run splits into eager units."""
    db = SequenceDatabase.from_sequences([[str(event) for event in s] for s in sequences])
    serial = mine_closed_patterns(db, min_support=2, collect_instances=True)
    split = SerialBackend(eager_split=True, split_depth=split_depth)
    sharded = mine_closed_patterns(db, min_support=2, collect_instances=True, backend=split)
    assert serial.patterns == sharded.patterns
    for mined in serial.patterns:
        encoded_pattern = db.vocabulary.encode(mined.events)
        oracle = tuple(find_instances(db.encoded, encoded_pattern))
        assert mined.instances == oracle
        assert mined.support == len(oracle)


@given(sequences=sequences_strategy)
@settings(max_examples=4, deadline=None)
def test_mined_instances_survive_the_process_pool(sequences):
    db = SequenceDatabase.from_sequences([[str(event) for event in s] for s in sequences])
    serial = mine_closed_patterns(db, min_support=2, collect_instances=True)
    pooled = mine_closed_patterns(
        db, min_support=2, collect_instances=True, backend=ProcessPoolBackend(workers=2)
    )
    assert serial.patterns == pooled.patterns
    for left, right in zip(serial.patterns, pooled.patterns):
        assert left.instances == right.instances
        assert all(isinstance(instance, PatternInstance) for instance in left.instances)


def test_shipped_bytes_counter_tracks_collected_instances():
    db = SequenceDatabase.from_sequences(
        [["a", "b", "c", "a", "b", "c"], ["a", "x", "b", "c"], ["b", "a", "c", "b"]]
    )
    with_instances = mine_closed_patterns(db, min_support=2, collect_instances=True)
    without = mine_closed_patterns(db, min_support=2, collect_instances=False)
    assert with_instances.stats.shipped_bytes > 0
    assert without.stats.shipped_bytes == 0
    # The allocation counter sees the same search either way.
    assert (
        with_instances.stats.instances_materialized
        == without.stats.instances_materialized
        > 0
    )
