"""Property tests: the columnar block pipelines match the tuple-based oracle.

The block path (``InstanceBlock`` + ``AlphabetIndex`` + the ``*_block``
projection/closure functions) is the implementation the miners run; the
oracle in :mod:`repro.core.instances` and the list-based reference
functions in :mod:`repro.core.projection` define what it must compute.
Randomised traces (hypothesis) assert agreement on instances, support,
forward/backward extensions and all three closure verdicts, and that the
serial and process-pool mining pipelines stay bit-identical on top of
blocks.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.core.blocks import InstanceBlock, PositionBlock
from repro.core.instances import PatternInstance, find_instances
from repro.core.positions import PositionIndex
from repro.core.projection import (
    AlphabetIndex,
    backward_extension_events,
    backward_extension_events_block,
    forward_extensions,
    forward_extensions_block,
    project_extension_block,
    project_rows_in_sequence,
    singleton_block_of,
    singleton_blocks,
    singleton_instances,
)
from repro.core.sequence import SequenceDatabase
from repro.engine import ProcessPoolBackend, SerialBackend
from repro.patterns.closure import (
    infix_closure_violation,
    infix_closure_violation_block,
    is_closed,
    is_closed_block,
)
from repro.patterns.closed_miner import mine_closed_patterns
from repro.rules.premise_miner import initial_premise_projections

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
def test_project_rows_in_sequence_matches_block_projection_chain(sequences, pattern):
    """The per-sequence chained projector stays in lockstep with its block
    twin: chaining project_extension_block over the whole database and
    slicing one sequence's group must equal the sequence-local chain."""
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    nodes = [AlphabetIndex(index, pattern[:1])]
    for event in pattern[1:]:
        nodes.append(nodes[-1].extend(event))
    block = singleton_block_of(index, pattern[0])
    for step, event in enumerate(pattern[1:]):
        block = project_extension_block(encoded, index, nodes[step], block, event)
    by_sequence = {sid: [] for sid in range(len(encoded))}
    for instance in block:
        by_sequence[instance.sequence_index].append((instance.start, instance.end))
    for sid, sequence in enumerate(encoded):
        positions = index[sid]
        first = positions.positions_of(pattern[0])
        rows = project_rows_in_sequence(
            sequence,
            positions.table(),
            nodes,
            pattern,
            sid,
            [(position, position) for position in first],
        )
        assert rows == by_sequence[sid]


@given(sequences=sequences_strategy)
@settings(max_examples=40, deadline=None)
def test_singleton_block_of_matches_singleton_blocks(sequences):
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    singles = singleton_blocks(encoded)
    for event, block in singles.items():
        assert singleton_block_of(index, event) == block


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
    """The merged boundary cache answers exactly the per-event bisect queries."""
    encoded = _encode(sequences)
    index = PositionIndex(encoded)
    pattern = tuple(pattern)
    alphabet = frozenset(pattern)
    node = AlphabetIndex(index, pattern)
    for sid, sequence in enumerate(encoded):
        positions = index[sid]
        for probe in range(-1, len(sequence) + 1):
            first = min(
                (p for e in alphabet if (p := positions.first_after(e, probe)) is not None),
                default=None,
            )
            last = max(
                (p for e in alphabet if (p := positions.last_before(e, probe)) is not None),
                default=None,
            )
            assert node.first_after(sid, probe) == first
            assert node.last_before(sid, probe) == last


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
