"""Tests for premise generation (Step 1, Theorem 2)."""

from repro.core.pattern import is_subsequence
from tests.oracles.premises import PremiseMiner
from tests.oracles.temporal_points import earliest_embedding_end


def _encode(sequences):
    return [tuple(sequence) for sequence in sequences]


def test_single_events_and_their_sequence_supports():
    db = _encode([[0, 1], [1, 2], [1]])
    premises = {p.pattern: p.s_support for p in PremiseMiner(min_s_support=2).mine(db)}
    assert premises[(1,)] == 3
    assert (0,) not in premises
    assert (2,) not in premises


def test_multi_event_premises_respect_sequence_support():
    db = _encode([[0, 1, 2], [0, 2, 1], [0, 1]])
    premises = {p.pattern: p.s_support for p in PremiseMiner(min_s_support=2).mine(db)}
    assert premises[(0, 1)] == 3
    assert premises[(0, 2)] == 2
    assert (0, 1, 2) not in premises  # only sequence 0 contains it


def test_premise_support_counts_sequences_not_occurrences():
    db = _encode([[0, 1, 0, 1, 0, 1]])
    premises = {p.pattern: p.s_support for p in PremiseMiner(min_s_support=1).mine(db)}
    assert premises[(0, 1)] == 1


def test_projections_record_earliest_embeddings():
    db = _encode([[3, 0, 1, 1], [0, 2, 1]])
    for premise in PremiseMiner(min_s_support=1).mine(db):
        for sequence_index, position in premise.projections:
            assert earliest_embedding_end(db[sequence_index], premise.pattern) == position


def test_all_mined_premises_are_subsequences_of_some_sequence():
    db = _encode([[0, 1, 2, 0], [2, 1, 0]])
    for premise in PremiseMiner(min_s_support=1).mine(db):
        assert any(is_subsequence(premise.pattern, sequence) for sequence in db)


def test_max_length_caps_premises():
    db = _encode([[0, 1, 2, 3]] * 2)
    premises = list(PremiseMiner(min_s_support=2, max_length=2).mine(db))
    assert premises
    assert all(len(p.pattern) <= 2 for p in premises)


def test_allowed_events_restricts_premise_alphabet():
    db = _encode([[0, 1, 2], [0, 1, 2]])
    premises = {p.pattern for p in PremiseMiner(min_s_support=2, allowed_events=frozenset({0, 1})).mine(db)}
    assert (0, 1) in premises
    assert all(2 not in pattern for pattern in premises)


def test_apriori_pruning_counts(abc_database):
    encoded = abc_database.encoded
    miner = PremiseMiner(min_s_support=3)
    list(miner.mine(encoded))
    assert miner.stats.pruned_support > 0
