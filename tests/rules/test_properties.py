"""Property-based tests for recurrent-rule mining (hypothesis)."""

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.core.positions import PositionIndex
from repro.core.sequence import SequenceDatabase
from repro.rules.config import RuleMiningConfig
from repro.rules.full_miner import FullRecurrentRuleMiner
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from tests.oracles.temporal_points import (
    is_followed_by,
    rule_statistics,
    temporal_points_in_sequence,
)

sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=10),
    min_size=1,
    max_size=4,
)
pattern_strategy = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)


@given(sequences=sequences_strategy, premise=pattern_strategy)
@settings(max_examples=60, deadline=None)
def test_temporal_points_satisfy_their_definition(sequences, premise):
    """Definition 5.1: the prefix up to a point contains the premise and ends with its last event."""
    from repro.core.pattern import is_subsequence

    for sequence in sequences:
        points = temporal_points_in_sequence(sequence, premise)
        for point in points:
            assert sequence[point] == premise[-1]
            assert is_subsequence(premise, sequence[: point + 1])
        # Completeness: every qualifying position is reported.
        for position in range(len(sequence)):
            if sequence[position] == premise[-1] and is_subsequence(
                premise, sequence[: position + 1]
            ):
                assert position in points


@given(
    sequences=sequences_strategy,
    premise=pattern_strategy,
    consequent=pattern_strategy,
    extension=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_confidence_is_antimonotone_in_the_consequent(sequences, premise, consequent, extension):
    """Theorem 3: extending the consequent can only lower confidence."""
    index = PositionIndex(sequences)
    _, _, confidence = rule_statistics(sequences, index, premise, consequent)
    _, _, extended_confidence = rule_statistics(
        sequences, index, premise, list(consequent) + [extension]
    )
    assert extended_confidence <= confidence + 1e-12


@given(sequences=sequences_strategy, premise=pattern_strategy, extension=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_sequence_support_is_antimonotone_in_the_premise(sequences, premise, extension):
    """Theorem 2: extending the premise can only lower its sequence support."""
    index = PositionIndex(sequences)
    s_support, _, _ = rule_statistics(sequences, index, premise, [0])
    extended_s_support, _, _ = rule_statistics(
        sequences, index, list(premise) + [extension], [0]
    )
    assert extended_s_support <= s_support


@given(sequences=sequences_strategy)
@settings(max_examples=20, deadline=None)
def test_miner_statistics_match_the_oracle(sequences):
    db = SequenceDatabase.from_sequences(sequences)
    config = RuleMiningConfig(
        min_s_support=1, min_confidence=0.5, max_premise_length=2, max_consequent_length=2
    )
    result = FullRecurrentRuleMiner(config).mine(db)
    encoded = db.encoded
    index = PositionIndex(encoded)
    for rule in result:
        s_support, i_support, confidence = rule_statistics(
            encoded,
            index,
            db.vocabulary.encode(rule.premise),
            db.vocabulary.encode(rule.consequent),
        )
        assert (s_support, i_support) == (rule.s_support, rule.i_support)
        assert abs(confidence - rule.confidence) < 1e-9


@given(
    sequences=sequences_strategy,
    min_s_support=st.sampled_from([0.25, 0.5, 2, 3]),
    min_i_support=st.integers(min_value=1, max_value=3),
    min_confidence=st.sampled_from([0.3, 0.5, 0.75, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_full_miner_finds_every_significant_rule(
    sequences, min_s_support, min_i_support, min_confidence
):
    """Completeness: brute force over the alphabet finds no rule the miner missed."""
    db = SequenceDatabase.from_sequences(sequences)
    config = RuleMiningConfig(
        min_s_support=min_s_support,
        min_i_support=min_i_support,
        min_confidence=min_confidence,
        max_premise_length=2,
        max_consequent_length=2,
    )
    result = FullRecurrentRuleMiner(config).mine(db)
    encoded = db.encoded
    index = PositionIndex(encoded)
    alphabet = index.distinct_events()
    patterns = [pattern for length in (1, 2) for pattern in product(alphabet, repeat=length)]
    expected = set()
    for premise, consequent in product(patterns, repeat=2):
        s_support, i_support, confidence = rule_statistics(encoded, index, premise, consequent)
        if (
            s_support >= result.min_s_support
            and i_support >= min_i_support
            and confidence >= min_confidence - 1e-9
        ):
            expected.add((premise, consequent))
    mined = {
        (tuple(db.vocabulary.encode(rule.premise)), tuple(db.vocabulary.encode(rule.consequent)))
        for rule in result
    }
    assert mined == expected


@given(sequences=sequences_strategy)
@settings(max_examples=15, deadline=None)
def test_nonredundant_result_summarises_full_result(sequences):
    db = SequenceDatabase.from_sequences(sequences)
    config = RuleMiningConfig(
        min_s_support=1, min_confidence=0.5, max_premise_length=2, max_consequent_length=3
    )
    full = FullRecurrentRuleMiner(config).mine(db)
    non_redundant = NonRedundantRecurrentRuleMiner(config).mine(db)
    kept_signatures = {rule.signature() for rule in non_redundant}
    full_signatures = {rule.signature() for rule in full}
    assert kept_signatures <= full_signatures
    for rule in full:
        if rule.signature() in kept_signatures:
            continue
        assert any(rule.is_redundant_with_respect_to(kept) for kept in non_redundant)


@given(sequences=sequences_strategy, premise=pattern_strategy, consequent=pattern_strategy)
@settings(max_examples=40, deadline=None)
def test_rule_satisfaction_matches_ltl_translation(sequences, premise, consequent):
    """A trace satisfies a rule at every temporal point iff its LTL form holds."""
    from repro.ltl.semantics import holds
    from repro.ltl.translate import rule_to_ltl

    formula = rule_to_ltl(premise, consequent)
    for sequence in sequences:
        points = temporal_points_in_sequence(sequence, premise)
        rule_holds = all(is_followed_by(sequence, point, consequent) for point in points)
        assert holds(formula, sequence) == rule_holds
