"""Tests for the full and non-redundant recurrent-rule miners."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.positions import PositionIndex
from repro.core.sequence import SequenceDatabase
from repro.rules.config import RuleMiningConfig
from repro.rules.consequent_miner import ConsequentGrower, _SearchNode
from repro.rules.full_miner import FullRecurrentRuleMiner, mine_all_rules
from repro.rules.nonredundant_miner import (
    NonRedundantRecurrentRuleMiner,
    mine_non_redundant_rules,
)
from tests.oracles.temporal_points import rule_statistics


@pytest.fixture
def resource_db() -> SequenceDatabase:
    """Lock/unlock traces with one violating tail (the last lock is never released)."""
    return SequenceDatabase.from_sequences(
        [
            ["lock", "use", "unlock"],
            ["lock", "unlock", "lock", "unlock"],
            ["lock", "use", "use", "unlock", "lock"],
        ]
    )


def test_lock_unlock_rule_statistics(resource_db):
    rules = mine_all_rules(resource_db, min_s_support=3, min_confidence=0.6)
    rule = rules.find(["lock"], ["unlock"])
    assert rule is not None
    assert rule.s_support == 3
    assert rule.i_support == 4
    assert rule.confidence == pytest.approx(4 / 5)


def test_all_emitted_rules_meet_thresholds(resource_db):
    config = RuleMiningConfig(min_s_support=2, min_confidence=0.7, min_i_support=2)
    result = FullRecurrentRuleMiner(config).mine(resource_db)
    assert len(result) > 0
    for rule in result:
        assert rule.s_support >= result.min_s_support
        assert rule.i_support >= config.min_i_support
        assert rule.confidence >= config.min_confidence - 1e-12


def test_emitted_statistics_match_oracle(resource_db):
    config = RuleMiningConfig(min_s_support=2, min_confidence=0.5)
    result = FullRecurrentRuleMiner(config).mine(resource_db)
    encoded = resource_db.encoded
    index = PositionIndex(encoded)
    for rule in result:
        s_support, i_support, confidence = rule_statistics(
            encoded,
            index,
            resource_db.vocabulary.encode(rule.premise),
            resource_db.vocabulary.encode(rule.consequent),
        )
        assert (s_support, i_support) == (rule.s_support, rule.i_support)
        assert confidence == pytest.approx(rule.confidence)


def test_non_redundant_is_subset_of_full(resource_db):
    config = RuleMiningConfig(min_s_support=2, min_confidence=0.5)
    full = FullRecurrentRuleMiner(config).mine(resource_db)
    non_redundant = NonRedundantRecurrentRuleMiner(config).mine(resource_db)
    full_signatures = {rule.signature() for rule in full}
    assert len(non_redundant) <= len(full)
    assert all(rule.signature() in full_signatures for rule in non_redundant)


def test_every_dropped_rule_is_covered_by_a_kept_rule(resource_db):
    config = RuleMiningConfig(min_s_support=2, min_confidence=0.5)
    full = FullRecurrentRuleMiner(config).mine(resource_db)
    non_redundant = NonRedundantRecurrentRuleMiner(config).mine(resource_db)
    kept_signatures = {rule.signature() for rule in non_redundant}
    for rule in full:
        if rule.signature() in kept_signatures:
            continue
        assert any(rule.is_redundant_with_respect_to(kept) for kept in non_redundant)


def test_no_kept_rule_is_redundant_within_the_result(resource_db):
    config = RuleMiningConfig(min_s_support=2, min_confidence=0.5)
    non_redundant = NonRedundantRecurrentRuleMiner(config).mine(resource_db)
    for rule in non_redundant:
        assert not any(
            rule.is_redundant_with_respect_to(other)
            for other in non_redundant
            if other is not rule
        )


def test_confidence_threshold_filters_rules(resource_db):
    permissive = mine_all_rules(resource_db, min_s_support=2, min_confidence=0.4)
    strict = mine_all_rules(resource_db, min_s_support=2, min_confidence=0.95)
    assert len(strict) <= len(permissive)
    assert all(rule.confidence >= 0.95 - 1e-12 for rule in strict)


def test_i_support_threshold_is_a_pure_filter(resource_db):
    low = mine_all_rules(resource_db, min_s_support=2, min_confidence=0.5, min_i_support=1)
    high = mine_all_rules(resource_db, min_s_support=2, min_confidence=0.5, min_i_support=3)
    assert {r.signature() for r in high} <= {r.signature() for r in low}
    assert all(rule.i_support >= 3 for rule in high)


def test_premise_and_consequent_length_caps(resource_db):
    result = mine_all_rules(
        resource_db,
        min_s_support=2,
        min_confidence=0.5,
        max_premise_length=1,
        max_consequent_length=2,
    )
    assert result
    assert all(len(rule.premise) <= 1 and len(rule.consequent) <= 2 for rule in result)


def test_allowed_premise_events_restriction(resource_db):
    config = RuleMiningConfig(
        min_s_support=2,
        min_confidence=0.5,
        allowed_premise_events=frozenset({"lock"}),
    )
    result = NonRedundantRecurrentRuleMiner(config).mine(resource_db)
    assert result
    assert all(set(rule.premise) <= {"lock"} for rule in result)


def test_multi_event_rule_is_mined():
    db = SequenceDatabase.from_sequences(
        [
            ["connect", "auth", "transfer", "receipt", "close"],
            ["connect", "auth", "ping", "transfer", "log", "receipt"],
            ["connect", "browse", "close"],
        ]
    )
    result = mine_non_redundant_rules(db, min_s_support=2, min_confidence=0.9)
    rule = result.find(["connect", "auth"], ["transfer", "receipt"])
    assert rule is not None
    assert rule.confidence == pytest.approx(1.0)
    assert rule.s_support == 2


def test_invalid_configurations_rejected():
    with pytest.raises(ConfigurationError):
        RuleMiningConfig(min_s_support=0)
    with pytest.raises(ConfigurationError):
        RuleMiningConfig(min_confidence=0.0)
    with pytest.raises(ConfigurationError):
        RuleMiningConfig(min_confidence=1.5)
    with pytest.raises(ConfigurationError):
        RuleMiningConfig(min_i_support=0)
    with pytest.raises(ConfigurationError):
        RuleMiningConfig(max_premise_length=0)
    with pytest.raises(ConfigurationError):
        RuleMiningConfig(allowed_premise_events=frozenset())


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_non_finite_s_support_rejected(threshold):
    with pytest.raises(ConfigurationError, match="finite"):
        RuleMiningConfig(min_s_support=threshold)


def test_empty_database_yields_no_rules():
    result = mine_all_rules(SequenceDatabase(), min_s_support=1, min_confidence=0.5)
    assert len(result) == 0


@pytest.mark.parametrize("miner_class", [FullRecurrentRuleMiner, NonRedundantRecurrentRuleMiner])
def test_confidence_pruned_children_never_measure_i_support(monkeypatch, miner_class):
    """Theorem 3 discards most children; none of them pays for its i-support."""
    rng = random.Random(5)
    database = SequenceDatabase.from_sequences(
        [[rng.choice("abcdefgh") for _ in range(rng.randint(5, 15))] for _ in range(30)]
    )
    config = RuleMiningConfig(min_s_support=5, min_confidence=0.6)
    measured = []
    original = ConsequentGrower._measure_i_support

    def recording(grower, node, child):
        if child.full_pattern_end is None:
            measured.append((child.alive_count(), grower.total_points))
        return original(grower, node, child)

    monkeypatch.setattr(ConsequentGrower, "_measure_i_support", recording)
    result = miner_class(config).mine(database)
    assert result.stats.pruned_confidence > len(measured) > 0
    for alive, total_points in measured:
        assert alive + 1e-9 >= config.min_confidence * total_points


@pytest.mark.parametrize("miner_class", [FullRecurrentRuleMiner, NonRedundantRecurrentRuleMiner])
def test_expansion_builds_only_children_that_pass_the_bound(monkeypatch, miner_class):
    """Count-first growth builds a search node for the roots and survivors only.

    The reference counts every single-event extension of every expanded
    node with the rule-statistics oracle: the built nodes must be exactly
    the roots plus the extensions that pass Theorem 3, and
    ``pruned_confidence`` must count the rest.
    """
    rng = random.Random(11)
    database = SequenceDatabase.from_sequences(
        [[rng.choice("abcdefgh") for _ in range(rng.randint(5, 15))] for _ in range(30)]
    )
    config = RuleMiningConfig(min_s_support=5, min_confidence=0.6, max_consequent_length=3)
    built = []
    grown = []
    original_init = _SearchNode.__init__
    original_grow = ConsequentGrower._grow

    def counting_init(node, *args, **kwargs):
        original_init(node, *args, **kwargs)
        built.append(node)

    def recording_grow(grower, node, skip_dominated):
        grown.append((grower.premise, grower.total_points, node.consequent))
        yield from original_grow(grower, node, skip_dominated)

    monkeypatch.setattr(_SearchNode, "__init__", counting_init)
    monkeypatch.setattr(ConsequentGrower, "_grow", recording_grow)
    result = miner_class(config).mine(database)

    encoded = database.encoded
    index = PositionIndex(encoded)
    alphabet = index.distinct_events()
    roots = passing = pruned = 0
    for premise, total_points, consequent in grown:
        roots += not consequent
        if len(consequent) == config.max_consequent_length:
            continue
        for event in alphabet:
            _, _, confidence = rule_statistics(encoded, index, premise, consequent + (event,))
            alive = round(confidence * total_points)
            if alive == 0:
                continue
            if alive + 1e-9 < config.min_confidence * total_points:
                pruned += 1
            else:
                passing += 1
    assert len(built) == roots + passing < roots + passing + pruned
    assert len(grown) == len(built)
    assert result.stats.pruned_confidence == pruned
