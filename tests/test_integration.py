"""End-to-end integration tests across the whole pipeline.

Each test follows the paper's workflow: obtain traces (synthetic or from the
simulated JBoss components), mine patterns and rules, and use the mined
specifications downstream (LTL, monitoring, charts, persistence).
"""

import pytest

from repro import (
    IterativeMiningConfig,
    RuleMiningConfig,
    SequenceDatabase,
    SpecificationRepository,
    StreamingMonitor,
    mine_all_rules,
    mine_closed_patterns,
    mine_frequent_patterns,
    mine_non_redundant_rules,
)
from repro.analysis.compare import closed_result_is_consistent, nonredundant_result_is_consistent
from repro.datagen import QuestConfig, generate_quest_database
from repro.patterns import ClosedIterativePatternMiner, FullIterativePatternMiner
from repro.rules import FullRecurrentRuleMiner, NonRedundantRecurrentRuleMiner
from repro.specs import chart_from_pattern, rank_patterns, rank_rules
from repro.verification import coverage_of


@pytest.fixture(scope="module")
def synthetic_db() -> SequenceDatabase:
    config = QuestConfig(
        num_sequences=60,
        avg_sequence_length=12,
        num_events=60,
        avg_pattern_length=5,
        num_patterns=12,
        corruption_probability=0.2,
        noise_probability=0.1,
        seed=2024,
    )
    return generate_quest_database(config)


def test_synthetic_closed_vs_full_consistency(synthetic_db):
    full = FullIterativePatternMiner(
        IterativeMiningConfig(min_support=8, max_pattern_length=4)
    ).mine(synthetic_db)
    closed = ClosedIterativePatternMiner(
        IterativeMiningConfig(min_support=8, max_pattern_length=4)
    ).mine(synthetic_db)
    assert len(closed) <= len(full)
    assert closed_result_is_consistent(full, closed) == []


def test_synthetic_rule_nr_vs_full_consistency(synthetic_db):
    config = RuleMiningConfig(
        min_s_support=0.25, min_confidence=0.7, max_premise_length=2, max_consequent_length=2
    )
    full = FullRecurrentRuleMiner(config).mine(synthetic_db)
    non_redundant = NonRedundantRecurrentRuleMiner(config).mine(synthetic_db)
    assert len(non_redundant) <= len(full)
    assert nonredundant_result_is_consistent(full, non_redundant) == []


def test_mined_rules_monitor_their_own_training_traces(synthetic_db):
    rules = mine_non_redundant_rules(
        synthetic_db,
        min_s_support=0.25,
        min_confidence=1.0,
        max_premise_length=1,
        max_consequent_length=1,
    )
    if not rules.rules:
        pytest.skip("no 100%-confidence rules on this synthetic draw")
    monitor = StreamingMonitor(rules.rules)
    report = monitor.check_database(synthetic_db)
    # Rules mined at 100% confidence cannot be violated on their own traces.
    assert report.violation_count == 0


def test_pipeline_from_mining_to_repository_and_charts(tmp_path, synthetic_db):
    patterns = mine_closed_patterns(synthetic_db, min_support=8, max_pattern_length=4)
    rules = mine_all_rules(
        synthetic_db,
        min_s_support=0.3,
        min_confidence=0.8,
        max_premise_length=1,
        max_consequent_length=1,
    )
    repository = SpecificationRepository("synthetic")
    repository.add_pattern_result(patterns)
    repository.add_rule_result(rules)
    path = tmp_path / "specs.json"
    repository.save(path)
    loaded = SpecificationRepository.load(path)
    assert len(loaded) == len(repository)

    ranked_patterns = rank_patterns(patterns, top=3)
    assert len(ranked_patterns) <= 3
    if rules.rules:
        assert rank_rules(rules, top=1)

    if patterns.patterns:
        chart = chart_from_pattern(patterns.longest().events)
        assert len(chart) == len(patterns.longest().events)

    report = coverage_of(synthetic_db, patterns=patterns.patterns, rules=rules.rules)
    assert 0.0 <= report.position_coverage <= 1.0
    assert 0.0 <= report.vocabulary_coverage <= 1.0


def test_resource_protocol_end_to_end():
    """The introduction's resource-locking example, end to end."""
    db = SequenceDatabase.from_sequences(
        [
            ["acquire", "use", "release", "acquire", "release"],
            ["acquire", "compute", "release"],
            ["acquire", "use", "use", "release"],
            ["idle", "acquire", "release"],
        ]
    )
    patterns = mine_closed_patterns(db, min_support=5)
    assert patterns.contains(("acquire", "release"))

    rules = mine_non_redundant_rules(db, min_s_support=4, min_confidence=0.9)
    rule = rules.find(("acquire",), ("release",))
    assert rule is not None
    assert rule.confidence == pytest.approx(1.0)

    monitor = StreamingMonitor([rule])
    assert monitor.check_trace(["acquire", "work", "release"]).violation_count == 0
    assert monitor.check_trace(["acquire", "work"]).violation_count > 0


def test_closed_patterns_are_a_subset_of_full_patterns(synthetic_db):
    full = mine_frequent_patterns(synthetic_db, min_support=10, max_pattern_length=3)
    closed = mine_closed_patterns(synthetic_db, min_support=10, max_pattern_length=3)
    full_events = {pattern.events for pattern in full}
    assert {pattern.events for pattern in closed} <= full_events
