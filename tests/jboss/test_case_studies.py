"""Integration tests: the Section 7 case studies on the simulated JBoss traces.

These are the library-level versions of Figures 4 and 5: the closed
iterative-pattern miner recovers the transaction protocol, and the
non-redundant recurrent-rule miner recovers the JAAS authentication rule.
The workloads here are intentionally small so the tests stay fast; the
benchmark suite runs the full-size versions.
"""

import pytest

from repro.jboss.reference import FIGURE4_PATTERN, FIGURE5_CONSEQUENT, FIGURE5_PREMISE
from repro.ltl.semantics import holds
from repro.ltl.translate import rule_to_ltl
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.serving import StreamingMonitor


@pytest.fixture(scope="module")
def transaction_patterns(small_transaction_traces):
    config = IterativeMiningConfig(
        min_support=4, adjacent_absorption_pruning=True, collect_instances=False
    )
    return ClosedIterativePatternMiner(config).mine(small_transaction_traces)


def test_figure4_pattern_is_mined(transaction_patterns):
    assert transaction_patterns.contains(FIGURE4_PATTERN)


def test_figure4_pattern_is_the_longest_mined_pattern(transaction_patterns):
    longest = transaction_patterns.longest()
    assert longest is not None
    assert longest.events == FIGURE4_PATTERN


def test_figure4_support_counts_committed_transactions(
    transaction_patterns, small_transaction_traces
):
    commits = sum(
        list(small_transaction_traces[i]).count("TxManager.commit")
        for i in range(len(small_transaction_traces))
    )
    assert transaction_patterns.support_of(FIGURE4_PATTERN) == commits


@pytest.fixture(scope="module")
def security_rules(small_security_traces):
    config = RuleMiningConfig(
        min_s_support=0.5,
        min_confidence=0.5,
        min_i_support=1,
        max_premise_length=2,
        allowed_premise_events=frozenset(FIGURE5_PREMISE),
    )
    return NonRedundantRecurrentRuleMiner(config).mine(small_security_traces)


def test_figure5_rule_is_mined(security_rules):
    assert security_rules.contains(FIGURE5_PREMISE, FIGURE5_CONSEQUENT)


def test_figure5_rule_confidence_reflects_login_failures(security_rules):
    rule = security_rules.find(FIGURE5_PREMISE, FIGURE5_CONSEQUENT)
    assert 0.5 <= rule.confidence < 1.0
    assert rule.i_support >= 1
    assert rule.s_support >= security_rules.min_s_support


def test_figure5_rule_differs_from_single_event_premise_variant(security_rules, small_security_traces):
    """The coarser <getConfEntry> premise has different statistics, which is
    exactly why the two-event-premise rule of Figure 5 is not redundant."""
    from repro.core.positions import PositionIndex
    from tests.oracles.temporal_points import rule_statistics

    encoded = small_security_traces.encoded
    index = PositionIndex(encoded)
    vocabulary = small_security_traces.vocabulary
    coarse = rule_statistics(
        encoded,
        index,
        vocabulary.encode(("XmlLoginCI.getConfEntry",)),
        vocabulary.encode(("AuthenInfo.getName",) + FIGURE5_CONSEQUENT),
    )
    fine_rule = security_rules.find(FIGURE5_PREMISE, FIGURE5_CONSEQUENT)
    assert (coarse[0], coarse[1], coarse[2]) != (
        fine_rule.s_support,
        fine_rule.i_support,
        fine_rule.confidence,
    )


def test_mined_rule_violations_match_failed_logins(security_rules, small_security_traces):
    rule = security_rules.find(FIGURE5_PREMISE, FIGURE5_CONSEQUENT)
    report = StreamingMonitor([rule]).check_database(small_security_traces)
    # Confidence measured during mining equals the monitoring satisfaction rate.
    assert report.satisfaction_rate == pytest.approx(rule.confidence)
    assert report.violation_count > 0


def test_mined_rule_ltl_translation_holds_on_clean_traces(security_rules):
    rule = security_rules.find(FIGURE5_PREMISE, FIGURE5_CONSEQUENT)
    formula = rule_to_ltl(rule.premise, rule.consequent)
    clean_trace = list(FIGURE5_PREMISE + FIGURE5_CONSEQUENT)
    violating_trace = list(FIGURE5_PREMISE) + ["ClientLoginMod.initialize"]
    assert holds(formula, clean_trace)
    assert not holds(formula, violating_trace)
