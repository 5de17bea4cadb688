"""Streaming-monitor parity and incremental-API tests.

The serving contract: a :class:`StreamingMonitor` over a compiled automaton
produces *identical* monitoring reports — point counts and the exact
violation list — to the reference
:class:`~tests.oracles.monitor.RuleMonitor`, which re-derives temporal
points per rule per trace; its per-rule analytics count the same opened,
satisfied and violated points per rule; and satisfiability agrees with the
LTL translation of Table 2.  The hypothesis suites drive randomized rule sets
and databases through all three views.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import MonitoringError
from repro.core.sequence import SequenceDatabase
from repro.ltl.semantics import holds
from repro.ltl.translate import rule_to_ltl
from repro.rules.nonredundant_miner import mine_non_redundant_rules
from repro.rules.rule import RecurrentRule
from repro.serving import CompiledRuleSet, StreamingMonitor, compile_rules
from repro.serving.compile import rule_key
from repro.serving.stream_monitor import RuleTally
from tests.oracles.monitor import RuleMonitor, analytics_counts

ALPHABET = [str(i) for i in range(5)]

event_strategy = st.sampled_from(ALPHABET)
pattern_strategy = st.lists(event_strategy, min_size=1, max_size=3).map(tuple)
rule_strategy = st.builds(
    lambda premise, consequent: RecurrentRule(
        premise=premise, consequent=consequent, s_support=1, i_support=1, confidence=1.0
    ),
    premise=pattern_strategy,
    consequent=pattern_strategy,
)
rules_strategy = st.lists(rule_strategy, min_size=0, max_size=5)
trace_strategy = st.lists(event_strategy, min_size=0, max_size=14)
database_strategy = st.lists(trace_strategy, min_size=0, max_size=5)


def _assert_matches_oracle(oracle, offline, monitor, streaming):
    """The streaming report equals the oracle's, and the monitor's per-rule
    analytics count the points the oracle counted."""
    assert streaming.total_points == offline.total_points
    assert streaming.satisfied_points == offline.satisfied_points
    assert streaming.violations == offline.violations
    assert analytics_counts(monitor.rule_analytics()) == oracle.rule_counts()


# --------------------------------------------------------------------- #
# Parity with the temporal-points (offline) semantics.
# --------------------------------------------------------------------- #
@given(rules=rules_strategy, traces=database_strategy)
@settings(max_examples=300, deadline=None)
def test_streaming_report_identical_to_offline_monitor(rules, traces):
    database = SequenceDatabase.from_sequences(traces)
    oracle, monitor = RuleMonitor(rules), StreamingMonitor(compile_rules(rules))
    offline = oracle.check_database(database)
    _assert_matches_oracle(oracle, offline, monitor, monitor.check_database(database))


#: Disjoint event families: a trace touching some families arms only their
#: rules, so close visits a sparse, interleaved subset of rule ids.
FAMILY_ALPHABETS = [[f"f{family}.{i}" for i in range(3)] for family in range(6)]


def _family_rule(alphabet):
    family_pattern = st.lists(st.sampled_from(alphabet), min_size=1, max_size=3).map(tuple)
    return st.builds(
        lambda premise, consequent: RecurrentRule(
            premise=premise, consequent=consequent, s_support=1, i_support=1, confidence=1.0
        ),
        premise=family_pattern,
        consequent=family_pattern,
    )


many_family_rules_strategy = st.lists(
    st.one_of([_family_rule(alphabet) for alphabet in FAMILY_ALPHABETS]),
    min_size=0,
    max_size=40,
)
many_family_database_strategy = st.lists(
    st.lists(
        st.sampled_from([event for alphabet in FAMILY_ALPHABETS[:4] for event in alphabet]),
        max_size=16,
    ),
    max_size=5,
)


@given(rules=many_family_rules_strategy, traces=many_family_database_strategy)
@settings(max_examples=200, deadline=None)
def test_many_family_rule_sets_keep_offline_violation_order(rules, traces):
    """Close visits only the touched rules, in ascending rule id: the
    violation order still matches the offline monitor's full scan."""
    database = SequenceDatabase.from_sequences(traces)
    oracle, monitor = RuleMonitor(rules), StreamingMonitor(compile_rules(rules))
    offline = oracle.check_database(database)
    _assert_matches_oracle(oracle, offline, monitor, monitor.check_database(database))


def test_close_is_proportional_to_the_rules_a_trace_touched(monkeypatch):
    """1,200 rules in 50 disjoint families; a trace of one family closes
    without computing any rule signature and reports only that family.

    Premises have two events, as in the serving benchmark's fixture: a
    one-event premise is armed at the start of every trace, so such a rule
    counts as touched by every trace.
    """
    rules = []
    for family in range(50):
        alphabet = [f"f{family}.e{i}" for i in range(5)]
        premises = [(a, b) for a in alphabet for b in alphabet if a != b]
        premises += [(a, a) for a in alphabet[:4]]
        rules.extend(
            _rule(premise, [alphabet[number % 5]]) for number, premise in enumerate(premises)
        )
    assert len(rules) == 1200
    compiled = compile_rules(rules)
    touched = {rule_key(rule) for rule in rules if rule.premise[0].startswith("f7.")}
    trace = ["f7.e0", "f7.e1", "f7.e2", "noise", "f7.e3", "f7.e1"]
    oracle = RuleMonitor(rules)
    expected = oracle.check_trace(trace)

    def no_signatures(self):
        raise AssertionError("close must not compute rule signatures")

    monkeypatch.setattr(RecurrentRule, "signature", no_signatures)
    monitor = StreamingMonitor(compiled)
    report = monitor.check_trace(trace)
    monkeypatch.undo()

    assert report.total_points
    assert set(monitor.rule_analytics()) <= touched
    _assert_matches_oracle(oracle, expected, monitor, report)


@given(rules=rules_strategy, traces=database_strategy)
@settings(max_examples=100, deadline=None)
def test_cumulative_report_matches_offline_database_check(rules, traces):
    database = SequenceDatabase.from_sequences(traces)
    monitor = StreamingMonitor(compile_rules(rules))
    for index in range(len(database)):
        monitor.check_trace(database[index], name=database.name(index))
    oracle = RuleMonitor(rules)
    _assert_matches_oracle(oracle, oracle.check_database(database), monitor, monitor.report())


@given(rule=rule_strategy, trace=trace_strategy)
@settings(max_examples=200, deadline=None)
def test_event_at_a_time_feeding_matches_whole_trace_check(rule, trace):
    by_event = StreamingMonitor(compile_rules([rule]))
    by_event.begin_trace()
    for event in trace:
        by_event.feed(event)
    oracle = RuleMonitor([rule])
    _assert_matches_oracle(oracle, oracle.check_trace(trace), by_event, by_event.end_trace())


# --------------------------------------------------------------------- #
# Parity with the LTL semantics (Table 2 translation).
# --------------------------------------------------------------------- #
@given(rule=rule_strategy, trace=st.lists(event_strategy, min_size=0, max_size=10))
@settings(max_examples=200, deadline=None)
def test_streaming_satisfaction_agrees_with_ltl(rule, trace):
    formula = rule_to_ltl(rule.premise, rule.consequent)
    report = StreamingMonitor(compile_rules([rule])).check_trace(trace)
    assert (report.violation_count == 0) == holds(formula, trace)


# --------------------------------------------------------------------- #
# Mined rules compile and serve: the mine -> compile -> monitor loop.
# --------------------------------------------------------------------- #
@given(traces=st.lists(trace_strategy, min_size=1, max_size=5), probe=database_strategy)
@settings(max_examples=50, deadline=None)
def test_mined_rules_compile_and_match_offline_monitoring(traces, probe):
    mined = mine_non_redundant_rules(
        SequenceDatabase.from_sequences(traces), min_s_support=1, min_confidence=0.5
    ).rules
    database = SequenceDatabase.from_sequences(probe)
    oracle, monitor = RuleMonitor(mined), StreamingMonitor(mined)
    _assert_matches_oracle(
        oracle, oracle.check_database(database), monitor, monitor.check_database(database)
    )


# --------------------------------------------------------------------- #
# Incremental API behaviour.
# --------------------------------------------------------------------- #
def _rule(premise, consequent):
    return RecurrentRule(
        premise=tuple(premise), consequent=tuple(consequent),
        s_support=1, i_support=1, confidence=1.0,
    )


def _check_against_oracle(rules, trace):
    """The trace's streaming report, after asserting it equals the oracle's."""
    oracle, monitor = RuleMonitor(rules), StreamingMonitor(compile_rules(rules))
    report = monitor.check_trace(trace)
    _assert_matches_oracle(oracle, oracle.check_trace(trace), monitor, report)
    return report


def test_consequent_repeating_an_event_needs_both_occurrences():
    # Points at 0, 2 and 5: the first two see x, x, y later on (x@3, x@6,
    # y@7); after 5 only one x is left.
    report = _check_against_oracle(
        [_rule(["a"], ["x", "x", "y"])], ["a", "x", "a", "x", "y", "a", "x", "y"]
    )
    assert (report.total_points, report.satisfied_points) == (3, 2)
    assert [violation.position for violation in report.violations] == [5]


def test_consequent_equal_to_the_last_premise_event_looks_strictly_after():
    # Each a opens a point that only a *later* a satisfies.
    report = _check_against_oracle([_rule(["a"], ["a"])], ["a", "b", "a", "a"])
    assert (report.total_points, report.satisfied_points) == (3, 2)
    assert [violation.position for violation in report.violations] == [3]


def test_one_event_premise_is_armed_at_the_root():
    rule = _rule(["b"], ["c"])
    monitor = StreamingMonitor(compile_rules([rule]))
    report = monitor.check_trace(["b", "c", "b"])
    oracle = RuleMonitor([rule])
    _assert_matches_oracle(oracle, oracle.check_trace(["b", "c", "b"]), monitor, report)
    assert [violation.position for violation in report.violations] == [2]
    assert monitor.rule_analytics()[rule_key(rule)] == {
        "opened": 2, "satisfied": 1, "violated": 1, "trie_advances": 1,
    }
    # A trace without the premise event still arms a root rule.
    assert monitor.check_trace(["c"]).total_points == 0
    assert monitor.rule_analytics()[rule_key(rule)]["trie_advances"] == 2


def test_armed_rule_without_a_later_last_event_opens_no_point():
    # The prefix a is reached at 1; the b before it opens nothing.
    never, opens = _rule(["a", "b"], ["c"]), _rule(["a"], ["c"])
    monitor = StreamingMonitor(compile_rules([never, opens]))
    report = monitor.check_trace(["b", "a", "c"])
    oracle = RuleMonitor([never, opens])
    _assert_matches_oracle(oracle, oracle.check_trace(["b", "a", "c"]), monitor, report)
    assert oracle.rule_counts() == {rule_key(opens): (1, 1, 0)}
    analytics = monitor.rule_analytics()
    assert analytics[rule_key(never)] == {
        "opened": 0, "satisfied": 0, "violated": 0, "trie_advances": 1,
    }
    # Only a rule that opened a point has an active window to observe.
    slots = RuleTally.merged([monitor.tally])
    assert sum(slots[rule_key(never)][5:]) == 0
    assert sum(slots[rule_key(opens)][5:]) == 1


def test_feed_reads_no_per_rule_table(monkeypatch):
    """Feeding does no per-rule work: the per-rule tables are read only
    when the trace closes."""
    rules = [
        _rule(["a"], ["b", "c"]),
        _rule(["a", "b"], ["c"]),
        _rule(["a", "b", "a"], ["a"]),
        _rule(["c"], ["c"]),
    ]
    trace = ["a", "b", "a", "c", "b", "a", "c", "noise", "c"]
    compiled = compile_rules(rules)
    feeding = False
    for name in ("group_rules", "consequents", "keys"):
        slot = CompiledRuleSet.__dict__[name]

        def read(self, slot=slot, name=name):
            if feeding:
                raise AssertionError(f"feed read compiled.{name}")
            return slot.__get__(self, CompiledRuleSet)

        monkeypatch.setattr(CompiledRuleSet, name, property(read))
    monitor = StreamingMonitor(compiled)
    monitor.begin_trace()
    feeding = True
    for event in trace:
        monitor.feed(event)
    feeding = False
    oracle = RuleMonitor(rules)
    _assert_matches_oracle(oracle, oracle.check_trace(trace), monitor, monitor.end_trace())


def test_violations_carry_trace_names_and_global_indexes():
    monitor = StreamingMonitor([_rule(["lock"], ["unlock"])], first_trace_index=41)
    monitor.check_trace(["lock", "unlock"], name="good")
    report = monitor.check_trace(["lock", "work"], name="bad")
    (violation,) = report.violations
    assert violation.trace_index == 42
    assert violation.trace_name == "bad"
    assert violation.position == 0
    assert "bad@0" in violation.describe()


def test_end_trace_without_an_open_trace_raises():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    with pytest.raises(MonitoringError, match="no trace is open"):
        monitor.end_trace()


def test_begin_trace_twice_raises():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    monitor.begin_trace()
    with pytest.raises(MonitoringError, match="already open"):
        monitor.begin_trace()


def test_report_only_covers_ended_traces():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    monitor.feed("a")  # auto-opens a trace; premise completes, no consequent yet
    assert monitor.report().total_points == 0
    monitor.end_trace()
    assert monitor.report().total_points == 1
    assert monitor.report().violation_count == 1


def test_events_outside_every_rule_are_skipped_but_positions_advance():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    report = monitor.check_trace(["noise", "a", "noise", "noise"])
    (violation,) = report.violations
    assert violation.position == 1  # positions count unknown events too


def test_empty_rule_set_serves_cleanly():
    monitor = StreamingMonitor(())
    report = monitor.check_trace(["a", "b", "c"])
    assert report.total_points == 0
    assert report.violation_count == 0
    assert monitor.report().satisfaction_rate == 1.0


def test_monitor_counters_track_traffic():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    monitor.check_trace(["a", "b"])
    monitor.check_trace(["c"])
    assert monitor.traces_seen == 2
    assert monitor.events_seen == 3


def test_one_compiled_set_serves_concurrent_sessions_independently():
    compiled = compile_rules([_rule(["a"], ["b"])])
    first = StreamingMonitor(compiled)
    second = StreamingMonitor(compiled)
    first.feed("a")
    assert second.check_trace(["a", "b"]).violation_count == 0
    assert first.end_trace().violation_count == 1


def test_grouped_close_keeps_rule_order_across_interleaved_groups():
    """Close settles each (trie node, last(premise)) group at once; rule ids
    interleave across nodes and groups, so only sorting the violating rules
    keeps the oracle's rule-id order.  Analytics are counted by hand."""
    rules = [
        _rule(["a", "b"], ["c"]),  # 0: node a, group b
        _rule(["d", "b"], ["c"]),  # 1: node d, group b
        _rule(["a", "e"], ["c"]),  # 2: node a, group e
        _rule(["a", "b"], ["f"]),  # 3: node a, group b
        _rule(["b"], ["c"]),  # 4: the root, group b (one-event premise)
        _rule(["a", "b"], ["c"]),  # 5: a duplicate of rule 0
        _rule(["d", "e"], ["f"]),  # 6: node d, group e
    ]
    compiled = compile_rules(rules)
    a_node = compiled.children[0][compiled.symbol_of["a"]]
    b, e = compiled.symbol_of["b"], compiled.symbol_of["e"]
    assert compiled.group_rules[compiled.arm_groups[a_node][b]] == (0, 3, 5)
    assert compiled.group_rules[compiled.arm_groups[0][b]] == (4,)
    monitor = StreamingMonitor(compiled)
    oracle = RuleMonitor(rules)

    # a reaches node a at 0, d reaches node d at 2; c's latest start is 4
    # and f never occurs.  Points: b at 1, 3, 6 (root and node a), b at
    # 3, 6 (node d), e at 5 (nodes a and d).
    trace = ["a", "b", "d", "b", "c", "e", "b"]
    report = monitor.check_trace(trace)
    _assert_matches_oracle(oracle, oracle.check_trace(trace), monitor, report)
    # rules.index maps the duplicate rule 5 to rule 0.
    assert [(rules.index(v.rule), v.position) for v in report.violations] == [
        (0, 6), (1, 6), (2, 5), (3, 1), (3, 3), (3, 6), (4, 6), (0, 6), (6, 5),
    ]
    assert (report.total_points, report.satisfied_points) == (16, 7)

    # A second trace reaches the root and node d only, opening nothing.
    assert monitor.check_trace(["d", "c"]).total_points == 0
    assert monitor.rule_analytics() == {
        "a, b -> c": {"opened": 6, "satisfied": 4, "violated": 2, "trie_advances": 2},
        "a, b -> f": {"opened": 3, "satisfied": 0, "violated": 3, "trie_advances": 1},
        "a, e -> c": {"opened": 1, "satisfied": 0, "violated": 1, "trie_advances": 1},
        "b -> c": {"opened": 3, "satisfied": 2, "violated": 1, "trie_advances": 2},
        "d, b -> c": {"opened": 2, "satisfied": 1, "violated": 1, "trie_advances": 2},
        "d, e -> f": {"opened": 1, "satisfied": 0, "violated": 1, "trie_advances": 2},
    }
