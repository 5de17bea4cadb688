"""Tests for the Definition 5.2 redundancy filter."""

import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.pattern import is_subsequence
from repro.core.sequence import SequenceDatabase
from repro.ingest import IncrementalMiner, TraceStore
from repro.rules import redundancy, rule as rule_module
from repro.rules.config import RuleMiningConfig
from repro.rules.full_miner import FullRecurrentRuleMiner
from repro.rules.miner_base import RuleRecord
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.rules.redundancy import filter_redundant
from repro.rules.rule import RecurrentRule
from tests.oracles.redundancy import filter_redundant as oracle_filter_redundant
from tests.oracles.redundancy import find_redundant


def _rule(premise, consequent, s=2, i=3, c=0.8):
    return RecurrentRule(
        premise=tuple(premise), consequent=tuple(consequent), s_support=s, i_support=i, confidence=c
    )


def test_shorter_rule_with_same_statistics_is_redundant():
    shorter = _rule(("a",), ("c",))
    longer = _rule(("a",), ("b", "c"))
    kept, dropped = filter_redundant([shorter, longer])
    assert kept == [longer]
    assert dropped == [shorter]


def test_rules_with_different_statistics_are_both_kept():
    first = _rule(("a",), ("c",), i=9)
    second = _rule(("a",), ("b", "c"), i=3)
    kept, dropped = filter_redundant([first, second])
    assert set(rule.signature() for rule in kept) == {first.signature(), second.signature()}
    assert dropped == []


def test_tie_break_keeps_shorter_premise():
    long_premise = _rule(("a", "b"), ("c",))
    short_premise = _rule(("a",), ("b", "c"))
    kept, dropped = filter_redundant([long_premise, short_premise])
    assert kept == [short_premise]
    assert dropped == [long_premise]


def test_chain_of_redundancy_keeps_only_the_maximal_rule():
    small = _rule(("a",), ("d",))
    middle = _rule(("a",), ("c", "d"))
    large = _rule(("a",), ("b", "c", "d"))
    kept, dropped = filter_redundant([small, middle, large])
    assert kept == [large]
    assert {rule.signature() for rule in dropped} == {small.signature(), middle.signature()}


def test_unrelated_rules_are_kept():
    first = _rule(("x",), ("y",))
    second = _rule(("p",), ("q",))
    kept, dropped = filter_redundant([first, second])
    assert len(kept) == 2 and not dropped


def test_find_redundant_matches_filter():
    rules = [_rule(("a",), ("c",)), _rule(("a",), ("b", "c")), _rule(("z",), ("w",), i=1)]
    redundant = find_redundant(rules)
    _, dropped = filter_redundant(rules)
    assert {rule.signature() for rule in redundant} == {rule.signature() for rule in dropped}


def test_empty_input():
    kept, dropped = filter_redundant([])
    assert kept == [] and dropped == []


# --------------------------------------------------------------------- #
# Survivors-only sweep ≡ the pairwise oracle
# --------------------------------------------------------------------- #
STATISTICS = [(2, 3, 0.5), (2, 3, 1 / 3), (4, 3, 0.5), (2, 5, 1.0)]


@st.composite
def rule_sets(draw):
    """Rules drawn as subsequences of a few seed concatenations.

    Masks over a shared seed give subsequence chains; one concatenation
    drawn several times with different split points gives identical
    concatenations at different premise lengths; and a handful of shared
    statistics lets several classes hold the same concatenations.
    """
    seeds = draw(
        st.lists(st.lists(st.sampled_from("abcd"), min_size=2, max_size=6), min_size=1, max_size=3)
    )
    rules = {}
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        seed = draw(st.sampled_from(seeds))
        mask = draw(st.lists(st.booleans(), min_size=len(seed), max_size=len(seed)))
        events = tuple(event for event, keep in zip(seed, mask) if keep)
        if len(events) < 2:
            events = tuple(seed)
        split = draw(st.integers(min_value=1, max_value=len(events) - 1))
        s_support, i_support, confidence = draw(st.sampled_from(STATISTICS))
        rules.setdefault(
            (events[:split], events[split:]),
            _rule(events[:split], events[split:], s=s_support, i=i_support, c=confidence),
        )
    return draw(st.permutations(list(rules.values())))


def _encode(rule, ids):
    return RuleRecord(
        premise=tuple(ids[label] for label in rule.premise),
        consequent=tuple(ids[label] for label in rule.consequent),
        s_support=rule.s_support,
        i_support=rule.i_support,
        confidence=rule.confidence,
    )


@given(rules=rule_sets())
@settings(max_examples=300, deadline=None)
def test_sweep_matches_pairwise_oracle_on_rules(rules):
    kept, dropped = filter_redundant(rules)
    oracle_kept, oracle_dropped = oracle_filter_redundant(rules)
    assert kept == oracle_kept
    assert {rule.signature() for rule in dropped} == {
        rule.signature() for rule in oracle_dropped
    }


@given(rules=rule_sets())
@settings(max_examples=150, deadline=None)
def test_sweep_matches_pairwise_oracle_on_encoded_records(rules):
    # Ids in reverse label order, so encoding does not preserve label order.
    ids = {label: 10 - offset for offset, label in enumerate("abcd")}
    records = [_encode(rule, ids) for rule in rules]
    kept, dropped = filter_redundant(records)
    oracle_kept, oracle_dropped = oracle_filter_redundant(rules)
    assert kept == [_encode(rule, ids) for rule in oracle_kept]
    assert set(dropped) == {_encode(rule, ids) for rule in oracle_dropped}


def test_sweep_tests_each_rule_against_survivors_only(monkeypatch):
    """One class of 1,000 rules under a single maximal rule: O(n) subsequence tests."""
    events = tuple(f"e{index}" for index in range(12))
    maximal = _rule(events[:1], events[1:])
    subsequences = (
        tuple(event for bit, event in enumerate(events) if mask >> bit & 1)
        for mask in range(1, 1 << len(events))
    )
    others = []
    for concatenation in subsequences:
        for split in range(1, len(concatenation)):
            if (concatenation, split) != (events, 1):
                others.append(_rule(concatenation[:split], concatenation[split:]))
    rules = [maximal] + random.Random(0).sample(others, 999)
    random.Random(1).shuffle(rules)

    calls = []

    def counting(candidate, container):
        calls.append(1)
        return is_subsequence(candidate, container)

    for module in (redundancy, rule_module):
        monkeypatch.setattr(module, "is_subsequence", counting, raising=False)
    kept, dropped = filter_redundant(rules)
    assert kept == [maximal]
    assert len(dropped) == len(rules) - 1
    assert 0 < len(calls) <= 2 * len(rules)


# --------------------------------------------------------------------- #
# Mined output ≡ the full rule set through the pairwise oracle
# --------------------------------------------------------------------- #
traces_strategy = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=10), min_size=1, max_size=6
)
config_strategy = st.builds(
    RuleMiningConfig,
    min_s_support=st.integers(min_value=1, max_value=3),
    min_i_support=st.integers(min_value=1, max_value=3),
    min_confidence=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
    max_premise_length=st.sampled_from([None, 1, 2]),
    max_consequent_length=st.sampled_from([None, 1, 2, 3]),
)


def _oracle_non_redundant(database, config):
    full = FullRecurrentRuleMiner(config).mine(database)
    return oracle_filter_redundant(full.rules)[0]


@given(traces=traces_strategy, config=config_strategy)
@settings(max_examples=80, deadline=None)
def test_cold_non_redundant_mine_matches_oracle_filtered_full(traces, config):
    database = SequenceDatabase.from_sequences(traces)
    mined = NonRedundantRecurrentRuleMiner(config).mine(database)
    assert mined.rules == _oracle_non_redundant(database, config)


@given(
    batches=st.lists(traces_strategy, min_size=1, max_size=3),
    config=config_strategy,
)
@settings(max_examples=30, deadline=None)
def test_incremental_refresh_matches_oracle_filtered_full(batches, config):
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp + "/store")
        incremental = IncrementalMiner(NonRedundantRecurrentRuleMiner(config), store)
        for batch in batches:
            store.append_batch(batch)
            result, _ = incremental.refresh()
            assert result.rules == _oracle_non_redundant(store.snapshot(), config)
