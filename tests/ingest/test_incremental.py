"""Incremental mining parity: delta re-mines must be invisible in the output.

The contract of :class:`IncrementalMiner` is the same as the engine's: how
the result was computed (from scratch, or by re-mining only the touched
roots and merging cached records) must not be observable.  The hypothesis
suite drives random databases and random append batches through refresh
after refresh, comparing every intermediate result against a from-scratch
mine of the store's snapshot — for full patterns, closed patterns and both
rule miners, on the serial and process-pool backends, with and without
eager splitting.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ProcessPoolBackend
from repro.ingest import IncrementalMiner, TraceStore
from repro.patterns.closed_miner import ClosedIterativePatternMiner, mine_closed_patterns
from repro.patterns.config import IterativeMiningConfig
from repro.patterns.full_miner import FullIterativePatternMiner, mine_frequent_patterns
from repro.rules.config import RuleMiningConfig
from repro.rules.full_miner import FullRecurrentRuleMiner, mine_all_rules
from repro.rules.nonredundant_miner import (
    NonRedundantRecurrentRuleMiner,
    mine_non_redundant_rules,
)

trace_strategy = st.lists(
    st.integers(min_value=0, max_value=4).map(str), min_size=1, max_size=10
)
batches_strategy = st.lists(
    st.lists(trace_strategy, min_size=1, max_size=4), min_size=1, max_size=4
)


def _check_parity(batches, miner, full_miner_fn, result_attr, backend=None):
    """Append batch by batch; every refresh must match a from-scratch mine."""
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp + "/store")
        incremental = IncrementalMiner(miner, store, backend=backend)
        for batch in batches:
            store.append_batch(batch)
            result, report = incremental.refresh()
            full = full_miner_fn(store.snapshot())
            assert getattr(result, result_attr) == getattr(full, result_attr)
            assert report.traces_total == len(store)


# --------------------------------------------------------------------- #
# Serial backend: cheap enough to run on every example.
# --------------------------------------------------------------------- #
@given(batches=batches_strategy)
@settings(max_examples=40, deadline=None)
def test_incremental_closed_patterns_match_full(batches):
    _check_parity(
        batches,
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)),
        lambda db: mine_closed_patterns(db, min_support=2),
        "patterns",
    )


@given(batches=batches_strategy)
@settings(max_examples=30, deadline=None)
def test_incremental_full_patterns_match_full(batches):
    _check_parity(
        batches,
        FullIterativePatternMiner(IterativeMiningConfig(min_support=2)),
        lambda db: mine_frequent_patterns(db, min_support=2),
        "patterns",
    )


@given(batches=batches_strategy)
@settings(max_examples=30, deadline=None)
def test_incremental_nonredundant_rules_match_full(batches):
    _check_parity(
        batches,
        NonRedundantRecurrentRuleMiner(
            RuleMiningConfig(min_s_support=2, min_confidence=0.5)
        ),
        lambda db: mine_non_redundant_rules(db, min_s_support=2, min_confidence=0.5),
        "rules",
    )


@given(batches=batches_strategy)
@settings(max_examples=20, deadline=None)
def test_incremental_all_rules_match_full(batches):
    _check_parity(
        batches,
        FullRecurrentRuleMiner(RuleMiningConfig(min_s_support=2, min_confidence=0.5)),
        lambda db: mine_all_rules(db, min_s_support=2, min_confidence=0.5),
        "rules",
    )


@given(batches=batches_strategy)
@settings(max_examples=20, deadline=None)
def test_incremental_with_relative_threshold(batches):
    """Relative thresholds move with the database size and force full re-mines."""
    _check_parity(
        batches,
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=0.6)),
        lambda db: mine_closed_patterns(db, min_support=0.6),
        "patterns",
    )


@given(batches=batches_strategy)
@settings(max_examples=15, deadline=None)
def test_incremental_with_collected_instances(batches):
    _check_parity(
        batches,
        ClosedIterativePatternMiner(
            IterativeMiningConfig(min_support=2, collect_instances=True)
        ),
        lambda db: mine_closed_patterns(db, min_support=2, collect_instances=True),
        "patterns",
    )


# --------------------------------------------------------------------- #
# Process backend, in-process eager splitting: every unit boundary
# is exercised without paying for worker processes.
# --------------------------------------------------------------------- #
@given(batches=batches_strategy)
@settings(max_examples=15, deadline=None)
def test_incremental_parity_on_stealing_backend(batches):
    backend = ProcessPoolBackend(workers=1, eager_split=True, split_depth=4)
    _check_parity(
        batches,
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)),
        lambda db: mine_closed_patterns(db, min_support=2),
        "patterns",
        backend=backend,
    )
    _check_parity(
        batches,
        NonRedundantRecurrentRuleMiner(
            RuleMiningConfig(min_s_support=2, min_confidence=0.5)
        ),
        lambda db: mine_non_redundant_rules(db, min_s_support=2, min_confidence=0.5),
        "rules",
        backend=backend,
    )


# --------------------------------------------------------------------- #
# Real process pool: fewer examples (each refresh forks workers).
# --------------------------------------------------------------------- #
@given(batches=st.lists(st.lists(trace_strategy, min_size=1, max_size=3), min_size=2, max_size=2))
@settings(max_examples=3, deadline=None)
def test_incremental_parity_on_process_backend(batches):
    backend = ProcessPoolBackend(workers=2)
    _check_parity(
        batches,
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)),
        lambda db: mine_closed_patterns(db, min_support=2),
        "patterns",
        backend=backend,
    )
    _check_parity(
        batches,
        NonRedundantRecurrentRuleMiner(
            RuleMiningConfig(min_s_support=2, min_confidence=0.5)
        ),
        lambda db: mine_non_redundant_rules(db, min_s_support=2, min_confidence=0.5),
        "rules",
        backend=backend,
    )


# --------------------------------------------------------------------- #
# Deterministic behaviour checks.
# --------------------------------------------------------------------- #
def _skewed_store(tmp):
    """A base corpus over a wide alphabet plus an append touching few roots."""
    store = TraceStore(tmp + "/store")
    base = []
    for repeat in range(3):
        for letter in "abcdefgh":
            base.append([letter, "x", letter, "x"])
    store.append_batch(base)
    return store


def test_skewed_append_remines_strictly_fewer_roots(tmp_path):
    store = _skewed_store(str(tmp_path))
    miner = IncrementalMiner(
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)), store
    )
    _, first = miner.refresh()
    assert first.full_remine and first.roots_remined == first.roots_total

    store.append_batch([["a", "x", "a"], ["a", "a"]])
    result, report = miner.refresh()
    assert not report.full_remine
    assert 0 < report.roots_remined < report.roots_total
    full = mine_closed_patterns(store.snapshot(), min_support=2)
    assert result.patterns == full.patterns


def test_refresh_without_new_batches_remines_nothing(tmp_path):
    store = _skewed_store(str(tmp_path))
    miner = IncrementalMiner(
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)), store
    )
    first_result, first_report = miner.refresh()
    second_result, report = miner.refresh()
    assert report.roots_remined == 0
    assert report.roots_total == first_report.roots_total
    assert report.traces_added == 0
    assert not report.full_remine
    assert second_result.patterns == first_result.patterns


def test_noop_refresh_never_touches_the_backend(tmp_path):
    """A polling caller with nothing dirty must not pay for the engine."""

    class ExplodingBackend:
        def execute(self, runner):
            raise AssertionError("backend used for a no-op refresh")

    store = _skewed_store(str(tmp_path))
    miner = IncrementalMiner(
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)), store
    )
    first_result, _ = miner.refresh()
    result, report = miner.refresh(backend=ExplodingBackend())
    assert report.roots_remined == 0
    assert result.patterns == first_result.patterns


def test_relative_threshold_move_reports_full_remine(tmp_path):
    store = TraceStore(str(tmp_path / "store"))
    store.append_batch([["a", "b"], ["a", "b"]])
    miner = IncrementalMiner(
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=0.5)), store
    )
    miner.refresh()
    store.append_batch([["c"], ["c"]])  # database doubles; threshold 1 -> 2
    _, report = miner.refresh()
    assert report.full_remine
    assert "threshold" in report.reason


def test_new_premise_filter_labels_force_full_remine(tmp_path):
    store = TraceStore(str(tmp_path / "store"))
    store.append_batch([["a", "b"], ["a", "b"]])
    config = RuleMiningConfig(
        min_s_support=2, min_confidence=0.5, allowed_premise_events=frozenset({"a", "z"})
    )
    miner = IncrementalMiner(NonRedundantRecurrentRuleMiner(config), store)
    miner.refresh()
    store.append_batch([["z", "b"], ["z", "b"]])  # "z" now resolves to an id
    result, report = miner.refresh()
    assert report.full_remine
    full = mine_non_redundant_rules(
        store.snapshot(),
        min_s_support=2,
        min_confidence=0.5,
        allowed_premise_events=frozenset({"a", "z"}),
    )
    assert result.rules == full.rules


def test_incremental_miner_rejects_non_protocol_miners(tmp_path):
    from repro.core.errors import ConfigurationError
    import pytest

    store = TraceStore(str(tmp_path / "store"))
    with pytest.raises(ConfigurationError, match="incremental mining protocol"):
        IncrementalMiner(object(), store)


def test_failed_refresh_keeps_roots_dirty_for_the_retry(tmp_path):
    """A refresh that dies mid-mine must not mark its batches as mined."""

    class ExplodingBackend:
        def execute(self, runner):
            raise RuntimeError("worker lost")

    store = _skewed_store(str(tmp_path))
    miner = IncrementalMiner(
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)), store
    )
    miner.refresh()
    store.append_batch([["a", "x", "a"], ["a", "a"]])
    try:
        miner.refresh(backend=ExplodingBackend())
    except RuntimeError:
        pass
    result, report = miner.refresh()  # retry on the default serial backend
    assert report.roots_remined > 0
    full = mine_closed_patterns(store.snapshot(), min_support=2)
    assert result.patterns == full.patterns


def test_live_index_is_extended_not_rebuilt(tmp_path):
    """The kept-alive context's PositionIndex grows in place across appends."""
    store = _skewed_store(str(tmp_path))
    miner = IncrementalMiner(
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)), store
    )
    miner.refresh()
    context = miner._context
    index_before = context._index
    assert index_before is not None
    store.append_batch([["a", "x"]])
    miner.refresh()
    assert miner._context is context
    assert context._index is index_before
    assert len(index_before) == len(store)


@pytest.mark.parametrize("backend", [None, ProcessPoolBackend(workers=2)])
def test_append_that_lifts_a_dropped_event_rebuilds_the_view(tmp_path, backend):
    """The view drops "z" (one occurrence, threshold 2) until an append
    brings its second occurrence: then it must be rebuilt with "z" back in
    the old sequences, and the refresh still equals a full re-mine,
    instances included, while untouched roots keep their cached records."""
    store = _skewed_store(str(tmp_path))
    store.append_batch([["a", "z", "x", "b"]])
    config = IterativeMiningConfig(min_support=2, collect_instances=True)
    miner = IncrementalMiner(ClosedIterativePatternMiner(config), store, backend=backend)
    miner.refresh()
    z = store.vocabulary.id_of("z")
    assert all(z not in sequence for sequence in miner._context.encoded)

    store.append_batch([["z", "x", "a"]])
    result, report = miner.refresh()
    assert not report.full_remine
    assert 0 < report.roots_remined < report.roots_total
    assert any(z in sequence for sequence in miner._context.encoded)
    full = mine_closed_patterns(store.snapshot(), min_support=2, collect_instances=True)
    assert result.patterns == full.patterns
    assert ("z", "x") in {p.events for p in result.patterns}
