"""Registry merge determinism across execution backends.

The engine's workers record their measurements into throwaway delta
registries shipped inside each :class:`UnitOutcome` and merged exactly
once by the coordinator.  These tests pin the resulting contract: whatever
the backend — single process, split units, worker processes — the merged
registry equals what a single-process run records,
and internal accounting (histogram counts vs. counters vs. ``MiningStats``)
always reconciles, proving every delta arrived exactly once.
"""

from hypothesis import given, settings, strategies as st

from repro.core.sequence import SequenceDatabase
from repro.engine import ProcessPoolBackend, SerialBackend, WorkStealingBackend
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    ENGINE_UNIT_SECONDS,
    ENGINE_UNITS_TOTAL,
    MINING_COUNTER_TOTAL,
    MINING_EXTRA_TOTAL,
    REGISTRY,
)
from repro.patterns.closed_miner import mine_closed_patterns

sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=4).map(str), min_size=1, max_size=12),
    min_size=1,
    max_size=5,
)

#: The deterministic slice of the mirror: search-shape counters are a pure
#: function of the database, never of scheduling.
SEARCH_COUNTERS = ("visited", "emitted", "pruned_support", "pruned_closure")


def _mine_and_scrape(database, backend=None):
    """Run one mine against a zeroed global registry; return its mirror."""
    REGISTRY.reset()
    result = mine_closed_patterns(database, min_support=2, backend=backend)
    mirror = {
        name: MINING_COUNTER_TOTAL.value(name=name) for name in SEARCH_COUNTERS
    }
    return result, mirror


def _units_recorded():
    """(unit counter total, unit histogram count total) across kinds."""
    snapshot = REGISTRY.snapshot()
    counted = sum(value for _, value in snapshot[ENGINE_UNITS_TOTAL.name]["samples"])
    observed = sum(sample[3] for sample in snapshot[ENGINE_UNIT_SECONDS.name]["samples"])
    return counted, observed


@given(sequences=sequences_strategy, split_depth=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_sharded_serial_mirror_matches_single_process(sequences, split_depth):
    """Eager in-process splitting records what the unsplit serial run does."""
    database = SequenceDatabase.from_sequences(sequences)
    _, single = _mine_and_scrape(database)
    backend = SerialBackend(eager_split=True, split_depth=split_depth)
    result, split = _mine_and_scrape(database, backend)
    assert split == single
    for name in SEARCH_COUNTERS:
        assert split[name] == getattr(result.stats, name)
    # Every unit's delta arrived exactly once: the per-unit histogram and
    # the unit counter agree (zero units only when nothing was frequent).
    units, observed = _units_recorded()
    assert observed == units
    if result.stats.visited:
        assert units >= 1


@given(sequences=sequences_strategy)
@settings(max_examples=4, deadline=None)
def test_process_pool_deltas_merge_like_single_process(sequences):
    """Worker registries crossing the pickle boundary merge losslessly."""
    database = SequenceDatabase.from_sequences(sequences)
    _, single = _mine_and_scrape(database)
    result, pooled = _mine_and_scrape(database, ProcessPoolBackend(workers=2))
    assert pooled == single
    for name in SEARCH_COUNTERS:
        assert pooled[name] == getattr(result.stats, name)
    units, observed = _units_recorded()
    assert observed == units
    if result.stats.visited:
        assert units >= 1


def test_stealing_deltas_reconcile_with_stats():
    """Worker-process unit deltas arrive exactly once, split or not.

    Unit *counts* are scheduling-dependent (splits happen when workers go
    hungry), so the invariant pinned here is reconciliation: the mirror
    equals this run's own merged ``MiningStats``, and the per-unit
    histogram sums to the unit counters across every kind.
    """
    database = SequenceDatabase.from_sequences(
        [["a", "b", "c", "a", "b", "c"], ["a", "b", "a", "c"], ["b", "c", "a", "b"]] * 3
    )
    REGISTRY.reset()
    backend = WorkStealingBackend(workers=2, eager_split=True, split_depth=4)
    result = mine_closed_patterns(database, min_support=2, backend=backend)
    for name in SEARCH_COUNTERS:
        assert MINING_COUNTER_TOTAL.value(name=name) == getattr(result.stats, name)
    for key, value in result.stats.extra.items():
        assert MINING_EXTRA_TOTAL.value(key=key) == value
    snapshot = REGISTRY.snapshot()
    unit_samples = snapshot[ENGINE_UNITS_TOTAL.name]["samples"]
    units_by_kind = {key[0]: value for key, value in ((tuple(k), v) for k, v in unit_samples)}
    assert sum(units_by_kind.values()) >= 1
    for (kind,), counts, _, count in snapshot[ENGINE_UNIT_SECONDS.name]["samples"]:
        assert count == units_by_kind[kind]
        assert sum(counts) == count


def test_muted_runs_ship_no_deltas():
    database = SequenceDatabase.from_sequences([["a", "b"], ["a", "b"]])
    REGISTRY.reset()
    obs_metrics.set_enabled(False)
    try:
        mine_closed_patterns(database, min_support=2, backend=SerialBackend())
    finally:
        obs_metrics.set_enabled(True)
    assert _units_recorded() == (0, 0)
    assert MINING_COUNTER_TOTAL.value(name="visited") == 0


# --------------------------------------------------------------------- #
# Scrapes racing merges: a render must always be a consistent exposition.
# --------------------------------------------------------------------- #
_BUCKETS = (0.01, 0.1, 1.0)

observations_strategy = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["open", "close", "swap"]),
            st.integers(min_value=1, max_value=5),
            st.floats(min_value=0.001, max_value=2.0),
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=2,
    max_size=12,
)


def _delta_snapshot(observations):
    """What a worker ships: a throwaway registry's snapshot."""
    delta = obs_metrics.MetricsRegistry()
    ops = delta.counter("race_ops_total", "ops", labels=("op",))
    seconds = delta.histogram("race_seconds", "dur", labels=("op",), buckets=_BUCKETS)
    for op, amount, duration in observations:
        ops.inc(amount, op=op)
        seconds.observe(duration, op=op)
    return delta.snapshot()


def _assert_consistent_exposition(text):
    """Every scrape, mid-merge or not, is a well-formed, self-consistent
    exposition: numeric samples, monotone cumulative buckets, and +Inf /
    _count / raw-increment agreement within every histogram series."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        assert name and " " not in value, f"malformed sample line: {line!r}"
        series[name] = float(value)
    for op in ("open", "close", "swap"):
        bounds = [f'{bound:g}' for bound in _BUCKETS]
        cumulative = [
            series.get(f'race_seconds_bucket{{op="{op}",le="{b}"}}', 0.0) for b in bounds
        ]
        assert cumulative == sorted(cumulative), f"buckets not monotone for {op}"
        inf = series.get(f'race_seconds_bucket{{op="{op}",le="+Inf"}}', 0.0)
        count = series.get(f'race_seconds_count{{op="{op}"}}', 0.0)
        assert inf == count
        assert cumulative[-1] <= count if cumulative else True
    return series


@given(rounds=observations_strategy)
@settings(max_examples=15, deadline=None)
def test_concurrent_scrapes_race_delta_merges(rounds):
    """METRICS scrapes interleaving worker-delta merges stay consistent.

    One thread folds worker deltas into a shared registry (the coordinator
    path) while the main thread scrapes continuously; every intermediate
    exposition must parse and satisfy the per-family invariants, and the
    final totals must equal the exact sums — every delta exactly once.
    """
    import threading

    registry = obs_metrics.MetricsRegistry()
    registry.counter("race_ops_total", "ops", labels=("op",))
    registry.histogram("race_seconds", "dur", labels=("op",), buckets=_BUCKETS)
    snapshots = [_delta_snapshot(observations) for observations in rounds]

    merged = threading.Event()

    def merge_all():
        for snapshot in snapshots:
            registry.merge(snapshot)
        merged.set()

    merger = threading.Thread(target=merge_all)
    merger.start()
    scrapes = 0
    while not merged.is_set() or scrapes == 0:
        _assert_consistent_exposition(registry.render_text())
        scrapes += 1
    merger.join()

    final = _assert_consistent_exposition(registry.render_text())
    expected_ops = {}
    expected_count = {}
    for observations in rounds:
        for op, amount, _ in observations:
            expected_ops[op] = expected_ops.get(op, 0) + amount
            expected_count[op] = expected_count.get(op, 0) + 1
    for op, total in expected_ops.items():
        assert final[f'race_ops_total{{op="{op}"}}'] == total
        assert final[f'race_seconds_count{{op="{op}"}}'] == expected_count[op]
