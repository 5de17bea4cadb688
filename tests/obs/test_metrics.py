"""Unit tests for the metrics registry: families, rendering, snapshots."""

import bisect
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestFamilies:
    def test_counter_accumulates_per_label(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labels=("op",))
        counter.inc(op="a")
        counter.inc(2, op="a")
        counter.inc(op="b")
        assert counter.value(op="a") == 3
        assert counter.value(op="b") == 1
        assert counter.value(op="absent") == 0

    def test_gauge_set_keeps_the_latest_level(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value() == 2

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        counts, total, count = histogram.sample()
        assert counts == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert total == pytest.approx(6.05)
        assert count == 4

    def test_histogram_add_matches_observing_each_value(self):
        registry = MetricsRegistry()
        observed = registry.histogram("o_seconds", buckets=(0.1, 1.0))
        added = registry.histogram("a_seconds", buckets=(0.1, 1.0))
        for value in (0.0625, 0.5, 0.5, 5.0):
            observed.observe(value)
        added.add([1, 0, 0], 0.0625)
        added.add([0, 2, 1], 6.0)
        added.add([0, 0, 0], 0.0)
        assert added.sample() == observed.sample()

    def test_wrong_labels_raise(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("op",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.inc(op="a", extra="b")

    def test_redeclaration_idempotent_conflict_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("name_total", "help", labels=("a",))
        assert registry.counter("name_total", "help", labels=("a",)) is counter
        with pytest.raises(ValueError):
            registry.gauge("name_total")
        with pytest.raises(ValueError):
            registry.counter("name_total", labels=("b",))
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        assert registry.histogram("h", buckets=(1.0, 2.0)) is histogram
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_bucket_bounds_validated_at_declaration(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("empty", buckets=())
        with pytest.raises(ValueError, match="positive"):
            registry.histogram("neg", buckets=(-1.0, 2.0))
        with pytest.raises(ValueError, match="positive"):
            registry.histogram("zero", buckets=(0.0, 2.0))
        with pytest.raises(ValueError, match="sorted strictly ascending"):
            registry.histogram("unsorted", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="sorted strictly ascending"):
            registry.histogram("dup", buckets=(1.0, 1.0))
        # Each family picks its own scale at declaration time.
        fine = registry.histogram("fine_seconds", buckets=obs_metrics.SERVING_BUCKETS)
        coarse = registry.histogram("coarse_seconds", buckets=obs_metrics.UNIT_BUCKETS)
        assert fine.buckets[0] < DEFAULT_BUCKETS[0] < coarse.buckets[-1]
        assert coarse.buckets[-1] > DEFAULT_BUCKETS[-1]

    def test_muted_records_are_dropped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        histogram = registry.histogram("h_seconds")
        obs_metrics.set_enabled(False)
        try:
            counter.inc()
            histogram.observe(0.5)
            histogram.add([1] * (len(histogram.buckets) + 1), 1.0)
        finally:
            obs_metrics.set_enabled(True)
        assert counter.value() == 0
        assert histogram.sample()[2] == 0
        counter.inc()
        assert counter.value() == 1


class TestRenderText:
    def test_prometheus_shape(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", labels=("op",)).inc(2, op="PING")
        registry.gauge("depth", "Depth.").set(3)
        registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render_text()
        assert "# HELP req_total Requests.\n# TYPE req_total counter" in text
        assert 'req_total{op="PING"} 2' in text
        assert "# TYPE depth gauge" in text and "depth 3" in text
        # Cumulative buckets plus the implicit +Inf, then sum and count.
        assert 'lat_seconds_bucket{le="0.1"} 0' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text

    def test_declared_but_empty_family_still_renders_header(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total", "Never incremented.")
        text = registry.render_text()
        assert "# HELP quiet_total Never incremented." in text
        assert "# TYPE quiet_total counter" in text

    def test_global_registry_exposes_whole_catalogue(self):
        # Importing the module declares every family: a scrape of a serve
        # box shows engine, pool, server and durability families even
        # before any of them recorded (the acceptance criterion).
        text = obs_metrics.REGISTRY.render_text()
        for name in (
            "repro_engine_unit_seconds",
            "repro_mining_counter_total",
            "repro_pool_queue_depth",
            "repro_server_request_seconds",
            "repro_daemon_cycle_seconds",
            "repro_durability_journal_appends_total",
        ):
            assert f"# TYPE {name}" in text


class TestSnapshotMerge:
    """Snapshots, and deltas added through the plain write calls."""

    def _delta(self, op_counts, observations):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "Ops.", labels=("op",))
        histogram = registry.histogram("dur_seconds", "Durations.")
        gauge = registry.gauge("level", "Level.")
        for op, amount in op_counts:
            counter.inc(amount, op=op)
        for value in observations:
            histogram.observe(value)
        if observations:
            gauge.set(max(observations))
        return registry.snapshot()

    @staticmethod
    def _record_delta(registry, op_counts, observations):
        """Add one delta the way the serving pool records tally growth:
        counter increments and pre-bucketed histogram counts."""
        counter = registry.counter("ops_total", "Ops.", labels=("op",))
        histogram = registry.histogram("dur_seconds", "Durations.")
        for op, amount in op_counts:
            counter.inc(amount, op=op)
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        for value in observations:
            counts[bisect.bisect_left(DEFAULT_BUCKETS, value)] += 1
        histogram.add(counts, sum(observations))

    def test_snapshot_is_picklable_and_deterministic(self):
        delta = self._delta([("a", 2), ("b", 1)], [0.1, 0.2])
        assert pickle.loads(pickle.dumps(delta)) == delta
        again = self._delta([("b", 1), ("a", 2)], [0.2, 0.1])
        assert again == delta

    @given(
        deltas=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.sampled_from("abc"), st.integers(1, 5)), max_size=4
                ),
                # Dyadic values: histogram sums stay exact in any merge
                # order, so snapshot equality is bitwise.
                st.lists(st.integers(1, 512).map(lambda n: n / 64.0), max_size=4),
            ),
            min_size=1,
            max_size=5,
        ),
        seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_is_permutation_invariant(self, deltas, seed):
        """Adding deltas in any order records identically."""
        shuffled = list(deltas)
        seed.shuffle(shuffled)
        ordered, permuted = MetricsRegistry(), MetricsRegistry()
        for ops, observations in deltas:
            self._record_delta(ordered, ops, observations)
        for ops, observations in shuffled:
            self._record_delta(permuted, ops, observations)
        assert ordered.snapshot() == permuted.snapshot()
        assert ordered.render_text() == permuted.render_text()

    def test_merged_deltas_equal_direct_recording(self):
        """One registry recording everything == many deltas added."""
        direct = MetricsRegistry()
        counter = direct.counter("ops_total", "Ops.", labels=("op",))
        histogram = direct.histogram("dur_seconds", "Durations.")
        merged = MetricsRegistry()
        for op, value in [("a", 0.01), ("b", 0.2), ("a", 3.0)]:
            counter.inc(op=op)
            histogram.observe(value)
            self._record_delta(merged, [(op, 1)], [value])
        assert merged.snapshot() == direct.snapshot()

    def test_default_buckets_are_sorted_and_nontrivial(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(DEFAULT_BUCKETS) >= 8
