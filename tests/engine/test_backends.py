"""Unit tests for the execution backends, the seed plan and the unit merge."""

import os

import pytest

from repro.core.errors import ConfigurationError
from repro.core.stats import MiningStats
from repro.engine import (
    ExecutionBackend,
    PlanResult,
    ProcessPoolBackend,
    SerialBackend,
    ShardRunner,
    UnitOutcome,
    WorkStealingBackend,
    WorkUnit,
    plan_shards,
    resolve_backend,
)
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.patterns.miner_base import PatternRecord


def _seeds(weights):
    return [WorkUnit("grow", root, (root,), weight) for root, weight in weights]


class TestPlanShards:
    def test_empty_roots_yield_no_shards(self):
        assert plan_shards([]) == []

    def test_every_root_assigned_exactly_once(self):
        seeds = _seeds((event, (event * 7) % 13 + 1) for event in range(50))
        planned = plan_shards(seeds)
        assert sorted(unit.root for unit in planned) == list(range(50))

    def test_never_more_shards_than_roots(self):
        assert len(plan_shards(_seeds([(0, 1), (1, 1)]))) == 2

    def test_deterministic_for_same_input(self):
        seeds = _seeds((event, (event * 31) % 7 + 1) for event in range(40))
        assert plan_shards(seeds) == plan_shards(list(reversed(seeds)))

    def test_heavy_roots_spread_across_shards(self):
        # The heavy roots dispatch first, so two workers take one each.
        planned = plan_shards(_seeds([(2, 1), (0, 100), (3, 1), (1, 100)]))
        assert [unit.root for unit in planned] == [0, 1, 2, 3]


class _CountingMiner:
    """A stand-in miner: each root's unit visits ``root + 1`` nodes."""

    def build_context(self, encoded, extras):
        return None

    def plan_roots(self, context):
        return PlanResult(((0, 1), (1, 5), (2, 3)), pruned_support=4)

    def initial_units(self, context, plan):
        return _seeds(plan.roots)

    def mine_unit(self, context, unit, stats, splitter):
        stats.visited += unit.root + 1
        return [unit.root]

    def resolve_units(self, outcomes):
        return sorted(record for outcome in outcomes for record in outcome.records)


class TestMergeOutcomes:
    def _outcome(self, root, patterns):
        records = tuple(PatternRecord(pattern, 2, None) for pattern in patterns)
        return UnitOutcome(WorkUnit("grow", root, (root,)), records, MiningStats())

    def test_records_ordered_by_root_regardless_of_shard_order(self):
        miner = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2))
        outcomes = [
            self._outcome(3, [(3,), (3, 5)]),
            self._outcome(0, [(0,), (0, 4)]),
            self._outcome(1, [(1,)]),
        ]
        records = miner.resolve_units(outcomes)
        assert [record.pattern for record in records] == [(0,), (0, 4), (1,), (3,), (3, 5)]
        # Order must not depend on completion order either.
        assert miner.resolve_units(list(reversed(outcomes))) == records

    def test_stats_counters_are_summed(self):
        records, stats = SerialBackend().execute(ShardRunner(_CountingMiner(), []))
        assert records == [0, 1, 2]
        assert stats.visited == 1 + 2 + 3
        assert stats.pruned_support == 4


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(), SerialBackend)
        assert isinstance(resolve_backend("auto"), SerialBackend)
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)

    def test_auto_with_workers_is_process(self):
        backend = resolve_backend(None, workers=4)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 4

    def test_explicit_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process", workers=2), ProcessPoolBackend)

    def test_process_accepts_a_split_depth(self):
        backend = resolve_backend("process", workers=2, split_depth=3)
        assert backend.split_depth == 3
        assert resolve_backend("auto", workers=2, split_depth=3).split_depth == 3

    def test_serial_rejects_a_split_depth(self):
        with pytest.raises(ConfigurationError, match="serial"):
            resolve_backend("serial", split_depth=3)
        with pytest.raises(ConfigurationError, match="serial"):
            resolve_backend("auto", split_depth=3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("threads")

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(workers=0)
        with pytest.raises(ConfigurationError):
            SerialBackend(workers=0)

    def test_backends_differ_only_in_name_and_default_workers(self):
        assert SerialBackend().workers == 1
        assert ProcessPoolBackend().workers == (os.cpu_count() or 1)
        for cls in (SerialBackend, ProcessPoolBackend, WorkStealingBackend):
            assert cls._execute is ExecutionBackend._execute
        assert {cls.name for cls in (SerialBackend, ProcessPoolBackend, WorkStealingBackend)} == {
            "serial", "process", "stealing",
        }
