"""Execution backends: where and how the mining search actually runs.

Every backend runs the same protocol.  The miner plans one seed
:class:`~repro.engine.sharding.WorkUnit` per frequent first-level root,
:func:`plan_shards` orders the seeds heaviest first, and the units run
either in the current process (one worker) or on the crash-recovering
work-stealing coordinator of :mod:`repro.engine.stealing` (more than one
worker).  Completed outcomes are journaled to an armed checkpoint, and the
miner's ``resolve_units`` reassembles them by sorted record key, so every
backend produces bit-identical mining results; parallelism only changes
wall-clock time.

The backend classes differ only in their name (the ``backend`` label of
``repro_engine_runs_total``) and their default worker count:

* :class:`SerialBackend` — one worker, in process; nothing ever splits.
  The default and the reference semantics.
* :class:`ProcessPoolBackend` — one worker process per CPU by default.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.stats import MiningStats
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .sharding import WorkUnit
from .stealing import (
    DEFAULT_SPLIT_DEPTH,
    DEFAULT_UNIT_RETRIES,
    _run_units_in_process,
    _run_units_with_processes,
)

if TYPE_CHECKING:
    from .runner import ShardRunner


# Named for the benchmark tracer (perfbench/tracer.py), which patches it.
def plan_shards(units: Sequence[WorkUnit]) -> List[WorkUnit]:
    """Order the seed units for dispatch: heaviest first.

    Big subtrees enter the queue early and get the whole run to subdivide.
    Ties break on root and path, so the order is a pure function of the
    plan, never of execution timing.
    """
    return sorted(units, key=lambda unit: (-unit.cost_hint, unit.root, unit.path))


class ExecutionBackend:
    """Run a miner's search as ``(kind, split-path)`` work units.

    With one worker the units run on a local queue in this process and
    nothing splits unless ``eager_split`` forces it (the deterministic
    stress mode the parity tests drive).  With more workers a coordinator
    hands units to worker processes one at a time; hungry workers split
    their frontier nodes at most ``split_depth`` deep into new units.

    ``unit_retries`` is the crash-recovery budget: how many times a unit
    whose worker died is replayed before the run fails with a poison-unit
    diagnostic.  ``unit_deadline`` (seconds, default off) terminates any
    worker that holds one unit longer than the deadline and replays the
    unit with forced eager splitting.
    """

    name = "abstract"

    #: Worker count used when none is given; ``None`` means one per CPU.
    default_workers: Optional[int] = None

    #: Optional :class:`~repro.durability.checkpoint.MiningCheckpoint`.
    #: When set, every completed work unit is journaled as it lands, and
    #: ``execute`` reuses the outcomes already journaled by a previous
    #: (crashed) run instead of re-mining them.  Soundness: outcomes are
    #: pure functions of the database and configuration the checkpoint
    #: identity pins, and the merge is deterministic, so a resumed run is
    #: byte-identical to an uninterrupted one.
    checkpoint = None

    def __init__(
        self,
        workers: Optional[int] = None,
        split_depth: int = DEFAULT_SPLIT_DEPTH,
        eager_split: bool = False,
        unit_retries: int = DEFAULT_UNIT_RETRIES,
        unit_deadline: Optional[float] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
        if split_depth < 1:
            raise ConfigurationError(f"split_depth must be >= 1, got {split_depth!r}")
        if unit_retries < 0:
            raise ConfigurationError(f"unit_retries must be >= 0, got {unit_retries!r}")
        if unit_deadline is not None and unit_deadline <= 0:
            raise ConfigurationError(
                f"unit_deadline must be positive, got {unit_deadline!r}"
            )
        if workers is None:
            workers = self.default_workers or os.cpu_count() or 1
        self.workers = workers
        self.split_depth = split_depth
        self.eager_split = eager_split
        self.unit_retries = unit_retries
        self.unit_deadline = unit_deadline

    def execute(self, runner: ShardRunner) -> Tuple[List[Any], MiningStats]:
        """Run the whole search and publish the run's observability data.

        This wrapper owns the single per-run touch point with
        :mod:`repro.obs` — the span around the run and the one-shot mirror
        of the final merged ``MiningStats`` onto registry counters.
        Mirroring here, after every unit's stats merged, is what keeps the
        registry free of double counting.
        """
        with tracing.span("engine.execute", backend=self.name):
            records, stats = self._execute(runner)
        obs_metrics.record_mining_stats(stats, self.name)
        return records, stats

    def _execute(self, runner: ShardRunner) -> Tuple[List[Any], MiningStats]:
        """Plan, execute and merge the search; return (records, counters)."""
        seeds, pruned_support = runner.plan_units()
        units = plan_shards(seeds)
        stats = MiningStats()
        stats.pruned_support += pruned_support
        if not units:
            return [], stats
        cached: List[Any] = []
        if self.checkpoint is not None:
            # Reuse whatever a previous (crashed) run journaled under the
            # same identity; only the remainder is dispatched.  Unit
            # outcomes are plan-independent, so this is sound even when
            # the resumed plan differs from the crashed one.
            cached, units = self.checkpoint.plan_resume(units)
            if cached:
                stats.bump("units_resumed", len(cached))
        if not units:
            outcomes = []
        elif self.workers <= 1:
            outcomes = _run_units_in_process(runner, units, self)
        else:
            outcomes = _run_units_with_processes(runner, units, self, stats)
        # Only freshly executed outcomes donate spans and unit timings:
        # journal-resumed ones were recorded by the run that journaled them.
        tracing.absorb_outcome_spans(outcomes)
        if obs_metrics.ENABLED:
            for outcome in outcomes:
                obs_metrics.ENGINE_UNIT_SECONDS.observe(outcome.seconds, kind=outcome.unit.kind)
                obs_metrics.ENGINE_UNITS_TOTAL.inc(kind=outcome.unit.kind)
        outcomes = cached + outcomes
        for outcome in outcomes:
            stats.merge_counters(outcome.stats)
        return runner.miner.resolve_units(outcomes), stats

    def describe(self) -> str:
        """Short human-readable form used by the CLI and benchmarks."""
        details = [f"workers={self.workers}"] if self.workers > 1 else []
        if self.split_depth != DEFAULT_SPLIT_DEPTH:
            details.append(f"split_depth={self.split_depth}")
        if self.eager_split:
            details.append("eager")
        return f"{self.name}[{', '.join(details)}]" if details else self.name


class SerialBackend(ExecutionBackend):
    """One in-process worker: the reference semantics."""

    name = "serial"
    default_workers = 1


class ProcessPoolBackend(ExecutionBackend):
    """Worker processes, one per CPU unless ``workers`` says otherwise."""

    name = "process"


def resolve_backend(
    name: Optional[str] = None,
    workers: Optional[int] = None,
    split_depth: Optional[int] = None,
) -> ExecutionBackend:
    """Build a backend from CLI-style ``--backend`` / ``--workers`` values.

    ``name=None`` (or ``"auto"``) picks the process backend whenever more
    than one worker is requested and the serial backend otherwise, so plain
    ``--workers 4`` is enough to go parallel.  Asking for the serial
    backend *and* multiple workers is contradictory and rejected rather
    than silently ignoring the worker count; likewise ``split_depth``
    means nothing to the serial backend, which never splits.
    """
    if name is None or name == "auto":
        name = "process" if workers is not None and workers > 1 else "serial"
    if name == "serial":
        if workers is not None and workers > 1:
            raise ConfigurationError(
                f"the serial backend runs one process; drop --workers {workers} "
                "or use the 'process' backend"
            )
        if split_depth is not None:
            raise ConfigurationError(
                "--split-depth needs more than one worker; the serial backend never splits"
            )
        return SerialBackend()
    if name != "process":
        raise ConfigurationError(
            f"unknown execution backend {name!r} "
            "(expected 'serial', 'process' or 'auto')"
        )
    return ProcessPoolBackend(
        workers=workers,
        split_depth=split_depth if split_depth is not None else DEFAULT_SPLIT_DEPTH,
    )


#: Backend names accepted by :func:`resolve_backend` (CLI choices).
BACKEND_CHOICES = ("auto", "serial", "process")
