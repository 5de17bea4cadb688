"""Parallel mining engine over work units.

The engine runs a miner's depth-first search as ``(kind, split-path)``
work units seeded from its independent first-level roots (singleton
patterns, single-event premises).  Every :class:`ExecutionBackend` runs
the same protocol: one worker executes the units in process, more workers
share them through a crash-recovering coordinator that splits hot
subtrees on demand.  Outcomes merge deterministically, so parallel results
are bit-identical to the serial ones.  See :mod:`repro.engine.stealing`
for the splitting and recovery argument and :mod:`repro.engine.runner`
for the miner protocol.

Typical use::

    from repro import SequenceDatabase, mine_closed_patterns
    from repro.engine import ProcessPoolBackend

    result = mine_closed_patterns(db, min_support=3,
                                  backend=ProcessPoolBackend(workers=4))
"""

from .backend import (
    BACKEND_CHOICES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    WorkStealingBackend,
    plan_shards,
    resolve_backend,
)
from .runner import LazyIndexContext, ShardRunner, plan_weighted_roots
from .sharding import PlanResult, UnitOutcome, WorkUnit
from .stealing import DEFAULT_SPLIT_DEPTH, StealSplitter

__all__ = [
    "BACKEND_CHOICES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "WorkStealingBackend",
    "plan_shards",
    "resolve_backend",
    "LazyIndexContext",
    "ShardRunner",
    "plan_weighted_roots",
    "PlanResult",
    "UnitOutcome",
    "WorkUnit",
    "DEFAULT_SPLIT_DEPTH",
    "StealSplitter",
]
