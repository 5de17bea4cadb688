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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "backend": (
            "BACKEND_CHOICES",
            "ExecutionBackend",
            "ProcessPoolBackend",
            "SerialBackend",
            "plan_shards",
            "resolve_backend",
        ),
        "runner": ("SearchContext", "SearchMinerBase", "ShardRunner", "plan_weighted_roots"),
        "sharding": ("UnitOutcome", "WorkUnit"),
        "stealing": ("DEFAULT_SPLIT_DEPTH", "StealSplitter"),
    },
)
