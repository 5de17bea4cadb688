"""Lightweight mining statistics collection.

Every miner in the library carries a :class:`MiningStats` object that counts
how many search-tree nodes were visited, how many were pruned by each
strategy, how many results were emitted and how long the run took.  The
performance benchmarks (Figures 1–3) read these counters to report the same
quantities as the paper (runtime and number of mined patterns / rules), and
the ablation benchmarks use the pruning counters directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class MiningStats:
    """Counters and wall-clock timing for a single mining run."""

    visited: int = 0
    emitted: int = 0
    pruned_support: int = 0
    pruned_confidence: int = 0
    pruned_closure: int = 0
    pruned_redundancy: int = 0
    #: instance-list rows materialised into columnar blocks while growing
    #: patterns — the allocation volume of the projected-database hot loop
    instances_materialized: int = 0
    #: payload bytes of instance blocks packaged into unit outcomes (the
    #: worker-to-coordinator transfer volume on the process backend; counted
    #: identically on the serial backend for comparability)
    shipped_bytes: int = 0
    extra: Dict[str, int] = field(default_factory=dict)
    _started_at: float = field(default=0.0, repr=False)
    elapsed_seconds: float = 0.0

    def start(self) -> None:
        """Start (or restart) the wall-clock timer."""
        self._started_at = time.perf_counter()

    def stop(self) -> None:
        """Stop the timer and accumulate the elapsed wall-clock time."""
        if self._started_at:
            self.elapsed_seconds += time.perf_counter() - self._started_at
            self._started_at = 0.0

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment an ad-hoc named counter stored in :attr:`extra`."""
        self.extra[name] = self.extra.get(name, 0) + amount

    #: fields that are timing state, not mergeable search counters
    _NON_COUNTER_FIELDS = frozenset({"extra", "_started_at", "elapsed_seconds"})

    def merge_counters(self, other: "MiningStats") -> None:
        """Fold another run's search counters into this one.

        Used by the parallel engine to combine per-unit statistics.  The
        counter set is derived from the dataclass fields so future counters
        merge automatically; wall-clock time is excluded because it is
        owned by whoever timed the whole run (summing per-worker clocks
        would double-count overlapping work).
        """
        for spec in fields(self):
            if spec.name in self._NON_COUNTER_FIELDS:
                continue
            setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))
        for name, amount in other.extra.items():
            self.bump(name, amount)

    def as_dict(self) -> Dict[str, float]:
        """A flat dictionary view used by reports and benchmarks."""
        result: Dict[str, float] = {
            "visited": float(self.visited),
            "emitted": float(self.emitted),
            "pruned_support": float(self.pruned_support),
            "pruned_confidence": float(self.pruned_confidence),
            "pruned_closure": float(self.pruned_closure),
            "pruned_redundancy": float(self.pruned_redundancy),
            "instances_materialized": float(self.instances_materialized),
            "shipped_bytes": float(self.shipped_bytes),
            "elapsed_seconds": self.elapsed_seconds,
        }
        for key, value in self.extra.items():
            result[f"extra_{key}"] = float(value)
        return result


class Timer:
    """Context manager measuring a wall-clock duration in seconds."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
