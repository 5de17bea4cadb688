"""The runner: the picklable bridge between miners and backends.

A :class:`ShardRunner` wraps a miner and an encoded database and knows how
to (a) plan the root-level seed units, (b) build the expensive per-run
search context — the :class:`~repro.core.positions.PositionIndex` and the
root projections — exactly once per process, and (c) execute one work
unit.

Miners plug in through a duck-typed protocol (no imports from the miner
packages so the engine stays dependency-free):

``build_context(encoded, extras)``
    Build the immutable per-run search context (index, root projections,
    resolved thresholds).  Called once in the coordinating process for
    planning, and once per worker process for mining.
``plan_roots(context)``
    Return a :class:`~repro.engine.sharding.PlanResult` of frequent roots.
``initial_units(context, plan)``
    The root-level :class:`~repro.engine.sharding.WorkUnit` seeds.
``mine_unit(context, unit, stats, splitter)``
    Execute one work unit, consulting ``splitter`` for dynamic subtree
    splitting and heavy-phase offload.
``resolve_units(outcomes)``
    Deterministically reassemble unit outcomes into the canonical serial
    record order (coordinating process only).

The runner crosses into each worker process once; the context is *never*
pickled — ``__getstate__`` drops it so every worker rebuilds its
``PositionIndex`` cache locally once and reuses it for all the units it
executes, instead of rebuilding per subtree or shipping bulky indexes
over the wire.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence as TypingSequence, Tuple

from ..core.events import EncodedDatabase, EventId
from ..core.positions import PositionIndex
from ..core.stats import MiningStats
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .sharding import PlanResult, UnitOutcome, WorkUnit


def plan_weighted_roots(
    root_weights: Mapping[EventId, int], threshold: int
) -> PlanResult:
    """Shared planning step: keep roots meeting ``threshold``, count the rest.

    Both miner families plan identically — iterate the roots in sorted
    order, prune those whose weight (instance or sequence count) is below
    the support threshold, and weight the survivors for dispatch order.
    """
    roots: List[Tuple[EventId, int]] = []
    pruned = 0
    for event in sorted(root_weights):
        weight = root_weights[event]
        if weight < threshold:
            pruned += 1
            continue
        roots.append((event, weight))
    return PlanResult(tuple(roots), pruned)


def _record_payload_bytes(record: Any) -> int:
    """Buffer bytes a record's instance payload contributes to the outcome.

    Duck-typed so the engine stays miner-agnostic: any record exposing an
    ``instances`` attribute with an ``nbytes()`` method (the columnar
    blocks) is counted; everything else ships as plain small tuples and
    counts as zero.
    """
    payload = getattr(record, "instances", None)
    nbytes = getattr(payload, "nbytes", None)
    return nbytes() if callable(nbytes) else 0


class LazyIndexContext:
    """Base class for per-run search contexts: encoded db + lazy index.

    The :class:`PositionIndex` is materialised on first use: the
    coordinating process only plans, so only the processes that actually
    mine pay for index construction — and each pays exactly once, reusing
    it across all the units it executes.
    """

    __slots__ = ("encoded", "_index")

    def __init__(self, encoded: EncodedDatabase) -> None:
        self.encoded = encoded
        self._index: Optional[PositionIndex] = None

    @property
    def index(self) -> PositionIndex:
        if self._index is None:
            self._index = PositionIndex(self.encoded)
        return self._index

    def absorb_appended(
        self, new_sequences: "TypingSequence[TypingSequence[int]]"
    ) -> None:
        """Absorb sequences appended (in place) to ``self.encoded``.

        The live index is extended with just the new sequences instead of
        being rebuilt; subclasses additionally invalidate whatever derived
        caches they keep.  Callers must have appended the same sequences to
        the ``encoded`` list this context was built over — the incremental
        miner shares that list with its growing database.
        """
        if self._index is not None:
            self._index.extend(new_sequences)


class ShardRunner:
    """Execute work units of a miner's root-parallel search."""

    def __init__(
        self,
        miner: Any,
        encoded: EncodedDatabase,
        extras: Optional[Dict[str, Any]] = None,
        context: Any = None,
    ) -> None:
        self.miner = miner
        self.encoded = encoded
        self.extras: Dict[str, Any] = dict(extras or {})
        # A pre-built context seeds the coordinating process only (it is
        # dropped at the pickle boundary like any other context): the
        # incremental miner uses this to keep one live PositionIndex across
        # store appends instead of rebuilding it every refresh.
        self._context: Any = context

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Build (or reuse) the per-process search context.

        In a worker process (the runner crossed a pickle boundary with the
        coordinator's tracing armed), this also arms the worker-side
        shipping collector and adopts the coordinator's trace context, so
        the worker's unit spans join the coordinator's trace when
        they travel back inside the outcomes.
        """
        # Two ways a worker learns the coordinator had tracing armed:
        # *spawned* workers receive the runner through a pickle, where
        # __getstate__ captured the flag and the trace context; *forked*
        # workers inherit the coordinator's collector itself through the
        # address space — detected by its foreign pid, because reusing it
        # would append to the parent's JSONL handle from two processes.
        # Either way the worker ends up on a fresh shipping buffer with
        # the coordinator's context adopted.
        ship = self.__dict__.pop("_ship_spans", False)
        trace_ctx = self.__dict__.pop("_trace_ctx", None)
        inherited = tracing.ACTIVE
        if (
            inherited is not None
            and not inherited.shipping
            and inherited.pid != os.getpid()
        ):
            ship = True
            if trace_ctx is None:
                # The span stack was copied at fork time: the coordinator
                # forks inside its "engine.execute" span, so this is it.
                trace_ctx = tracing.current_ids()
        if ship and not tracing.shipping():
            tracing.install_shipping()
        if trace_ctx is not None and tracing.shipping():
            tracing.adopt(*trace_ctx)
        self._ensure_context()

    # ------------------------------------------------------------------ #
    # Unit protocol
    # ------------------------------------------------------------------ #
    def plan_units(self) -> Tuple[List[WorkUnit], int]:
        """Plan the root-level seed units (coordinating process only)."""
        context = self._ensure_context()
        plan = self.miner.plan_roots(context)
        return list(self.miner.initial_units(context, plan)), plan.pruned_support

    def run_unit(self, unit: WorkUnit, splitter: Any) -> UnitOutcome:
        """Execute one work unit, packaging records and counters.

        ``shipped_bytes`` accounts the instance-block payload packaged into
        the outcome — the volume that crosses the worker-to-coordinator
        pickle boundary when workers run in processes (counted identically
        in process so the number is comparable across backends).

        Crash-recovery contract: a unit execution must be a pure function
        of ``(self, unit)`` — all state is re-derived by replaying along
        ``unit.path``, and nothing outside the returned outcome may be
        mutated.  The coordinator relies on this to re-execute a dead
        worker's unit on a survivor (discarding the dead attempt's
        split-off descendants) without changing the merged output.
        """
        context = self._ensure_context()
        started = time.perf_counter()
        stats = MiningStats()
        with tracing.span("engine.unit", kind=unit.kind, root=unit.root):
            records = tuple(self.miner.mine_unit(context, unit, stats, splitter))
        for record in records:
            stats.shipped_bytes += _record_payload_bytes(record)
        delta = (
            obs_metrics.unit_observation(unit.kind, time.perf_counter() - started)
            if obs_metrics.ENABLED
            else None
        )
        return UnitOutcome(unit, records, stats, delta, tracing.drain_shipped())

    def resolve_units(self, outcomes: List[UnitOutcome]) -> List[Any]:
        """Reassemble unit outcomes into canonical serial record order."""
        return self.miner.resolve_units(outcomes)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _ensure_context(self) -> Any:
        if self._context is None:
            self._context = self.miner.build_context(self.encoded, self.extras)
        return self._context

    def __getstate__(self) -> Dict[str, Any]:
        # The context holds the PositionIndex and projection caches; it is
        # cheap to rebuild locally and expensive to pickle, so workers
        # always reconstruct it (once) in setup().
        state = self.__dict__.copy()
        state["_context"] = None
        # Pickling happens inside the coordinator's "engine.execute" span:
        # capture whether tracing is armed (and under which trace/span) so
        # worker processes can buffer child spans for shipping.
        if tracing.ACTIVE is not None and not tracing.ACTIVE.shipping:
            state["_ship_spans"] = True
            state["_trace_ctx"] = tracing.current_ids()
        return state
