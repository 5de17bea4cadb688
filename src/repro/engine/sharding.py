"""The work-unit protocol's data types.

Both miner families grow their search trees from independent first-level
roots: singleton events for the iterative-pattern miners, single-event
premises for the recurrent-rule miners.  The subtree below each root never
reads state produced by another subtree, and any frontier node inside a
subtree can itself be carved off and re-derived elsewhere by replaying
projections along its path.  A :class:`WorkUnit` names such a piece of the
search by ``(kind, split-path)``; a :class:`UnitOutcome` carries back what
executing it produced.  The miners' ``resolve_units`` reassembles outcomes
in the canonical serial order, whichever worker produced them and in
whatever order they finished.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..core.events import EventId
from ..core.stats import MiningStats


class WorkUnit(NamedTuple):
    """One unit of search work, executed by any backend.

    ``path`` identifies a search-tree node as the chain of events from the
    root (``path[0] == root``); the worker re-derives the node's state by
    replaying projections along it.  ``kind`` is interpreted by the miner:
    subtree units (``"grow"`` / ``"rules"``) mine the whole subtree below
    the node, offload units (``"verify"`` / ``"consequent"``) run one
    node's deferred heavy phase.  ``cost_hint`` is a cheap relative cost
    estimate (instance or projection rows) used to order the initial queue
    heavy-first; correctness never depends on it.
    """

    kind: str
    root: EventId
    path: Tuple[EventId, ...]
    cost_hint: int = 0


def describe_unit(unit: WorkUnit) -> str:
    """Human-readable identity of a unit for diagnostics (poison quarantine)."""
    path = "/".join(str(event) for event in unit.path)
    return f"{unit.kind} unit at path [{path}] (root {unit.root}, cost hint {unit.cost_hint})"


class UnitOutcome(NamedTuple):
    """Everything a worker reports back for one executed work unit.

    Outcomes arrive in completion order; the miners' ``resolve_units``
    reassembles the records deterministically (each record carries its own
    search-tree key, and the serial depth-first emission order is exactly
    the ascending lexicographic order of those keys), so splitting and
    completion order never leak into the output.
    """

    unit: WorkUnit
    records: Tuple[object, ...]
    stats: MiningStats
    #: Metrics-registry delta recorded while executing the unit (wall-time
    #: histogram + unit counter), shipped across the process boundary and
    #: merged into the coordinator's registry; ``None`` when muted.
    metrics: Optional[Dict[str, object]] = None
    #: Finished trace spans buffered worker-side while executing the unit,
    #: shipped back for the coordinator's collector to absorb; ``None``
    #: when tracing is disarmed (or coordinator-side, where spans land in
    #: the armed collector directly).
    spans: Optional[Tuple[Dict[str, object], ...]] = None


class PlanResult(NamedTuple):
    """The frequent roots of a search (with weights) plus root-level pruning.

    ``roots`` holds ``(root_event, weight)`` pairs where the weight is a
    cheap proxy for subtree cost (instance or projection count) that
    becomes the seed unit's ``cost_hint``;
    ``pruned_support`` counts roots discarded by the support threshold,
    mirroring the serial miners' root-level ``pruned_support`` accounting.
    """

    roots: Tuple[Tuple[EventId, int], ...]
    pruned_support: int
