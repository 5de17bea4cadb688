"""Work-unit execution: dynamic subtree splitting and crash recovery.

Every backend runs the search as :class:`~repro.engine.sharding.WorkUnit`
values, seeded with one unit per frequent root (heaviest first).  With one
worker the units run on a local queue in this process
(:func:`_run_units_in_process`).  With more, a coordinator drives worker
processes (:func:`_run_units_with_processes`) and replaces any plan-time
guess at subtree costs with demand-driven subdivision:

* while mining a unit, a worker periodically consults its
  :class:`StealSplitter`; when the queue runs low it *splits* the
  shallowest unexplored frontier nodes of its depth-first search — suffix
  extensions of its current prefix — into new units other workers can
  steal, and may *offload* a node's heavy verification phase (closure
  checking, consequent growth) as a separate unit;
* a stolen unit names its node by ``(root, split-path)`` only; the thief
  re-derives the node's projections by replaying along the path, so units
  stay a few dozen bytes on the wire regardless of subtree size.

Determinism: every record a unit produces carries its own search-tree key
(the pattern, or the premise/consequent pair), and the serial depth-first
emission order is exactly the ascending lexicographic order of those keys,
so the miners' ``resolve_units`` reassembles bit-identical serial output
from any interleaving of splits and completions.

Spawn accounting is routed through the coordinator: workers announce
splits on the result queue and the coordinator re-enqueues the new units,
so a unit can never complete before the coordinator has registered it —
the outstanding-unit counter is exact without any cross-queue ordering
assumptions.  The shared ``queued`` counter (incremented at submit time by
the splitting worker itself) is only a scheduling hint for the hunger
heuristic and never affects correctness.

Crash recovery: the coordinator dispatches exactly one unit at a time to
each worker over a per-worker queue, so when a worker process dies it
knows precisely which unit went down with it.  Because units are
replayable by construction, the lost unit is simply re-executed — the
coordinator *orphans* the dead attempt's descendants (units it had split
off, transitively; their outcomes are discarded on arrival) and replays
the unit fresh, so the surviving attempt tree tiles the search space
exactly once and the merged output stays byte-identical to the serial
reference.  A bounded retry budget turns a unit that keeps killing its
workers into an :class:`~repro.core.errors.ExecutionFault` naming the
unit (poison quarantine); an optional per-unit deadline terminates
stragglers and replays them with forced eager splitting so the subtree
spreads across the pool.
"""

from __future__ import annotations

import queue as queue_module
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.errors import ExecutionFault
from ..core.stats import MiningStats
from ..testing import faults
from .sharding import UnitOutcome, WorkUnit, describe_unit

#: Maximum node depth (path length) at which frontier nodes may still be
#: split off as stealable units.  Thieves replay projections along the
#: split path, so deeper splits cost more to steal; shallow splits move the
#: most work per replayed step.
DEFAULT_SPLIT_DEPTH = 8

#: Search nodes visited between two hunger checks inside ``mine_unit``.
DEFAULT_CHECK_INTERVAL = 64

#: Minimum cost hint (instance / projection rows) below which a node's
#: heavy phase is never offloaded as its own unit — replaying the path
#: would cost more than the phase itself.
DEFAULT_OFFLOAD_MIN_COST = 256


class StealSplitter:
    """Worker-side splitting policy handed to ``miner.mine_unit``.

    ``should_split`` answers "is the pool hungry?" (the shared queue is
    below its low watermark); ``should_offload`` additionally weighs a
    node's cost hint against the replay cost of a stolen unit.  ``submit``
    hands split-off units to the executor.  ``eager`` forces both answers
    to yes with no cost floor (instead of ``DEFAULT_OFFLOAD_MIN_COST``)
    *and* drops the check interval from ``DEFAULT_CHECK_INTERVAL`` to every
    visit — the deterministic in-process stress mode the parity tests use
    to exercise every split and offload path on every example, however
    small.
    """

    __slots__ = ("split_depth", "check_interval", "_submit", "_hungry", "_offload_min_cost", "_eager")

    def __init__(
        self,
        submit: Callable[[List[WorkUnit]], None],
        hungry: Callable[[], bool],
        split_depth: int,
        eager: bool,
    ) -> None:
        self.split_depth = split_depth
        self.check_interval = 1 if eager else DEFAULT_CHECK_INTERVAL
        self._submit = submit
        self._hungry = hungry
        self._offload_min_cost = 0 if eager else DEFAULT_OFFLOAD_MIN_COST
        self._eager = eager

    def should_split(self) -> bool:
        return self._eager or self._hungry()

    def should_offload(self, cost_hint: int) -> bool:
        if self._eager:
            return True
        return cost_hint >= self._offload_min_cost and self._hungry()

    def submit(self, units: Sequence[WorkUnit]) -> None:
        if units:
            self._submit(list(units))


class FrontierFrame:
    """One depth-first frame of a splittable subtree search.

    ``key`` is the node's search-tree path (pattern or premise prefix);
    ``state`` is an opaque miner payload carried alongside (e.g. the
    pattern miners' per-node ``AlphabetIndex``); ``extensions`` maps each
    candidate child event to its projection payload, and ``explore`` /
    ``cursor`` track which children are still pending.  Everything past
    ``cursor`` is the frame's unexplored frontier — exactly what
    :func:`drive_split_subtree` may carve off as stolen units.
    """

    __slots__ = ("key", "state", "extensions", "explore", "cursor")

    def __init__(self, key: Tuple, state: Any, extensions: dict, explore: List) -> None:
        self.key = key
        self.state = state
        self.extensions = extensions
        self.explore = explore
        self.cursor = 0


def drive_split_subtree(
    first_frame: Optional[FrontierFrame],
    visit_child: Callable[[FrontierFrame, Any, Any], Optional[FrontierFrame]],
    min_support: int,
    support: Callable[[Any], int],
    splitter: Any,
    stats: MiningStats,
    unit_kind: str,
) -> None:
    """Run a depth-first subtree with periodic frontier splitting.

    ``visit_child`` performs one node visit (counting, emission, child
    expansion) and returns the child's frame, or ``None`` for leaves.
    Children whose payload's ``support`` is below ``min_support`` are
    support-pruned in place, mirroring the serial loops.  Every
    ``splitter.check_interval`` child visits the splitter is consulted;
    when it says the pool is hungry, the pending frontier of the
    *shallowest* eligible frame is submitted as fresh ``unit_kind`` units
    (the biggest stealable subtrees, cheapest for a thief to replay).
    """
    frames: List[FrontierFrame] = []
    if first_frame is not None:
        frames.append(first_frame)
    check_interval = getattr(splitter, "check_interval", 0)
    countdown = check_interval
    while frames:
        top = frames[-1]
        if top.cursor >= len(top.explore):
            frames.pop()
            continue
        event = top.explore[top.cursor]
        top.cursor += 1
        child_payload = top.extensions[event]
        if support(child_payload) < min_support:
            stats.pruned_support += 1
            continue
        if check_interval:
            countdown -= 1
            if countdown <= 0:
                countdown = check_interval
                if splitter.should_split():
                    _split_frontier(
                        frames, min_support, support, splitter, stats, unit_kind
                    )
        child_frame = visit_child(top, event, child_payload)
        if child_frame is not None:
            frames.append(child_frame)


def _split_frontier(
    frames: List[FrontierFrame],
    min_support: int,
    support: Callable[[Any], int],
    splitter: Any,
    stats: MiningStats,
    unit_kind: str,
) -> None:
    """Carve the shallowest pending frontier into stealable units.

    Infrequent pending children stay behind (their support pruning is a
    counter bump, cheaper than any replay); frequent ones leave as units
    keyed by their full split path, and their projection payloads are
    dropped immediately — the thief re-derives them.
    """
    for frame in frames:
        if len(frame.key) + 1 > splitter.split_depth:
            # Frames only get deeper down the stack; nothing below splits.
            break
        pending = frame.explore[frame.cursor:]
        stealable = [
            event for event in pending if support(frame.extensions[event]) >= min_support
        ]
        if not stealable:
            continue
        units = [
            WorkUnit(
                unit_kind,
                frame.key[0],
                frame.key + (event,),
                len(frame.extensions[event]),
            )
            for event in stealable
        ]
        stealable_set = set(stealable)
        frame.explore = frame.explore[: frame.cursor] + [
            event for event in pending if event not in stealable_set
        ]
        for event in stealable:
            del frame.extensions[event]
        splitter.submit(units)
        stats.bump("units_split", len(units))
        return


class _Spawn(NamedTuple):
    """A worker's announcement that it split off new units."""

    worker_index: int
    units: Tuple[WorkUnit, ...]


class _Report(NamedTuple):
    """A worker's completion report for its current unit."""

    worker_index: int
    outcome: UnitOutcome


class _WorkerFailure(NamedTuple):
    """A worker's report that it hit an exception; carries the traceback."""

    worker_index: int
    message: str


#: How long the coordinator sleeps in ``results.get`` before polling
#: worker liveness and unit deadlines.  Bounds crash-detection latency.
COORDINATOR_POLL_INTERVAL = 0.1

#: Additional attempts a unit gets after killing a worker before it is
#: quarantined as poison (so a unit may take down ``1 + retries`` workers
#: in a row before the mine fails with a diagnostic naming it).
DEFAULT_UNIT_RETRIES = 2


def _worker_main(
    runner: Any,
    tasks: Any,
    results: Any,
    queued: Any,
    worker_index: int,
    low_watermark: int,
    split_depth: int,
    eager: bool,
) -> None:
    """Worker process loop: receive one unit at a time, mine, report.

    Dispatch is coordinator-mediated: this worker only ever holds the one
    unit the coordinator sent down its private queue, so the coordinator
    always knows exactly which unit a dead worker took with it — there is
    no self-serve window in which a loss would be ambiguous.  Assignments
    carry a ``force_eager`` flag so a replayed straggler can be told to
    split aggressively.
    """
    try:
        runner.setup()
    except BaseException:
        results.put(_WorkerFailure(worker_index, traceback.format_exc()))
        return

    def hungry() -> bool:
        return queued.value < low_watermark

    def submit(units: List[WorkUnit]) -> None:
        # Bump the hint counter *before* announcing, so this worker (and
        # every other) immediately stops seeing the queue as dry instead of
        # splitting again on the next check.
        with queued.get_lock():
            queued.value += len(units)
        results.put(_Spawn(worker_index, tuple(units)))

    while True:
        assignment = tasks.get()
        if assignment is None:
            return
        unit, force_eager = assignment
        splitter = StealSplitter(submit, hungry, split_depth, eager or force_eager)
        try:
            if faults.ACTIVE is not None:
                # Inside the try: an injected ``raise`` must take the same
                # path as a real exception in ``run_unit`` (worker-failure
                # report), while ``kill`` never unwinds anyway.
                faults.trigger("engine.unit", key=f"{unit.kind}:{unit.root}")
            outcome = runner.run_unit(unit, splitter)
        except BaseException:
            results.put(_WorkerFailure(worker_index, traceback.format_exc()))
            return
        results.put(_Report(worker_index, outcome))


class _Task:
    """One attempt at executing a work unit, identified by ``task_id``.

    A replay is a *new* task (fresh id) for the same unit with ``retries``
    incremented; ``children`` lineage lives in the coordinator so a dead
    attempt's split-off descendants can be orphaned transitively.
    """

    __slots__ = ("task_id", "unit", "retries", "eager")

    def __init__(self, task_id: int, unit: WorkUnit, retries: int, eager: bool) -> None:
        self.task_id = task_id
        self.unit = unit
        self.retries = retries
        self.eager = eager


class _Coordinator:
    """Drives a pool of stealing workers with crash recovery.

    Invariant: the set of *surviving* task outcomes tiles the search space
    exactly once.  Every split registers the child under its parent
    attempt; when an attempt dies with its worker, the attempt and its
    descendants are orphaned (pending ones dequeued, in-flight or already
    completed ones discarded on sight) and the unit is replayed as a fresh
    attempt — which re-splits as it sees fit.  Replays are bounded by the
    retry budget; exhausting it raises :class:`ExecutionFault` naming the
    poison unit.
    """

    def __init__(self, runner: Any, units: List[WorkUnit], backend: Any,
                 stats: MiningStats) -> None:
        self.runner = runner
        self.backend = backend
        self.stats = stats
        # Imported on first process use: serial mines and every command
        # that never starts a worker skip loading it.
        import multiprocessing

        self.ctx = multiprocessing.get_context()
        self.results = self.ctx.Queue()
        self.queued = self.ctx.Value("i", len(units))
        self.task_queues = [self.ctx.Queue() for _ in range(backend.workers)]
        self.workers: Dict[int, Any] = {}
        self._next_task_id = 0
        self.pending: deque = deque(self._new_task(unit, 0, False) for unit in units)
        self.in_flight: Dict[int, _Task] = {}
        self.started_at: Dict[int, float] = {}
        self.children: Dict[int, List[int]] = {}
        self.orphaned: Set[int] = set()
        self.outcomes: Dict[int, UnitOutcome] = {}
        self.live: Set[int] = set()
        self.idle: Set[int] = set()
        #: Armed checkpoint journal, if the backend carries one.  Entries
        #: are appended in coordinator event order; a worker's _Spawn
        #: messages precede its _Report on the same queue, so a journaled
        #: outcome implies its split announcements are journaled too.
        self.checkpoint = backend.checkpoint

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_worker(self, worker_index: int) -> None:
        worker = self.ctx.Process(
            target=_worker_main,
            args=(
                self.runner,
                self.task_queues[worker_index],
                self.results,
                self.queued,
                worker_index,
                self.backend.workers,
                self.backend.split_depth,
                self.backend.eager_split,
            ),
            daemon=True,
        )
        worker.start()
        self.workers[worker_index] = worker
        self.live.add(worker_index)
        self.idle.add(worker_index)

    def _new_task(self, unit: WorkUnit, retries: int, eager: bool) -> _Task:
        task = _Task(self._next_task_id, unit, retries, eager)
        self._next_task_id += 1
        return task

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _assign(self) -> None:
        while self.pending and self.idle:
            worker_index = min(self.idle)
            self.idle.discard(worker_index)
            task = self.pending.popleft()
            with self.queued.get_lock():
                self.queued.value -= 1
            self.in_flight[worker_index] = task
            self.started_at[worker_index] = time.monotonic()
            self.task_queues[worker_index].put((task.unit, task.eager))

    def _handle(self, message: Any) -> None:
        if isinstance(message, _WorkerFailure):
            # A deterministic exception inside a unit would fail every
            # replay identically — abort with the worker's traceback
            # instead of burning the retry budget on it.
            raise ExecutionFault(
                f"work-stealing worker {message.worker_index} failed:\n{message.message}"
            )
        if isinstance(message, _Spawn):
            parent = self.in_flight.get(message.worker_index)
            if parent is None or parent.task_id in self.orphaned:
                # Late announcement from an attempt that was already
                # declared lost (or terminated): its subtree will be (or
                # was) re-covered by the replay, so the split-off units
                # must not run.  Roll back the worker-side hint bump.
                with self.queued.get_lock():
                    self.queued.value -= len(message.units)
                return
            siblings = self.children.setdefault(parent.task_id, [])
            for unit in message.units:
                task = self._new_task(unit, 0, parent.eager)
                siblings.append(task.task_id)
                self.pending.append(task)
            if self.checkpoint is not None:
                self.checkpoint.record_spawn(parent.unit, message.units)
            return
        if isinstance(message, _Report):
            task = self.in_flight.pop(message.worker_index, None)
            self.started_at.pop(message.worker_index, None)
            if message.worker_index in self.live:
                self.idle.add(message.worker_index)
            if task is None or task.task_id in self.orphaned:
                return  # outcome of an orphaned attempt: discard
            self.outcomes[task.task_id] = message.outcome
            if self.checkpoint is not None:
                self.checkpoint.record_unit(task.unit, message.outcome)
            return
        raise ExecutionFault(f"unexpected coordinator message {message!r}")

    def _drain(self) -> None:
        while True:
            try:
                message = self.results.get_nowait()
            except queue_module.Empty:
                return
            self._handle(message)

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def _orphan_subtree(self, task_id: int) -> None:
        victims = {task_id}
        stack = [task_id]
        while stack:
            for child in self.children.pop(stack.pop(), ()):
                if child not in victims:
                    victims.add(child)
                    stack.append(child)
        kept: deque = deque()
        removed = 0
        for task in self.pending:
            if task.task_id in victims:
                removed += 1
            else:
                kept.append(task)
        self.pending = kept
        if removed:
            with self.queued.get_lock():
                self.queued.value -= removed
        for victim in victims:
            self.outcomes.pop(victim, None)
        self.orphaned |= victims

    def _replay(self, task: _Task, reason: str, force_eager: bool = False) -> None:
        retries = task.retries + 1
        if retries > self.backend.unit_retries:
            raise ExecutionFault(
                f"poison work unit quarantined: {describe_unit(task.unit)} "
                f"took down {retries} worker(s) in a row "
                f"(last failure: {reason}; retry budget {self.backend.unit_retries})"
            )
        self._orphan_subtree(task.task_id)
        if self.checkpoint is not None:
            # The journal must invalidate the lost attempt's subtree the
            # same way the live orphan set does: a resume that replayed
            # both the parent's re-run and its old children would double-
            # cover the search space.
            self.checkpoint.record_orphan(task.unit)
        replay = self._new_task(task.unit, retries, task.eager or force_eager)
        self.pending.appendleft(replay)
        with self.queued.get_lock():
            self.queued.value += 1
        self.stats.bump("units_retried")

    def _check_dead_workers(self) -> None:
        # Drain first: a worker that finished its unit and died cleanly
        # (or whose death raced a flushed report) must not trigger a
        # replay — its outcome is already in the pipe.
        self._drain()
        for worker_index in sorted(self.live):
            if self.workers[worker_index].is_alive():
                continue
            self.live.discard(worker_index)
            self.idle.discard(worker_index)
            task = self.in_flight.pop(worker_index, None)
            self.started_at.pop(worker_index, None)
            if task is None:
                continue  # died between units; nothing was lost
            self.stats.bump("workers_lost")
            if task.task_id in self.orphaned:
                continue  # an orphaned attempt died; the replay already covers it
            self._replay(task, reason=f"worker {worker_index} died while executing it")
        if not self.live and (self.pending or self.in_flight):
            raise ExecutionFault(
                "all work-stealing workers died with units outstanding; "
                "aborting the run"
            )

    def _check_deadlines(self) -> None:
        deadline = self.backend.unit_deadline
        if deadline is None:
            return
        self._drain()
        now = time.monotonic()
        for worker_index, started in list(self.started_at.items()):
            if now - started <= deadline:
                continue
            task = self.in_flight.pop(worker_index, None)
            self.started_at.pop(worker_index, None)
            if task is None:
                continue
            # Terminate the straggler and bring a replacement up at the
            # same slot so the pool keeps its width; the unit replays with
            # forced eager splitting so its subtree spreads across the
            # pool instead of stalling one worker again.
            worker = self.workers[worker_index]
            worker.terminate()
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=5.0)
            self.live.discard(worker_index)
            self.idle.discard(worker_index)
            self.stats.bump("units_deadline_split")
            if task.task_id not in self.orphaned:
                self._replay(
                    task,
                    reason=f"exceeded the {deadline:g}s unit deadline",
                    force_eager=True,
                )
            self._spawn_worker(worker_index)

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #
    def run(self) -> List[UnitOutcome]:
        for worker_index in range(self.backend.workers):
            self._spawn_worker(worker_index)
        try:
            while self.pending or self.in_flight:
                self._assign()
                try:
                    message = self.results.get(timeout=COORDINATOR_POLL_INTERVAL)
                except queue_module.Empty:
                    self._check_dead_workers()
                    self._check_deadlines()
                    continue
                self._handle(message)
            for worker_index in sorted(self.live):
                self.task_queues[worker_index].put(None)
            for worker_index in sorted(self.live):
                self.workers[worker_index].join(timeout=10.0)
        finally:
            for worker in self.workers.values():
                if worker.is_alive():
                    worker.terminate()
        # task_id order is arbitrary but fixed; resolve_units orders
        # records by their own search-tree keys anyway.
        return [self.outcomes[task_id] for task_id in sorted(self.outcomes)]


def _run_units_with_processes(
    runner: Any, units: List[WorkUnit], backend: Any, stats: MiningStats
) -> List[UnitOutcome]:
    """Execute units on a pool of stealing workers; collect all outcomes."""
    return _Coordinator(runner, units, backend, stats).run()


def _run_units_in_process(
    runner: Any, units: List[WorkUnit], backend: Any
) -> List[UnitOutcome]:
    """Run units on a local deque in the current process (one worker).

    Without ``eager_split`` nothing ever splits: this is the serial
    reference.  With it the splitter says yes to every split and offload,
    so the full split / replay / offload / resolve machinery is exercised
    deterministically without any processes — the mode the property tests
    drive.
    """
    runner.setup()
    pending: deque = deque(units)
    eager = backend.eager_split
    checkpoint = backend.checkpoint
    outcomes: List[UnitOutcome] = []
    while pending:
        unit = pending.popleft()

        def submit(spawned, parent=unit):
            spawned = list(spawned)
            pending.extend(spawned)
            if checkpoint is not None:
                checkpoint.record_spawn(parent, spawned)

        splitter = StealSplitter(submit, lambda: False, backend.split_depth, eager)
        outcome = runner.run_unit(unit, splitter)
        if checkpoint is not None:
            checkpoint.record_unit(unit, outcome)
        outcomes.append(outcome)
    return outcomes
