"""A sharded, multi-tenant pool of streaming monitors.

One :class:`~repro.serving.stream_monitor.StreamingMonitor` checks one
session at a time.  Production traffic is thousands of *interleaved* live
sessions, so the serving plane needs a layer that multiplexes them:
:class:`MonitorPool` owns a fixed set of worker **shards**, each running one
thread over a bounded queue, and routes every session to exactly one shard
by **consistent hashing** of its session id.  All events of a session
therefore flow through one FIFO queue — per-session event order is
preserved by construction — while different sessions progress in parallel
across shards.

The pool makes three serving guarantees:

* **bounded memory** — each shard's queue is bounded (``queue_depth``
  items).  A producer feeding a shard whose queue is full gets
  :data:`BUSY` back immediately instead of growing the queue; the caller
  (the socket front end) surfaces that to the client, which retries.  A
  slow shard can therefore never take the process down, only slow its own
  sessions' producers;
* **generation-numbered hot swap** — all shards serve one immutable
  :class:`~repro.serving.compile.CompiledRuleSet`.  :meth:`MonitorPool.swap`
  installs a new compiled generation with a single reference assignment:
  sessions already open keep the generation they started on until they
  close (their in-flight matching state is only meaningful against it),
  sessions opened after the swap get the new one.  No lock is held while
  monitoring — the compiled set is immutable and shared;
* **deterministic aggregation in bounded memory** — each shard folds a
  closed session's point counts as it arrives (counts commute) and appends
  a violating session's violations to its
  :class:`~repro.verification.violations.ViolationLog` (two ints per
  violation; the session's admission index, name and compile generation
  once); :meth:`MonitorPool.report` adds the counts and merges the shard
  logs *in admission order*.  The merged report is byte-identical
  to a single ``StreamingMonitor`` fed the same sessions one after another
  in admission order — the parity contract pinned by the hypothesis suite
  in ``tests/serving/test_pool.py``, including across a mid-stream hot
  swap — while the pool's retained state grows with violations, not with
  sessions served.

Per-rule analytics live in one place, a
:class:`~repro.serving.stream_monitor.RuleTally` per shard that every
session monitor on the shard folds into at close.  The ``ANALYTICS`` verb
sums the shard tallies, and the ``repro_rule_*`` metric families are
brought up to date from them when the registry is scraped.

The pool is transport-agnostic: the TCP front end in
:mod:`repro.serving.server` is one producer, the watch daemon's push mode
another, and tests drive it directly.
"""

from __future__ import annotations

import bisect
import hashlib
import queue
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.errors import MonitoringError, ServingTimeout, SessionLost
from ..core.events import EventLabel
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..testing import faults
from ..verification.violations import MonitoringReport, ViolationLog
from .compile import CompiledRuleSet, RuleSource, compile_rules
from .stream_monitor import RuleTally, StreamingMonitor

#: :meth:`MonitorPool.feed` accepted the events (they are queued in order).
ACCEPTED = "ok"
#: The session's shard queue is full: nothing was queued, retry later.
BUSY = "busy"
#: The session was discarded because its shard crashed; the id is free to
#: be re-admitted.  Returned exactly once per lost session.
SESSION_LOST = "lost"

#: Virtual ring points per shard.  More replicas smooth the session
#: distribution; 64 keeps the spread within a few percent of uniform while
#: the ring stays tiny.
RING_REPLICAS = 64
#: Default bound on each shard's pending-item queue.
DEFAULT_QUEUE_DEPTH = 1024
#: How often the supervisor thread polls shard-worker liveness.  Bounds
#: the window between a shard crash and its sessions answering
#: ``SESSION_LOST`` (and the shard serving again).
DEFAULT_SUPERVISOR_INTERVAL = 0.05
#: Bound on remembered lost-session markers; the oldest are evicted first
#: (a client that waits that long simply sees "unknown session", which it
#: handles the same way: re-admit).
MAX_LOST_MARKERS = 4096


def _ring_point(key: str) -> int:
    """A stable 64-bit ring position for ``key``.

    SHA-1 rather than ``hash()``: Python's string hash is randomized per
    process, and session→shard affinity must agree across restarts and
    across the processes of a future multi-host deployment.
    """
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class SessionTicket:
    """Handle for one session's in-flight close.

    :meth:`MonitorPool.end_session` enqueues the close behind the session's
    still-queued events and returns one of these; :meth:`wait` blocks until
    the shard processed everything and produced the session's final
    :class:`~repro.verification.violations.MonitoringReport`.
    """

    __slots__ = ("_done", "_report", "_error")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._report: Optional[MonitoringReport] = None
        self._error: Optional[BaseException] = None

    def _resolve(self, report: MonitoringReport) -> None:
        self._report = report
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        """Whether the session's close has been processed by its shard."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> MonitoringReport:
        """Block until the session closed; return its final report.

        Raises :class:`~repro.core.errors.ServingTimeout` when the shard
        does not process the close within ``timeout`` seconds (the session
        close stays pending — the caller may wait again), and
        :class:`~repro.core.errors.SessionLost` when the shard crashed
        with this close still queued.
        """
        if not self._done.wait(timeout):
            raise ServingTimeout(
                f"timed out waiting for the session to close"
                f"{f' (after {timeout:g}s)' if timeout is not None else ''}"
            )
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report


class _Session:
    """One live logical session: its monitor, admission index and shard."""

    __slots__ = ("session_id", "index", "monitor", "shard", "last_seq", "trace")

    def __init__(
        self, session_id: str, index: int, monitor: StreamingMonitor, shard: "_Shard"
    ) -> None:
        self.session_id = session_id
        self.index = index
        self.monitor = monitor
        self.shard = shard
        # Highest client-supplied batch sequence number accepted, or None
        # when the producer does not number its batches.  Lets a client
        # whose reply was lost in a connection drop re-send the batch
        # without double-feeding (idempotent retry).
        self.last_seq: Optional[int] = None
        # Latest wire trace context ``(trace_id, parent_span_id)`` stamped
        # by the producer, so the shard worker's spans join the client's
        # trace; ``None`` when the producer does not trace.
        self.trace: Optional[Tuple[str, Optional[str]]] = None


class _Shard:
    """One worker thread draining one bounded queue of session work items."""

    def __init__(self, index: int, queue_depth: int) -> None:
        self.index = index
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self.lock = threading.Lock()
        #: Point counts of every session closed here (its log stays empty;
        #: the violations go to :attr:`violations`).
        self.totals = MonitoringReport()
        #: The violations of every session closed here, in close order —
        #: the only per-session state kept after a close.  A session's
        #: trace index is its admission index.
        self.violations = ViolationLog()
        #: Per-rule analytics of every session closed here; the shard's
        #: session monitors fold into it (see :class:`RuleTally`).
        self.tally = RuleTally()
        self.events_processed = 0
        self.sessions_closed = 0
        self.errors = 0
        self.restarts = 0
        self.last_error: Optional[str] = None
        self.stopping = False
        # The pause gate: cleared = the worker stalls *after* dequeuing at
        # most one item, so a paused shard's queue genuinely fills up.
        # Operational drains and the backpressure tests both use it.
        self._gate = threading.Event()
        self._gate.set()
        self.thread = threading.Thread(
            target=self._worker, name=f"monitor-shard-{index}", daemon=True
        )
        self.thread.start()

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            item = self.queue.get()
            self._gate.wait()
            kind = item[0]
            if kind == "stop":
                return
            try:
                if faults.ACTIVE is not None:
                    faults.trigger("pool.shard", key=str(self.index))
                if kind == "events":
                    _, session, events = item
                    monitor = session.monitor
                    # Child span under the producer's wire trace context —
                    # one span per *batch*, never per event.
                    batch_span = (
                        tracing.remote_span(
                            "pool.batch",
                            session.trace[0],
                            session.trace[1],
                            shard=self.index,
                            events=len(events),
                        )
                        if tracing.ACTIVE is not None and session.trace is not None
                        else tracing._NOOP
                    )
                    with batch_span:
                        for event in events:
                            monitor.feed(event)
                    with self.lock:
                        self.events_processed += len(events)
                    obs_metrics.POOL_EVENTS_TOTAL.inc(len(events))
                else:  # "end"
                    _, session, ticket = item
                    close_span = (
                        tracing.remote_span(
                            "pool.close",
                            session.trace[0],
                            session.trace[1],
                            shard=self.index,
                            session=session.session_id,
                        )
                        if tracing.ACTIVE is not None and session.trace is not None
                        else tracing._NOOP
                    )
                    # The trace was opened (named) at admission, so a
                    # zero-event session is simply a zero-length trace.
                    with close_span:
                        report = session.monitor.end_trace()
                    with self.lock:
                        self.totals.merge_counts(report)
                        self.violations.extend(report.log)
                        self.sessions_closed += 1
                    obs_metrics.POOL_SESSIONS_CLOSED_TOTAL.inc()
                    ticket._resolve(report)
            except BaseException as error:
                # The shard cannot tell how far the item got, so the
                # monitor state behind it is no longer trustworthy.  Die
                # loudly and let the pool supervisor restart the shard and
                # fail its sessions over to SESSION_LOST, instead of
                # limping on with silently wrong matching state.
                with self.lock:
                    self.errors += 1
                    self.last_error = f"{type(error).__name__}: {error}"
                if kind == "end":
                    item[2]._fail(
                        SessionLost(
                            "the session's shard crashed while closing it: "
                            f"{self.last_error}"
                        )
                    )
                return

    # ------------------------------------------------------------------ #
    # Control
    # ------------------------------------------------------------------ #
    def pause(self) -> None:
        """Stall the worker (it finishes at most the item already in hand)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    def restart(self) -> None:
        """Bring a fresh worker thread up after a crash (supervisor only)."""
        with self.lock:
            self.restarts += 1
        obs_metrics.POOL_SHARD_RESTARTS_TOTAL.inc()
        self.thread = threading.Thread(
            target=self._worker, name=f"monitor-shard-{self.index}", daemon=True
        )
        self.thread.start()

    def stop(self) -> None:
        self.stopping = True
        self.resume()
        if not self.thread.is_alive():
            return  # crashed and not (yet) restarted; nothing to stop
        self.queue.put(("stop",))
        self.thread.join(timeout=10.0)

    def stats(self) -> Dict[str, object]:
        # One consistent snapshot: every counter (and the queue depth) is
        # read under the shard lock the worker writes under, so a scrape
        # racing a crash/restart (or a mid-swap burst) can't mix a new
        # generation's depth with an old generation's counters.
        with self.lock:
            return {
                "shard": self.index,
                "queued": self.queue.qsize(),
                "events_processed": self.events_processed,
                "sessions_closed": self.sessions_closed,
                "errors": self.errors,
                "restarts": self.restarts,
            }


class MonitorPool:
    """Serve many concurrent logical sessions over sharded monitors.

    Parameters
    ----------
    rules:
        Anything :func:`~repro.serving.compile.compile_rules` accepts — an
        already-compiled :class:`CompiledRuleSet`, an iterable of rules, or
        a specification repository.  This is generation 0.
    shards:
        Number of worker shards (threads).  Sessions are spread across
        them by consistent hashing; all events of one session stay on one
        shard.
    queue_depth:
        Bound on each shard's pending work-item queue (an item is one
        :meth:`feed` batch or one session close).  A full queue answers
        :data:`BUSY` instead of growing.

    Example
    -------
    >>> pool = MonitorPool(rules, shards=4)
    >>> pool.feed("session-a", "connect")        # ACCEPTED or BUSY
    >>> ticket = pool.end_session("session-a")
    >>> ticket.wait().violation_count
    >>> pool.report()                            # all closed sessions, merged
    """

    def __init__(
        self,
        rules: Union[RuleSource, CompiledRuleSet],
        *,
        shards: int = 4,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        supervisor_interval: float = DEFAULT_SUPERVISOR_INTERVAL,
    ) -> None:
        if shards < 1:
            raise MonitoringError("a monitor pool needs at least one shard")
        if queue_depth < 1:
            raise MonitoringError("queue_depth must be positive")
        if supervisor_interval <= 0:
            raise MonitoringError("supervisor_interval must be positive")
        self.queue_depth = queue_depth
        self._compiled = (
            rules if isinstance(rules, CompiledRuleSet) else compile_rules(rules)
        )
        self._generation = 0
        self._lock = threading.Lock()
        self._shards = [_Shard(index, queue_depth) for index in range(shards)]
        self._sessions: Dict[str, _Session] = {}
        self._next_index = 0
        self._sessions_opened = 0
        self._busy_rejections = 0
        self._closed = False
        # Failure bookkeeping: session ids whose shard crashed, mapped to
        # the human-readable reason.  Consumed (answered once) by the next
        # feed / end under that id.
        self._lost: Dict[str, str] = {}
        self._sessions_lost = 0
        self._supervisor_interval = supervisor_interval
        self._supervisor = threading.Thread(
            target=self._supervise, name="monitor-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        # Consistent-hash ring: shard ownership moves minimally when the
        # shard count changes (the property multi-host sharding needs).
        ring: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(RING_REPLICAS):
                ring.append((_ring_point(f"shard-{shard}:vnode-{replica}"), shard))
        ring.sort()
        self._ring_points = [point for point, _ in ring]
        self._ring_shards = [shard for _, shard in ring]
        # Per-rule tally slots already recorded in the metrics registry;
        # each scrape exports only the growth since (see _export_rule_metrics).
        self._exported: Dict[str, List[float]] = {}
        self._export_lock = threading.Lock()
        obs_metrics.REGISTRY.add_collector(self._export_rule_metrics)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(self, session_id: str) -> int:
        """The shard index owning ``session_id`` (stable across processes)."""
        position = bisect.bisect(self._ring_points, _ring_point(session_id))
        return self._ring_shards[position % len(self._ring_shards)]

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #
    def _supervise(self) -> None:
        """Poll shard-worker liveness; restart crashed shards.

        Runs as a daemon thread for the pool's lifetime.  A shard whose
        worker thread died unexpectedly (not a clean ``stop``) gets its
        sessions marked lost — the next contact under each id answers
        :data:`SESSION_LOST` — its queued items discarded (queued closes
        fail their tickets with :class:`SessionLost`), and a fresh worker
        thread started, so the pool keeps serving its other shards and the
        crashed shard itself returns to service within one interval.
        """
        while True:
            time.sleep(self._supervisor_interval)
            with self._lock:
                if self._closed:
                    return
                for shard in self._shards:
                    if shard.stopping or shard.thread.is_alive():
                        continue
                    self._recover_shard(shard)

    def _recover_shard(self, shard: _Shard) -> None:
        """Fail a crashed shard's sessions over and restart it (lock held)."""
        reason = (
            f"session lost: monitor shard {shard.index} crashed "
            f"({shard.last_error or 'worker thread died'}); "
            "its in-memory monitoring state is gone and the session id may "
            "be re-admitted"
        )
        lost = [
            session_id
            for session_id, session in self._sessions.items()
            if session.shard is shard
        ]
        for session_id in lost:
            del self._sessions[session_id]
            self._remember_lost(session_id, reason)
        self._sessions_lost += len(lost)
        if lost:
            obs_metrics.POOL_SESSIONS_LOST_TOTAL.inc(len(lost))
        # Discard everything still queued: the sessions the items belong
        # to are gone.  Queued closes must not hang their waiters.
        while True:
            try:
                item = shard.queue.get_nowait()
            except queue.Empty:
                break
            if item[0] == "end":
                self._sessions_lost += 1
                obs_metrics.POOL_SESSIONS_LOST_TOTAL.inc()
                item[2]._fail(SessionLost(reason))
        shard.restart()

    def _remember_lost(self, session_id: str, reason: str) -> None:
        while len(self._lost) >= MAX_LOST_MARKERS:
            self._lost.pop(next(iter(self._lost)))
        self._lost[session_id] = reason

    def _note_busy(self) -> None:
        """Count one BUSY rejection (pool lock held)."""
        self._busy_rejections += 1
        obs_metrics.POOL_BUSY_TOTAL.inc()

    # ------------------------------------------------------------------ #
    # The hot path: feeding events
    # ------------------------------------------------------------------ #
    def feed(
        self,
        session_id: str,
        event: EventLabel,
        *,
        seq: Optional[int] = None,
        trace: Optional[Tuple[str, Optional[str]]] = None,
    ) -> str:
        """Queue one event for ``session_id``; :data:`ACCEPTED` or :data:`BUSY`."""
        return self.feed_batch(session_id, (event,), seq=seq, trace=trace)

    def feed_batch(
        self,
        session_id: str,
        events: Iterable[EventLabel],
        *,
        seq: Optional[int] = None,
        trace: Optional[Tuple[str, Optional[str]]] = None,
    ) -> str:
        """Queue a batch of events for one session, atomically.

        The whole batch is one queue item: either every event is accepted
        (in order, behind the session's earlier batches) or — when the
        session's shard queue is full — none is and :data:`BUSY` comes
        back, so a retry never reorders or duplicates a prefix.  The first
        accepted batch admits the session: it is assigned the next
        admission index and the *current* compile generation.

        ``seq`` is an optional per-session batch sequence number for
        idempotent retry: a batch whose ``seq`` does not exceed the
        session's last accepted one is acknowledged :data:`ACCEPTED`
        without being queued again (the client is re-sending after a lost
        reply).  ``BUSY`` does not consume a sequence number.

        If the session's shard crashed since the last contact, the first
        call under its id answers :data:`SESSION_LOST` (once); the id is
        then free to re-admit.

        ``trace`` is an optional ``(trace_id, parent_span_id)`` wire trace
        context; the shard worker opens its per-batch span as a child of
        it when tracing is armed (see :mod:`repro.obs.tracing`).
        """
        batch = tuple(events)
        with self._lock:
            if self._closed:
                raise MonitoringError("the monitor pool is closed")
            if session_id in self._lost:
                del self._lost[session_id]
                return SESSION_LOST
            session = self._sessions.get(session_id)
            if session is None:
                shard = self._shards[self.route(session_id)]
                monitor = StreamingMonitor(
                    self._compiled, first_trace_index=self._next_index, tally=shard.tally
                )
                # Open the trace here, named after the session, so violations
                # identify their session.  Safe without the shard lock: the
                # worker cannot see this monitor until the first queue item
                # below is enqueued.
                monitor.begin_trace(name=session_id)
                session = _Session(session_id, self._next_index, monitor, shard)
                session.trace = trace
                try:
                    shard.queue.put_nowait(("events", session, batch))
                except queue.Full:
                    self._note_busy()
                    return BUSY
                # Admission is committed only with the first accepted
                # batch, so a BUSY first contact burns no index.
                self._sessions[session_id] = session
                self._next_index += 1
                self._sessions_opened += 1
                obs_metrics.POOL_SESSIONS_OPENED_TOTAL.inc()
                session.last_seq = seq
                return ACCEPTED
            if seq is not None and session.last_seq is not None and seq <= session.last_seq:
                # Idempotent re-send: the batch was already accepted, only
                # its reply was lost.  Acknowledge without re-queuing.
                return ACCEPTED
            if trace is not None:
                session.trace = trace
            try:
                session.shard.queue.put_nowait(("events", session, batch))
            except queue.Full:
                self._note_busy()
                return BUSY
            if seq is not None:
                session.last_seq = seq
        return ACCEPTED

    def end_session(
        self,
        session_id: str,
        *,
        trace: Optional[Tuple[str, Optional[str]]] = None,
    ) -> Optional[SessionTicket]:
        """Close a session: queue its end behind its pending events.

        Returns a :class:`SessionTicket` to wait on, or ``None`` when the
        shard queue is full (:data:`BUSY` — the session stays open and the
        caller retries).  Ending an unknown session raises
        :class:`MonitoringError`; ending a session whose shard crashed
        raises :class:`~repro.core.errors.SessionLost` (once — the id is
        then free again).  A closed session's id may be reused: the next
        :meth:`feed` under it admits a brand-new session.
        """
        with self._lock:
            if self._closed:
                raise MonitoringError("the monitor pool is closed")
            if session_id in self._lost:
                raise SessionLost(self._lost.pop(session_id))
            session = self._sessions.get(session_id)
            if session is None:
                raise MonitoringError(f"unknown session {session_id!r}")
            if trace is not None:
                session.trace = trace
            ticket = SessionTicket()
            try:
                session.shard.queue.put_nowait(("end", session, ticket))
            except queue.Full:
                self._note_busy()
                return None
            del self._sessions[session_id]
            return ticket

    # ------------------------------------------------------------------ #
    # Hot swap
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """The current compile generation (0 = the rules the pool opened with)."""
        return self._generation

    @property
    def compiled(self) -> CompiledRuleSet:
        """The compiled rule set new sessions are currently admitted under."""
        return self._compiled

    def swap(self, rules: Union[RuleSource, CompiledRuleSet]) -> int:
        """Install a new compiled generation; returns its generation number.

        In-flight sessions keep the generation they were admitted under
        (their matching state is only meaningful against it) and finish on
        it; sessions admitted after the swap serve the new rule set.  The
        swap itself is a reference assignment — no monitoring work pauses.
        """
        compiled = (
            rules if isinstance(rules, CompiledRuleSet) else compile_rules(rules)
        )
        with self._lock:
            self._compiled = compiled
            self._generation += 1
            return self._generation

    # ------------------------------------------------------------------ #
    # Aggregation and introspection
    # ------------------------------------------------------------------ #
    def report(self) -> MonitoringReport:
        """The merged report over every *closed* session, in admission order.

        Sessions still open contribute nothing until they end.  The shards'
        folded counts add up in any order; the shards' violation logs are
        merged in admission order.  That makes the aggregate
        deterministic and byte-identical to one :class:`StreamingMonitor`
        fed the same sessions sequentially — regardless of how their events
        interleaved across shards — at a cost proportional to the number of
        violations, not to the number of sessions served.
        """
        combined = MonitoringReport()
        logs: List[ViolationLog] = []
        for shard in self._shards:
            with shard.lock:
                combined.merge_counts(shard.totals)
                logs.append(shard.violations.copy())
        combined.log = ViolationLog.in_trace_order(logs)
        return combined

    def rule_analytics(self) -> Dict[str, Dict[str, int]]:
        """Per-rule serving analytics merged across shards (closed sessions).

        ``rule key -> {"opened", "satisfied", "violated", "trie_advances"}``
        — the ANALYTICS wire verb's payload and the rule-ranking feed.
        Each shard's tally is read under its own lock and summed key-wise;
        addition commutes, so the merge is order-free.  Sessions still open
        contribute nothing until they close.
        """
        return RuleTally.analytics(RuleTally.merged(shard.tally for shard in self._shards))

    def _export_rule_metrics(self) -> None:
        """Bring the ``repro_rule_*`` families up to date with the shard
        tallies (a registry collector: runs when the registry is scraped,
        and once more when the pool closes).

        Only the growth since the previous export is recorded, so counters
        stay monotonic and several pools in one process add up.  While
        metrics are muted the growth is dropped, as muted record calls are.
        """
        with self._export_lock:
            current = RuleTally.merged(shard.tally for shard in self._shards)
            RuleTally.record_growth(current, self._exported)
            self._exported = current

    def shard_liveness(self) -> List[bool]:
        """Whether each shard's worker thread is currently alive.

        A dead entry is transient — the supervisor restarts crashed shards
        within one poll interval — but a readiness probe (``/healthz``)
        reports it so flapping shards are visible.
        """
        return [shard.thread.is_alive() for shard in self._shards]

    @property
    def active_sessions(self) -> int:
        """Sessions admitted and not yet closed."""
        with self._lock:
            return len(self._sessions)

    def stats(self) -> Dict[str, object]:
        """Counters for the ``STATS`` control verb and operations."""
        with self._lock:
            active = len(self._sessions)
            opened = self._sessions_opened
            busy = self._busy_rejections
            generation = self._generation
            rules = len(self._compiled)
            sessions_lost = self._sessions_lost
        shard_stats = [shard.stats() for shard in self._shards]
        # Scrape-time gauges: levels (not events), so they are *set* from
        # the consistent per-shard snapshots rather than incremented.
        obs_metrics.POOL_SESSIONS_ACTIVE.set(active)
        for entry in shard_stats:
            obs_metrics.POOL_QUEUE_DEPTH.set(entry["queued"], shard=entry["shard"])
        return {
            "shards": len(self._shards),
            "queue_depth": self.queue_depth,
            "generation": generation,
            "rules": rules,
            "sessions_active": active,
            "sessions_opened": opened,
            "sessions_closed": sum(entry["sessions_closed"] for entry in shard_stats),
            "events_processed": sum(entry["events_processed"] for entry in shard_stats),
            "busy_rejections": busy,
            "restarts": sum(entry["restarts"] for entry in shard_stats),
            "sessions_lost": sessions_lost,
            "per_shard": shard_stats,
        }

    # ------------------------------------------------------------------ #
    # Shard control and lifecycle
    # ------------------------------------------------------------------ #
    def pause_shard(self, index: int) -> None:
        """Stall one shard's worker (drains/tests); queued work waits."""
        self._shards[index].pause()

    def resume_shard(self, index: int) -> None:
        self._shards[index].resume()

    def drain(self, timeout: float = 10.0) -> bool:
        """Best-effort wait until every shard queue is empty.

        The item a worker already holds may still be in flight when this
        returns; session closes have their own exact barrier
        (:meth:`SessionTicket.wait`).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(shard.queue.empty() for shard in self._shards):
                return True
            time.sleep(0.005)
        return False

    def drain_sessions(self, timeout: float = 10.0) -> int:
        """Close every open session and wait for the reports; return the count.

        The graceful-shutdown path (``repro serve`` on SIGTERM): each open
        session is ended — retrying briefly through :data:`BUSY` — and the
        resulting tickets awaited so their reports land in the aggregate
        before the pool is closed.  Sessions that cannot be closed inside
        ``timeout`` (a wedged or repeatedly crashing shard) are abandoned;
        the return value counts the sessions whose close completed.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            session_ids = sorted(self._sessions)
        tickets: List[SessionTicket] = []
        for session_id in session_ids:
            while True:
                try:
                    ticket = self.end_session(session_id)
                except MonitoringError:
                    break  # lost or already closed concurrently
                if ticket is not None:
                    tickets.append(ticket)
                    break
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.005)  # BUSY: give the shard room to drain
        closed = 0
        for ticket in tickets:
            try:
                ticket.wait(timeout=max(0.0, deadline - time.monotonic()))
                closed += 1
            except MonitoringError:
                continue  # timed out or lost; counted sessions only
        return closed

    def close(self) -> None:
        """Stop every shard worker and export the per-rule growth no scrape
        has recorded yet.  Open sessions are abandoned unclosed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._supervisor.join(timeout=self._supervisor_interval * 20 + 1.0)
        for shard in self._shards:
            shard.stop()
        # Closes since the last scrape would otherwise never reach the
        # registry: export once more before the collector goes away.
        self._export_rule_metrics()
        obs_metrics.REGISTRY.remove_collector(self._export_rule_metrics)

    def __enter__(self) -> "MonitorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
