"""Watch-mode serving daemon: tail a directory, re-mine, hot-swap, monitor.

:class:`WatchDaemon` closes the mine→serve→monitor loop in one poll-based
process with no dependencies beyond the standard library:

1. **tail** — each cycle scans a watched directory for trace files it has
   not ingested yet (any registered format, ``.gz`` included) and appends
   each new file to a :class:`~repro.ingest.store.TraceStore` as one
   atomic batch (a file that fails to parse commits nothing and is retried
   when its size or mtime changes);
2. **re-mine** — appended batches trigger an
   :class:`~repro.ingest.incremental.IncrementalMiner` refresh, which
   re-mines only the first-level roots the new traces touched;
3. **hot-swap** — when the refreshed rule set differs from the one being
   served, it is compiled into a fresh
   :class:`~repro.serving.compile.CompiledRuleSet` and swapped in with a
   single attribute assignment (in-flight monitoring sessions keep the
   automaton they started with; new sessions see the new generation), and
   the optional specification repository JSON is rewritten with the
   store-fingerprint provenance of the new generation;
4. **monitor** — the traces ingested this cycle are streamed through a
   :class:`~repro.serving.stream_monitor.StreamingMonitor` over the
   current automaton, with corpus-wide trace indexes, and the violations
   are reported through the cycle callback and the daemon's cumulative
   report.

``run_once`` executes one cycle (what the tests drive); ``run_forever``
polls with a sleep between cycles until ``max_cycles`` or Ctrl-C.  Every
poll cycle counts toward ``max_cycles``, including cycles that find no new
files — the limit bounds *wall-clock polling*, not ingest work (pinned by
``tests/serving/test_daemon.py``).

**Push mode**: with ``push_port`` set, the daemon additionally hosts the
serving plane's socket front end (:class:`~repro.serving.server
.EventPushServer` over a :class:`~repro.serving.pool.MonitorPool`): live
sessions push events over TCP while the daemon keeps mining the watched
directory, and every hot swap of the daemon's automaton also installs a
new compile generation in the pool — in-flight push sessions finish on the
generation they started with, new ones serve the fresh rules.  The pool's
violation reports are a separate surface from the daemon's own file-based
:attr:`monitoring` (push sessions are numbered in admission order, file
traces corpus-wide).
"""

from __future__ import annotations

import gzip
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.errors import DataFormatError
from ..durability.journal import atomic_write_text
from ..engine import ExecutionBackend
from ..ingest.formats import format_for_path
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.httpexpo import MetricsHTTPServer
from ..ingest.incremental import IncrementalMiner, RefreshReport
from ..ingest.store import BatchInfo, TraceStore
from ..rules.rule import RecurrentRule
from ..specs.repository import SpecificationRepository
from ..verification.violations import MonitoringReport
from .compile import CompiledRuleSet, compile_rules
from .pool import DEFAULT_QUEUE_DEPTH, MonitorPool
from .server import EventPushServer
from .stream_monitor import StreamingMonitor

PathLike = Union[str, Path]

#: File-identity key used to retry failed files only when they change.
_StatKey = Tuple[int, int]

#: Everything an ingest attempt can raise that *may* mean "this file, not
#: the daemon, is broken": parse errors, undecodable bytes, truncated gzip
#: members (EOFError, gzip.BadGzipFile), and filesystem races.  A
#: long-running daemon records these per file and moves on — except
#: OSErrors that are not clearly about the watched file (see
#: :meth:`WatchDaemon._is_input_failure`): a full disk or an unwritable
#: store must surface, not masquerade as a bad input file.
_INGEST_ERRORS = (DataFormatError, OSError, UnicodeError, EOFError)


@dataclass
class WatchCycle:
    """What one daemon cycle actually did."""

    index: int
    ingested: List[Tuple[Path, BatchInfo]] = field(default_factory=list)
    failed: List[Tuple[Path, str]] = field(default_factory=list)
    traces_added: int = 0
    refresh: Optional[RefreshReport] = None
    rules_served: int = 0
    swapped: bool = False
    monitoring: Optional[MonitoringReport] = None
    elapsed_seconds: float = 0.0

    @property
    def violation_count(self) -> int:
        """Violations found among this cycle's newly ingested traces."""
        return self.monitoring.violation_count if self.monitoring else 0


class WatchDaemon:
    """The mine→serve→monitor loop over a watched trace directory.

    Parameters
    ----------
    directory:
        The directory to tail.  Only files whose suffix resolves to a
        registered trace format are considered (unless ``format`` pins
        one); other files are ignored.
    store:
        The backing :class:`TraceStore` (or a path; created if missing).
        May already hold traces — the first cycle mines and serves them
        before looking at any new file.
    rule_miner:
        A recurrent-rule miner implementing the incremental protocol
        (either of :class:`~repro.rules.full_miner.FullRecurrentRuleMiner`
        / :class:`~repro.rules.nonredundant_miner.NonRedundantRecurrentRuleMiner`).
    backend:
        Optional execution backend for the re-mines.
    format:
        Pin every watched file to one format instead of per-file suffix
        detection.
    repository_path:
        When given, a :class:`SpecificationRepository` JSON is rewritten
        there on every hot swap, carrying the store fingerprint as
        provenance.
    persist_cache:
        Persist the incremental miner's record cache into the store
        directory so a daemon restart resumes instead of re-mining.
    on_cycle:
        Callback invoked with each finished :class:`WatchCycle`.
    push_port:
        When given, host the event-push socket front end on this port
        (``0`` = ephemeral; the bound address is :attr:`push_address`).
        The pool serves the daemon's current automaton and is hot-swapped
        with it.
    push_host / push_shards / push_queue_depth:
        Bind host and pool sizing for push mode.
    http_port:
        When given, host the HTTP exposition sidecar
        (:class:`~repro.obs.httpexpo.MetricsHTTPServer`) on this port
        (``0`` = ephemeral; the bound address is :attr:`http_address`):
        ``/metrics``, ``/healthz`` (fed by this daemon's backoff state and
        the pool's shard liveness) and ``/statusz``.
    http_host:
        Bind host for the HTTP sidecar (default loopback).
    """

    def __init__(
        self,
        directory: PathLike,
        store: Union[TraceStore, PathLike],
        rule_miner,
        *,
        backend: Optional[ExecutionBackend] = None,
        format: Optional[str] = None,
        repository_path: Optional[PathLike] = None,
        persist_cache: bool = False,
        on_cycle: Optional[Callable[[WatchCycle], None]] = None,
        push_port: Optional[int] = None,
        push_host: str = "127.0.0.1",
        push_shards: int = 4,
        push_queue_depth: int = DEFAULT_QUEUE_DEPTH,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
    ) -> None:
        # Resolved so a restart with a different spelling of the same
        # directory (relative vs absolute, trailing ..) still recognises
        # the files it already ingested.
        self.directory = Path(directory).resolve()
        self.store = store if isinstance(store, TraceStore) else TraceStore(store)
        self.format = format
        self.backend = backend
        self.repository_path = Path(repository_path) if repository_path else None
        self.on_cycle = on_cycle
        self.incremental = IncrementalMiner(
            rule_miner, self.store, backend=backend, persist=persist_cache
        )
        #: The automaton currently being served (hot-swapped in place).
        self.compiled: CompiledRuleSet = compile_rules(())
        self.repository = SpecificationRepository(name="watch")
        #: Cumulative monitoring report over every trace seen by the daemon.
        self.monitoring = MonitoringReport()
        self.cycles_run = 0
        self.swaps = 0
        # Cycle-failure bookkeeping (run_forever's backoff; see
        # docs/robustness.md): run_once still *raises* so embedders keep
        # exact errors, but the loop degrades to exponential backoff and
        # reports the failure in watch_state.json instead of dying.
        self.cycle_failures = 0
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self.current_backoff = 0.0
        self._served_rules: Optional[Tuple[RecurrentRule, ...]] = None
        self._ingested: set = set()
        self._failed: Dict[Path, _StatKey] = {}
        # Which files were already appended survives restarts next to the
        # store (otherwise a restarted daemon would re-append everything
        # still sitting in the watched directory, duplicating the corpus).
        self._state_path = self.store.directory / "watch_state.json"
        self._load_watch_state()
        #: Push mode: the pool + socket front end, live for the daemon's
        #: whole life and hot-swapped together with :attr:`compiled`.
        self.pool: Optional[MonitorPool] = None
        self.push_server: Optional[EventPushServer] = None
        if push_port is not None:
            self.pool = MonitorPool(
                self.compiled, shards=push_shards, queue_depth=push_queue_depth
            )
            self.push_server = EventPushServer(self.pool, host=push_host, port=push_port)
            self.push_server.start()
        #: HTTP exposition sidecar (``/metrics``, ``/healthz``, ``/statusz``).
        self.http_server: Optional[MetricsHTTPServer] = None
        if http_port is not None:
            self.http_server = MetricsHTTPServer(
                host=http_host, port=http_port, pool=self.pool, daemon=self
            )
            self.http_server.start()

    @property
    def push_address(self) -> Optional[Tuple[str, int]]:
        """The push front end's bound ``(host, port)``; ``None`` without push mode."""
        return self.push_server.address if self.push_server is not None else None

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """The HTTP sidecar's bound ``(host, port)``; ``None`` when not hosted."""
        return self.http_server.address if self.http_server is not None else None

    def close(self) -> None:
        """Stop the sidecars (HTTP, server, then pool).  Safe to call repeatedly."""
        if self.http_server is not None:
            self.http_server.close()
            self.http_server = None
        if self.push_server is not None:
            self.push_server.close()
            self.push_server = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # ------------------------------------------------------------------ #
    # Watch-state persistence
    # ------------------------------------------------------------------ #
    def _load_watch_state(self) -> None:
        """Adopt the ingested-file map a previous daemon left in the store.

        The state names a store fingerprint; it is only adopted when that
        fingerprint is part of this store's batch chain, so state written
        against a store that was since wiped or replaced is discarded (the
        files would genuinely need re-ingesting into the fresh store).
        """
        if not self._state_path.is_file():
            return
        try:
            payload = json.loads(self._state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict) or payload.get("version") != 1:
            return
        fingerprint = payload.get("fingerprint", "")
        chain = [batch.fingerprint for batch in self.store.batches]
        if fingerprint and fingerprint not in chain:
            return
        for raw_path in payload.get("ingested", []):
            self._ingested.add(Path(raw_path).resolve())

    def _save_watch_state(self) -> None:
        payload = {
            "version": 1,
            "fingerprint": self.store.fingerprint,
            # A plain path list: an ingested file is final (its traces are
            # in the store); later edits to it are deliberately ignored,
            # so no per-file stat is kept.
            "ingested": sorted(str(path) for path in self._ingested),
        }
        if self.last_error is not None:
            # Failure telemetry for operators tailing the state file: what
            # broke the last cycle(s) and how far the backoff has climbed.
            # Extra keys on version 1 — old readers ignore them.
            payload["error"] = {
                "message": self.last_error,
                "consecutive_failures": self.consecutive_failures,
                "total_failures": self.cycle_failures,
                "next_backoff_seconds": self.current_backoff,
            }
        # Durable (fsynced) atomic replace: the state file is the record
        # of which files are already in the store — losing it to a power
        # failure would re-ingest everything on the next boot.
        atomic_write_text(self._state_path, json.dumps(payload, indent=2) + "\n")

    # ------------------------------------------------------------------ #
    # Directory tailing
    # ------------------------------------------------------------------ #
    def _is_trace_file(self, path: Path) -> bool:
        if not path.is_file():
            return False
        try:
            format_for_path(path, self.format)
        except DataFormatError:
            return False
        return True

    @staticmethod
    def _stat_key(path: Path) -> Optional[_StatKey]:
        """Size + mtime identity, or ``None`` when the file vanished."""
        try:
            stat = path.stat()
        except OSError:
            return None
        return (stat.st_size, stat.st_mtime_ns)

    def _discover(self) -> List[Path]:
        """Trace files to attempt this cycle, in deterministic name order.

        A path is pending when it was never ingested, or when it failed
        before but its size/mtime changed since (a half-written file that
        has since been completed, or a fixed syntax error).  Files vanishing
        mid-scan are simply not pending — the directory is someone else's
        and races with its writers must never kill the daemon.
        """
        pending: List[Path] = []
        for path in sorted(self.directory.iterdir()):
            if not self._is_trace_file(path) or path in self._ingested:
                continue
            key = self._stat_key(path)
            if key is None or self._failed.get(path) == key:
                continue
            pending.append(path)
        return pending

    # ------------------------------------------------------------------ #
    # One cycle
    # ------------------------------------------------------------------ #
    def run_once(self) -> WatchCycle:
        """Tail → ingest → incremental re-mine → hot-swap → monitor, once."""
        with tracing.span("daemon.cycle", index=self.cycles_run):
            return self._run_once()

    def _run_once(self) -> WatchCycle:
        started = time.perf_counter()
        cycle = WatchCycle(index=self.cycles_run)

        for path in self._discover():
            key = self._stat_key(path)
            try:
                info = self.store.append_trace_file(path, format=self.format)
            except _INGEST_ERRORS as error:
                if not self._is_input_failure(error, path):
                    raise
                if key is not None:
                    self._failed[path] = key
                cycle.failed.append((path, f"{type(error).__name__}: {error}"))
                continue
            self._ingested.add(path)
            self._failed.pop(path, None)
            # State is saved per committed append, not per cycle: a crash
            # between the store commit and the state save may otherwise
            # re-append this file (= duplicate traces) on restart.
            self._save_watch_state()
            if info is None:
                continue  # no traces: nothing committed, nothing to monitor
            cycle.ingested.append((path, info))
            cycle.traces_added += info.traces

        # Re-mine only when something changed — plus once at startup, so a
        # pre-populated store serves immediately.
        if cycle.ingested or self._served_rules is None:
            with tracing.span("daemon.refresh", traces=cycle.traces_added):
                result, cycle.refresh = self.incremental.refresh(backend=self.backend)
            cycle.swapped = self._swap(tuple(result.rules))

        if cycle.ingested:
            with tracing.span("daemon.monitor", files=len(cycle.ingested)):
                cycle.monitoring = self._monitor_new_traces(cycle.ingested)
            self.monitoring.merge(cycle.monitoring)

        cycle.rules_served = len(self.compiled)
        cycle.elapsed_seconds = time.perf_counter() - started
        self.cycles_run += 1
        obs_metrics.DAEMON_CYCLE_SECONDS.observe(cycle.elapsed_seconds)
        obs_metrics.DAEMON_CYCLES_TOTAL.inc(
            status="ingest" if cycle.ingested else "idle"
        )
        if self.on_cycle is not None:
            self.on_cycle(cycle)
        return cycle

    @staticmethod
    def _is_input_failure(error: BaseException, path: Path) -> bool:
        """Whether an ingest error is the watched file's fault.

        Parse errors, decode errors and torn gzip data always are.  A bare
        :class:`OSError` is ambiguous: reading the watched file raises one
        carrying that file's name, while the store's own writes raise ones
        naming the store files (or nothing, e.g. ``ENOSPC`` mid-write) —
        those must propagate instead of being pinned on the input forever.
        """
        if not isinstance(error, OSError) or isinstance(error, gzip.BadGzipFile):
            return True
        filename = getattr(error, "filename", None)
        return filename is not None and Path(filename) == path

    def _swap(self, rules: Tuple[RecurrentRule, ...]) -> bool:
        """Hot-swap the served automaton when the mined rules changed.

        Rule equality includes the statistics, so a support or confidence
        move alone is a new generation (downstream ranking and provenance
        depend on the numbers, not just the shapes).
        """
        if self._served_rules == rules:
            return False
        if self._served_rules is None and not rules:
            # First generation over an empty (or rule-free) corpus: the
            # vacuous automaton is already serving; nothing swapped.
            self._served_rules = rules
            return False
        self.compiled = compile_rules(rules)
        self._served_rules = rules
        self.swaps += 1
        obs_metrics.DAEMON_SWAPS_TOTAL.inc()
        if self.pool is not None:
            # Push sessions already open finish on their admission
            # generation; new sessions pick up this compile.
            self.pool.swap(self.compiled)
        self.repository.replace_rules(
            rules,
            source=SpecificationRepository.provenance_from(self.store.describe()),
        )
        if self.repository_path is not None:
            self.repository.save(self.repository_path)
        return True

    def _monitor_new_traces(
        self, ingested: List[Tuple[Path, BatchInfo]]
    ) -> MonitoringReport:
        """Stream this cycle's new traces through the current automaton.

        Trace indexes are corpus-wide (the position of each trace in the
        store), so a violation report names the same trace a later offline
        audit of the store would.
        """
        combined = MonitoringReport()
        vocabulary = self.store.vocabulary
        for _, info in ingested:
            first_index = sum(batch.traces for batch in self.store.batches[: info.index])
            monitor = StreamingMonitor(self.compiled, first_trace_index=first_index)
            for trace in self.store.iter_traces(
                start_batch=info.index, stop_batch=info.index + 1
            ):
                monitor.check_trace(vocabulary.decode(trace.events), name=trace.name)
            combined.merge(monitor.report())
        return combined

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def run_forever(
        self,
        poll_interval: float = 2.0,
        max_cycles: Optional[int] = None,
        max_backoff: float = 60.0,
    ) -> int:
        """Poll until ``max_cycles`` (``None`` = forever) or KeyboardInterrupt.

        A cycle that raises does not kill the loop: the failure is counted,
        written into ``watch_state.json`` (an ``error`` block with the
        message and the backoff state) and the next cycle is delayed by an
        exponential backoff — ``poll_interval * 2**consecutive_failures``,
        capped at ``max_backoff`` — so a persistently broken store or
        input cannot spin the daemon hot.  The first successful cycle
        clears the error block and returns to the normal poll interval.
        Failed cycles count toward ``max_cycles`` so a bounded run always
        terminates.

        Returns the number of cycles that ran successfully.
        """
        try:
            while max_cycles is None or self.cycles_run + self.cycle_failures < max_cycles:
                try:
                    self.run_once()
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    self.cycle_failures += 1
                    self.consecutive_failures += 1
                    obs_metrics.DAEMON_CYCLES_TOTAL.inc(status="failed")
                    self.last_error = f"{type(error).__name__}: {error}"
                    delay = min(
                        poll_interval * (2.0 ** self.consecutive_failures), max_backoff
                    )
                    self.current_backoff = delay
                    self._report_cycle_failure()
                else:
                    delay = poll_interval
                    if self.consecutive_failures:
                        # Recovered: clear the error block for operators.
                        self.consecutive_failures = 0
                        self.last_error = None
                        self.current_backoff = 0.0
                        self._report_cycle_failure()
                if max_cycles is not None and self.cycles_run + self.cycle_failures >= max_cycles:
                    break
                time.sleep(delay)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        return self.cycles_run

    def _report_cycle_failure(self) -> None:
        """Persist the error block; best-effort (the disk may be the problem)."""
        try:
            self._save_watch_state()
        except OSError:
            pass
