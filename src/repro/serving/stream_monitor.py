"""Streaming runtime monitoring over a compiled rule automaton.

:class:`StreamingMonitor` consumes events and traces *incrementally* —
``feed`` one event at a time, ``end_trace`` when a trace closes, ``report``
for the running aggregate — and emits byte-for-byte the same violations
(:class:`~repro.verification.violations.RuleViolation`, kept as ints in
the report's :class:`~repro.verification.violations.ViolationLog`) that a
re-scanning reference monitor derives from the temporal-points semantics.  The
hypothesis parity suite in ``tests/serving/`` pins it against that
reference (``tests/oracles/monitor.py``) and the LTL translation.

The work splits between the two calls:

* **feed is O(1) per event** and touches no rule.  It appends the
  position to its symbol's occurrence list, advances the premise trie
  (noting the position at which each trie node is reached — the rules
  armed there are armed from that position on) and fires the one-shot
  clock watches that stamp when an armed group of rules opens its first
  point.  Events outside every rule fall out of the symbol table.
* **close is O(armed groups · log n + armed rules · log n)**.  The rules
  a trie node arms are grouped by ``last(premise)``, and every rule of a
  group has the same temporal points: the occurrences of that symbol
  strictly after the node's arming position.  Close settles each reached
  group with one bisect and one clock read.  For each distinct
  consequent, one backward greedy walk (one bisect per consequent event)
  finds the latest position at which a consequent embedding can start;
  a rule's points strictly before it are satisfied, every later point is
  a violation (one bisect per violating rule).  Only the violating rules
  are sorted by rule id, which keeps the violation order of a full scan.

An open trace therefore holds one int per rule-relevant event rather than
the pending points of every rule.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from operator import add, itemgetter, sub
from typing import (
    DefaultDict,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence as TypingSequence,
    Set,
    Tuple,
)

from ..core.errors import MonitoringError
from ..core.events import EventLabel
from ..core.sequence import SequenceDatabase
from ..obs import metrics as obs_metrics
from ..verification.violations import MonitoringReport
from .compile import CompiledRuleSet, NodeId, RuleSource, Symbol, compile_rules

#: At most this many compiled sets (generations) have columns in one
#: :class:`RuleTally` between reads; a close on one more folds the oldest
#: into the per-key slots, so a server that swaps often and is never
#: scraped holds a bounded tally.
MAX_HELD_GENERATIONS = 4


class _Columns:
    """One compiled rule set's analytics since the tally was last read,
    in int columns indexed by that set's own ids."""

    __slots__ = ("reached", "opened", "active", "buckets", "violated")

    def __init__(self, compiled: CompiledRuleSet, buckets: int) -> None:
        groups = len(compiled.group_rules)
        #: Node id -> closes that reached it (each reach arms its rules).
        self.reached = [0] * len(compiled.children)
        #: Group id -> points opened (every rule of the group opened them).
        self.opened = [0] * groups
        #: Group id -> summed active seconds, one observation per close
        #: that opened a point.
        self.active = [0.0] * groups
        #: Group id * buckets + bucket -> active-seconds observations.
        self.buckets = [0] * (groups * buckets)
        #: Rule id -> violated points (the rest of its group's are satisfied).
        self.violated = [0] * len(compiled)


class RuleTally:
    """Per-rule serving analytics summed over closed traces.

    Each rule key maps to one flat slot in the layout
    ``[opened, satisfied, violated, trie_advances, active_seconds_sum,
    *active_seconds_bucket_counts]``, the buckets being those of
    ``repro_rule_active_seconds``.  This class is the only code that knows
    the layout.  Every entry is a plain sum, so tallies merge by
    element-wise addition in any order.

    A close does not touch the slots: it folds, under the tally's lock,
    the trie nodes it reached, one ``(opened, active seconds)``
    observation per point-opening group and the violated count of each
    violating rule into int columns of its compiled rule set.  A read
    folds the columns into the per-key slots and drops them, so the tally
    holds columns only for the compiled sets (generations) that closed a
    trace since the last read — and for at most
    :data:`MAX_HELD_GENERATIONS` of them.

    A :class:`~repro.serving.pool.MonitorPool` shard shares one tally among
    all its sessions' monitors, and that tally is the only place the pool
    keeps per-rule analytics.  The pool records the growth of its merged
    tallies onto the ``repro_rule_*`` families when the registry is
    scraped (:meth:`record_growth`) instead of writing the registry per
    close.
    """

    BOUNDS = obs_metrics.RULE_ACTIVE_SECONDS.buckets
    #: Active-seconds buckets per observation: one per bound, plus ``+Inf``.
    BUCKETS = len(BOUNDS) + 1

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._slots: Dict[str, List[float]] = {}
        self._columns: Dict[CompiledRuleSet, _Columns] = {}

    def fold(
        self,
        compiled: CompiledRuleSet,
        reached: Iterable[Tuple[NodeId, int]],
        opened: Iterable[Tuple[int, int, float]],
        violating: Iterable[Tuple[int, int, List[int]]],
        closed_at: float,
    ) -> None:
        """Add one closed trace (the parts of :meth:`_TraceRun.close`'s
        result): its ``(node, position)`` reaches, its ``(group, opened,
        perf_counter of the first point)`` observations and its ``(rule
        id, index of the first violated point, points)`` violations."""
        bounds, width = self.BOUNDS, self.BUCKETS
        with self._lock:
            columns = self._columns.get(compiled)
            if columns is None:
                if len(self._columns) == MAX_HELD_GENERATIONS:
                    self._retire(next(iter(self._columns)))  # the oldest
                columns = self._columns[compiled] = _Columns(compiled, width)
            column = columns.reached
            for node, _ in reached:
                column[node] += 1
            column, active, buckets = columns.opened, columns.active, columns.buckets
            for group, count, first_open in opened:
                column[group] += count
                seconds = closed_at - first_open
                active[group] += seconds
                # ``le`` buckets: the first bound >= the observation.
                buckets[group * width + bisect_left(bounds, seconds)] += 1
            column = columns.violated
            for rule_id, cut, points in violating:
                column[rule_id] += len(points) - cut

    def _retire(self, compiled: CompiledRuleSet) -> None:
        """Fold one compiled set's columns into the per-key slots and drop
        them (under the lock)."""
        columns = self._columns.pop(compiled)
        slots, width = self._slots, self.BUCKETS
        keys, violated = compiled.keys, columns.violated
        for group, rules in enumerate(compiled.group_rules):
            advances = columns.reached[compiled.group_node[group]]
            if not advances:
                continue  # never armed: no analytics
            points = columns.opened[group]
            shared = [advances, columns.active[group]]
            shared += columns.buckets[group * width:(group + 1) * width]
            for rule_id in rules:
                row = [points, points - violated[rule_id], violated[rule_id], *shared]
                slot = slots.get(keys[rule_id])
                slots[keys[rule_id]] = row if slot is None else list(map(add, slot, row))

    @staticmethod
    def merged(tallies: Iterable["RuleTally"]) -> Dict[str, List[float]]:
        """Element-wise sum of the tallies' slots (each read under its lock)."""
        totals: Dict[str, List[float]] = {}
        for tally in tallies:
            with tally._lock:
                for compiled in list(tally._columns):
                    tally._retire(compiled)
                for key, slot in tally._slots.items():
                    total = totals.get(key)
                    totals[key] = list(slot) if total is None else list(map(add, total, slot))
        return totals

    @staticmethod
    def record_growth(
        current: Dict[str, List[float]], before: Dict[str, List[float]]
    ) -> None:
        """Record the growth from ``before`` to ``current`` (two
        :meth:`merged` results, ``before`` the older) onto the three
        ``repro_rule_*`` metric families."""
        for key, slot in current.items():
            previous = before.get(key)
            if previous is not None:
                if slot == previous:
                    continue
                slot = list(map(sub, slot, previous))
            for outcome, value in zip(("opened", "satisfied", "violated"), slot):
                if value:
                    obs_metrics.RULE_POINTS_TOTAL.inc(value, rule=key, outcome=outcome)
            if slot[3]:
                obs_metrics.RULE_TRIE_ADVANCES_TOTAL.inc(slot[3], rule=key)
            buckets = slot[5:]
            if any(buckets):
                obs_metrics.RULE_ACTIVE_SECONDS.add(buckets, slot[4], rule=key)

    @staticmethod
    def analytics(slots: Dict[str, List[float]]) -> Dict[str, Dict[str, int]]:
        """The ``ANALYTICS`` view of a slot dict, sorted by rule key."""
        return {
            key: {
                "opened": slot[0],
                "satisfied": slot[1],
                "violated": slot[2],
                "trie_advances": slot[3],
            }
            for key, slot in sorted(slots.items())
        }


class _TraceRun:
    """Mutable matching state of one in-flight trace."""

    __slots__ = (
        "trace_index",
        "name",
        "position",
        "positions",
        "node_watch",
        "reached",
        "open_watch",
        "opened_at",
    )

    def __init__(self, compiled: CompiledRuleSet, trace_index: int, name: Optional[str]) -> None:
        self.trace_index = trace_index
        self.name = name
        self.position = -1
        #: symbol -> ascending positions of its occurrences in this trace.
        self.positions: DefaultDict[Symbol, List[int]] = defaultdict(list)
        #: symbol -> trie nodes reachable from an already-reached node via
        #: that symbol.  This is the trie's "failure function" in disguise:
        #: a mismatching event touches none of the waiting nodes.
        self.node_watch: Dict[Symbol, List[NodeId]] = {}
        #: (trie node, position it was reached at) for every node that arms
        #: rules; the root is reached before the first event.
        self.reached: List[Tuple[NodeId, int]] = []
        #: ``last(premise)`` symbols of armed groups whose next occurrence
        #: opens some group's first point (one-shot clock watches).
        self.open_watch: Set[Symbol] = set()
        #: position -> perf_counter when a watched symbol occurred there.
        self.opened_at: Dict[int, float] = {}
        self._reach(compiled, 0)

    def _reach(self, compiled: CompiledRuleSet, node: NodeId) -> None:
        """Activate a trie node: register its children, note its arming."""
        for symbol, child in compiled.children[node].items():
            self.node_watch.setdefault(symbol, []).append(child)
        groups = compiled.arm_groups[node]
        if groups:
            self.reached.append((node, self.position))
            self.open_watch.update(groups)

    def feed(self, compiled: CompiledRuleSet, event: EventLabel) -> None:
        self.position += 1
        symbol = compiled.symbol_of.get(event)
        if symbol is None:
            return
        self.positions[symbol].append(self.position)
        # Rules armed strictly before this position open their first point
        # here; a node reached at this very position watches from the next
        # event on, so the trie advances last.
        if symbol in self.open_watch:
            self.open_watch.discard(symbol)
            self.opened_at[self.position] = time.perf_counter()
        reached = self.node_watch.pop(symbol, None)
        if reached is not None:
            for node in reached:
                self._reach(compiled, node)

    def _latest_start(self, consequent: Tuple[Symbol, ...]) -> int:
        """The latest position a consequent embedding starts at, or -1.

        A backward greedy walk: the last occurrence of the consequent's last
        event, then the last occurrence of each earlier event before that.
        """
        before = self.position + 1
        positions = self.positions
        for symbol in reversed(consequent):
            occurrences = positions.get(symbol)
            index = bisect_left(occurrences, before) - 1 if occurrences else -1
            if index < 0:
                return -1
            before = occurrences[index]
        return before

    def close(
        self, compiled: CompiledRuleSet
    ) -> Tuple[MonitoringReport, List[Tuple[int, int, float]], List[Tuple[int, int, List[int]]]]:
        """Finish the trace: settle every armed group's temporal points.

        Only the groups this trace armed are visited — a rule never armed
        has no points and no analytics — so the cost is
        O(armed groups · log n + armed rules · log n), not O(rule set).
        (A rule whose premise is one event is armed at the root, i.e. by
        every trace.)  Each group costs one bisect for its points and one
        clock read; each of its rules one cached consequent start, and one
        bisect if it has a violation.  Each violation is logged as its
        rule id and position (no record is built); sorting only the
        violating rules by rule id keeps the violation order of a full
        scan.

        Returns the trace's report, one ``(group, opened, perf_counter of
        its first point)`` per group that opened a point, and ``(rule id,
        index of its first violated point, the points)`` per violating
        rule — with :attr:`reached`, what :meth:`RuleTally.fold` takes.
        """
        report = MonitoringReport()
        arm_groups, group_rules = compiled.arm_groups, compiled.group_rules
        consequents = compiled.consequents
        positions, opened_at = self.positions, self.opened_at
        latest: Dict[Tuple[Symbol, ...], int] = {}
        opened_groups: List[Tuple[int, int, float]] = []
        violating: List[Tuple[int, int, List[int]]] = []
        total = 0
        for node, armed in self.reached:
            for symbol, group in arm_groups[node].items():
                # The group's points: occurrences of last(premise) after
                # the arming.
                points = positions.get(symbol)
                if points is None or points[-1] <= armed:
                    continue
                first = bisect_right(points, armed)
                rules = group_rules[group]
                total += (len(points) - first) * len(rules)
                opened_groups.append((group, len(points) - first, opened_at[points[first]]))
                last = points[-1]
                for rule_id in rules:
                    consequent = consequents[rule_id]
                    start = latest.get(consequent)
                    if start is None:
                        start = latest[consequent] = self._latest_start(consequent)
                    # Points before the latest consequent start are
                    # satisfied; the rest are violations.
                    if last >= start:
                        violating.append((rule_id, bisect_left(points, start, first), points))
        violating_rules: List[int] = []
        violating_points: List[int] = []
        if violating:
            violating.sort(key=itemgetter(0))
            for rule_id, cut, points in violating:
                violating_rules += [rule_id] * (len(points) - cut)
                violating_points += points[cut:]
            report.log.append_trace(
                compiled, self.trace_index, self.name, violating_rules, violating_points
            )
        report.total_points = total
        report.satisfied_points = total - len(violating_points)
        return report, opened_groups, violating


class StreamingMonitor:
    """Monitors an event stream against a compiled rule set, incrementally.

    Accepts a :class:`~repro.serving.compile.CompiledRuleSet` (the serving
    path: compile once, monitor many sessions) or anything
    :func:`~repro.serving.compile.compile_rules` accepts (rules, a
    specification repository).  ``first_trace_index`` offsets the trace
    numbering so violations reported by a long-running service reference
    corpus-wide trace indexes.

    One instance monitors one stream of traces *sequentially* and is not
    thread-safe; multi-tenant serving — many concurrent sessions, each its
    own monitor over the one shared compiled set — is the job of
    :class:`~repro.serving.pool.MonitorPool`, which also aggregates the
    per-session reports deterministically (in admission order, so the
    merged report is byte-identical to a single monitor fed the same
    sessions back to back).

    Example
    -------
    >>> monitor = StreamingMonitor(repository.rules)
    >>> for event in live_stream:
    ...     monitor.feed(event)
    >>> trace_report = monitor.end_trace()
    >>> monitor.report().violation_count
    """

    def __init__(
        self,
        rules: RuleSource,
        first_trace_index: int = 0,
        tally: Optional[RuleTally] = None,
    ) -> None:
        self.compiled = (
            rules if isinstance(rules, CompiledRuleSet) else compile_rules(rules)
        )
        self._next_trace_index = first_trace_index
        self._run: Optional[_TraceRun] = None
        self._combined = MonitoringReport()
        #: Completed traces (all sessions' ``end_trace`` calls so far).
        self.traces_seen = 0
        #: Events consumed across completed *and* the in-flight trace.
        self.events_seen = 0
        #: Per-rule analytics, folded once per trace close (never per
        #: event).  A pool passes its shard's tally so that all of the
        #: shard's sessions share one; :meth:`rule_analytics` reads it.
        self.tally = tally if tally is not None else RuleTally()

    # ------------------------------------------------------------------ #
    # Incremental consumption
    # ------------------------------------------------------------------ #
    def begin_trace(self, name: Optional[str] = None) -> None:
        """Open a new trace explicitly (``feed`` auto-opens an unnamed one)."""
        if self._run is not None:
            raise MonitoringError(
                "a trace is already open; call end_trace() before begin_trace()"
            )
        self._run = _TraceRun(self.compiled, self._next_trace_index, name)

    def feed(self, event: EventLabel) -> None:
        """Consume one event of the current trace."""
        if self._run is None:
            self.begin_trace()
        self.events_seen += 1
        self._run.feed(self.compiled, event)

    def feed_many(self, events: Iterable[EventLabel]) -> None:
        """Consume several events of the current trace."""
        for event in events:
            self.feed(event)

    def end_trace(self) -> MonitoringReport:
        """Close the current trace and return *its* monitoring report.

        The per-trace report is also folded into the cumulative
        :meth:`report`.  Premise matches still pending mid-consequent are
        violations — exactly the offline semantics on the finished trace.
        """
        if self._run is None:
            raise MonitoringError("no trace is open; feed events or begin_trace() first")
        run = self._run
        report, opened, violating = run.close(self.compiled)
        self._run = None
        self._next_trace_index += 1
        self.traces_seen += 1
        self._combined.merge(report)
        self.tally.fold(self.compiled, run.reached, opened, violating, time.perf_counter())
        return report

    def check_trace(
        self, trace: TypingSequence[EventLabel], name: Optional[str] = None
    ) -> MonitoringReport:
        """Feed one whole trace and return its report (streaming in one call)."""
        self.begin_trace(name=name)
        self.feed_many(trace)
        return self.end_trace()

    # ------------------------------------------------------------------ #
    # Reports
    # ------------------------------------------------------------------ #
    def report(self) -> MonitoringReport:
        """The cumulative report over every trace ended so far (a copy)."""
        return MonitoringReport().merge(self._combined)

    def rule_analytics(self) -> Dict[str, Dict[str, int]]:
        """Per-rule serving analytics over every closed trace (a copy).

        ``rule key -> {"opened", "satisfied", "violated", "trie_advances"}``
        — the counters the rule-ranking loop consumes.  Values are plain
        sums over closed traces, so merging two monitors' analytics is
        key-wise addition in any order.  Rules no trace armed are absent.
        """
        return RuleTally.analytics(RuleTally.merged([self.tally]))

    def check_database(self, database: SequenceDatabase) -> MonitoringReport:
        """Monitor every trace of a database; returns their combined report.

        Traces are numbered in database order; the parity suite asserts
        the report is identical to the re-scanning reference monitor's.
        """
        combined = MonitoringReport()
        for index in range(len(database)):
            combined.merge(self.check_trace(database[index], name=database.name(index)))
        return combined
