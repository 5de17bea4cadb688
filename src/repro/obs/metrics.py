"""Process-wide metrics registry: labelled counters, gauges, histograms.

Telemetry before this layer was fragmented: :class:`~repro.core.stats.MiningStats`
ad-hoc ``extra`` dicts, one-shot ``MonitorPool.stats()`` snapshots, and
``watch_state.json`` blobs — no latency distributions, no uniform naming,
and no way to scrape a live server.  This module is the single funnel:

* :class:`MetricsRegistry` holds *families* (:class:`Counter`,
  :class:`Gauge`, fixed-bucket :class:`Histogram`), each carrying labelled
  sample children.  All mutation goes through one registry lock, so any
  thread (shard workers, the server's handler threads, the watch daemon)
  can record without coordination.
* Registries are **mergeable**: :meth:`MetricsRegistry.snapshot` produces a
  plain picklable dict and :meth:`MetricsRegistry.merge` folds one in —
  counters and histogram buckets add, gauges keep their maximum — so
  engine *worker processes* ship a delta registry back inside their
  unit outcomes and the coordinator folds them in deterministically,
  exactly like ``MiningStats.merge_counters``.  Merging is commutative and
  associative, so completion order never changes the result.
* :meth:`MetricsRegistry.render_text` renders the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` + samples, deterministically
  ordered), which is what the ``METRICS`` wire verb and ``repro metrics``
  print.

Every metric family the library records is declared at the bottom of this
module against the process-wide :data:`REGISTRY`, so importing any
instrumented module makes the *whole* catalogue visible to a scrape (empty
families still render their ``HELP``/``TYPE`` header).  The catalogue is
documented in ``docs/observability.md``.

Instrumentation can be globally disabled (:func:`set_enabled`) which turns
every record call into an early return — ``benchmarks/bench_obs_overhead.py``
uses this to measure the instrumented-vs-bare delta on the canonical
workloads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "SERVING_BUCKETS",
    "UNIT_BUCKETS",
    "set_enabled",
    "enabled",
    "record_mining_stats",
    "record_rule_close",
    "rule_tally_delta",
    "unit_observation",
    "merge_outcome_metrics",
]

#: Fixed default histogram buckets (seconds).  Spanning 100µs..10s covers
#: everything from a single verb dispatch to a whole mined subtree.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Serving-verb dispatch and per-event work are dominated by
#: sub-millisecond costs the 100µs default floor cannot resolve: 5µs..250ms.
SERVING_BUCKETS: Tuple[float, ...] = (
    0.000005,
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
)

#: Work units and rule/session lifetimes run long-tailed the
#: other way — whole subtrees or whole sessions: 1ms..120s.
UNIT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
)

#: Global enable flag: one module-attribute check per record call when the
#: registry is muted (the ``faults.ACTIVE`` idiom), so the overhead
#: benchmark can compare armed vs. disarmed runs of the same code.
ENABLED: bool = True


def set_enabled(value: bool) -> None:
    """Globally arm (default) or mute every metric record call."""
    global ENABLED
    ENABLED = bool(value)


def enabled() -> bool:
    """Whether record calls currently reach the registry."""
    return ENABLED


def _validated_buckets(name: str, buckets: Sequence[float]) -> Tuple[float, ...]:
    """Validate declared histogram bounds: non-empty, positive, ascending.

    Buckets are part of a family's identity (cross-process merging is only
    exact when both sides share them), so a bad declaration must fail at
    declaration time with a message naming the family — not later as a
    merge conflict or a silently empty bucket.
    """
    bounds = tuple(float(bound) for bound in buckets)
    if not bounds:
        raise ValueError(f"histogram {name!r} needs at least one bucket bound")
    for bound in bounds:
        if not bound > 0:
            raise ValueError(
                f"histogram {name!r} bucket bounds must be positive, got {bound!r}"
            )
    for lower, upper in zip(bounds, bounds[1:]):
        if upper <= lower:
            raise ValueError(
                f"histogram {name!r} bucket bounds must be sorted strictly "
                f"ascending, got {upper!r} after {lower!r}"
            )
    return bounds


def _format_value(value: float) -> str:
    """Render a sample value the Prometheus way (integers without ``.0``)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


def _label_text(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _Family:
    """Shared machinery of one named metric family.

    Samples live in ``self._samples`` keyed by the tuple of label *values*
    (in declared label-name order).  All mutation happens under the owning
    registry's lock, so concurrent recorders from any thread are safe.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = lock
        self._samples: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, got {tuple(labels)}"
            )
        try:
            return tuple(str(labels[name]) for name in self.label_names)
        except KeyError as exc:  # pragma: no cover - caller bug
            raise ValueError(f"metric {self.name!r} missing label {exc}") from exc


class Counter(_Family):
    """A monotonically increasing labelled counter."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if not ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount  # type: ignore[operator]

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))  # type: ignore[arg-type]


class Gauge(_Family):
    """A labelled gauge: a value that can go up and down (queue depths)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1, **labels: object) -> None:
        if not ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount  # type: ignore[operator]

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))  # type: ignore[arg-type]


class Histogram(_Family):
    """A labelled fixed-bucket histogram of observations (seconds).

    Each sample child is ``[bucket_counts, total_sum, total_count]`` where
    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` *non*-
    cumulatively; cumulative counts (and the implicit ``+Inf`` bucket) are
    computed at render/snapshot time.  Fixed shared buckets are what make
    cross-process merging exact.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        lock: threading.Lock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names, lock)
        self.buckets = _validated_buckets(name, buckets)

    def observe(self, value: float, **labels: object) -> None:
        if not ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            child = self._samples.get(key)
            if child is None:
                child = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._samples[key] = child
            counts, _, _ = child  # type: ignore[misc]
            index = len(self.buckets)
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    index = position
                    break
            counts[index] += 1
            child[1] += value  # type: ignore[index]
            child[2] += 1  # type: ignore[index]

    def time(self, **labels: object) -> "_HistogramTimer":
        """Context manager observing the elapsed wall-clock on exit."""
        return _HistogramTimer(self, labels)

    def sample(self, **labels: object) -> Tuple[List[int], float, int]:
        """(non-cumulative bucket counts incl. overflow, sum, count)."""
        key = self._key(labels)
        with self._lock:
            child = self._samples.get(key)
            if child is None:
                return [0] * (len(self.buckets) + 1), 0.0, 0
            counts, total, count = child  # type: ignore[misc]
            return list(counts), float(total), int(count)


class _HistogramTimer:
    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: Histogram, labels: Mapping[str, object]) -> None:
        self._histogram = histogram
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start, **self._labels)


class MetricsRegistry:
    """A set of metric families sharing one lock and one namespace.

    The process-wide instance is :data:`REGISTRY`; worker processes build
    throwaway instances to carry deltas (see :func:`unit_observation`).
    Family constructors are idempotent: re-declaring the same name with the
    same type/labels returns the existing family, a conflicting
    re-declaration raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------- #
    # Scrape-time collectors
    # ------------------------------------------------------------- #
    def add_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` at the start of every :meth:`snapshot` and
        :meth:`render_text`, so state kept outside the registry (the monitor
        pool's per-rule tallies) is brought up to date when it is read
        instead of being written on every change."""
        with self._lock:
            self._collectors.append(collector)

    def remove_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    # ------------------------------------------------------------- #
    # Family declaration
    # ------------------------------------------------------------- #
    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help_text, tuple(labels))

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help_text, tuple(labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family = self._declare(Histogram, name, help_text, tuple(labels), tuple(buckets))
        return family

    def _declare(self, cls, name, help_text, label_names, buckets=None):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already declared as {existing.kind}"
                        f"{existing.label_names}"
                    )
                if buckets is not None and existing.buckets != _validated_buckets(  # type: ignore[attr-defined]
                    name, buckets
                ):
                    raise ValueError(f"histogram {name!r} already declared with other buckets")
                return existing
            if cls is Histogram:
                family = cls(name, help_text, label_names, self._lock, buckets)
            else:
                family = cls(name, help_text, label_names, self._lock)
            self._families[name] = family
            return family

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------- #
    # Snapshot / merge
    # ------------------------------------------------------------- #
    def snapshot(self) -> Dict[str, object]:
        """A deterministic, picklable view of every family and sample.

        The shape is stable (sorted family names, sorted label tuples) so
        two registries that recorded the same events — in any order —
        snapshot identically; the engine's merge-determinism tests pin
        this.
        """
        self._collect()
        out: Dict[str, object] = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                entry: Dict[str, object] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labels": list(family.label_names),
                }
                if isinstance(family, Histogram):
                    entry["buckets"] = list(family.buckets)
                    entry["samples"] = [
                        [list(key), list(child[0]), float(child[1]), int(child[2])]  # type: ignore[index]
                        for key, child in sorted(family._samples.items())
                    ]
                else:
                    entry["samples"] = [
                        [list(key), float(value)]  # type: ignore[arg-type]
                        for key, value in sorted(family._samples.items())
                    ]
                out[name] = entry
        return out

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges max.

        Families absent here are created from the snapshot's metadata, so a
        delta built by a worker that only ever saw two families merges into
        the full coordinator registry.  Counter and histogram merging is
        commutative/associative; gauges take the maximum — the only
        deterministic order-free combination for level-style values.
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry["kind"]  # type: ignore[index]
            labels = tuple(entry["labels"])  # type: ignore[index,arg-type]
            help_text = entry.get("help", "")  # type: ignore[union-attr]
            if kind == "histogram":
                family = self.histogram(name, help_text, labels, entry["buckets"])  # type: ignore[index]
                with self._lock:
                    for key, counts, total, count in entry["samples"]:  # type: ignore[index]
                        child = family._samples.get(tuple(key))
                        if child is None:
                            child = [[0] * (len(family.buckets) + 1), 0.0, 0]
                            family._samples[tuple(key)] = child
                        for position, bucket_count in enumerate(counts):
                            child[0][position] += bucket_count  # type: ignore[index]
                        child[1] += total  # type: ignore[index]
                        child[2] += count  # type: ignore[index]
                continue
            if kind == "counter":
                counter = self.counter(name, help_text, labels)
                with self._lock:
                    for key, value in entry["samples"]:  # type: ignore[index]
                        counter._samples[tuple(key)] = (
                            counter._samples.get(tuple(key), 0.0) + value  # type: ignore[operator]
                        )
                continue
            gauge = self.gauge(name, help_text, labels)
            with self._lock:
                for key, value in entry["samples"]:  # type: ignore[index]
                    current = gauge._samples.get(tuple(key))
                    if current is None or value > current:  # type: ignore[operator]
                        gauge._samples[tuple(key)] = float(value)

    def reset(self) -> None:
        """Zero every sample while keeping the declared families (tests)."""
        with self._lock:
            for family in self._families.values():
                family._samples.clear()

    # ------------------------------------------------------------- #
    # Exposition
    # ------------------------------------------------------------- #
    def render_text(self) -> str:
        """Prometheus text exposition format, deterministically ordered."""
        self._collect()
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    lines.append(f"# HELP {name} {family.help}")
                lines.append(f"# TYPE {name} {family.kind}")
                if isinstance(family, Histogram):
                    for key, child in sorted(family._samples.items()):
                        counts, total, count = child  # type: ignore[misc]
                        cumulative = 0
                        for bound, bucket_count in zip(family.buckets, counts):
                            cumulative += bucket_count
                            labels = _label_text(
                                family.label_names, key, f'le="{_format_le(bound)}"'
                            )
                            lines.append(f"{name}_bucket{labels} {cumulative}")
                        labels = _label_text(family.label_names, key, 'le="+Inf"')
                        lines.append(f"{name}_bucket{labels} {count}")
                        lines.append(
                            f"{name}_sum{_label_text(family.label_names, key)}"
                            f" {_format_value(total)}"
                        )
                        lines.append(f"{name}_count{_label_text(family.label_names, key)} {count}")
                else:
                    for key, value in sorted(family._samples.items()):
                        labels = _label_text(family.label_names, key)
                        lines.append(f"{name}{labels} {_format_value(value)}")  # type: ignore[arg-type]
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumented module records into.
REGISTRY = MetricsRegistry()


# ------------------------------------------------------------------- #
# The metric catalogue (documented in docs/observability.md)
# ------------------------------------------------------------------- #

# --- engine ---------------------------------------------------------
ENGINE_UNIT_SECONDS = REGISTRY.histogram(
    "repro_engine_unit_seconds",
    "Wall-clock seconds per executed work unit, by unit kind.",
    labels=("kind",),
    buckets=UNIT_BUCKETS,
)
ENGINE_UNITS_TOTAL = REGISTRY.counter(
    "repro_engine_units_total",
    "Work units executed to completion, by unit kind.",
    labels=("kind",),
)
ENGINE_RUNS_TOTAL = REGISTRY.counter(
    "repro_engine_runs_total",
    "Mining runs completed, by execution backend.",
    labels=("backend",),
)

# --- mining counters (MiningStats mirror) ---------------------------
MINING_COUNTER_TOTAL = REGISTRY.counter(
    "repro_mining_counter_total",
    "MiningStats dataclass counters accumulated over completed runs.",
    labels=("name",),
)
MINING_EXTRA_TOTAL = REGISTRY.counter(
    "repro_mining_extra_total",
    "MiningStats.extra ad-hoc counters accumulated over completed runs.",
    labels=("key",),
)

# --- serving: monitor pool ------------------------------------------
POOL_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_pool_queue_depth",
    "Events waiting in a shard's bounded queue (set at scrape time).",
    labels=("shard",),
)
POOL_SESSIONS_ACTIVE = REGISTRY.gauge(
    "repro_pool_sessions_active",
    "Open sessions across the pool (set at scrape time).",
)
POOL_SESSIONS_OPENED_TOTAL = REGISTRY.counter(
    "repro_pool_sessions_opened_total",
    "Sessions admitted by the pool.",
)
POOL_SESSIONS_CLOSED_TOTAL = REGISTRY.counter(
    "repro_pool_sessions_closed_total",
    "Sessions closed normally (END processed).",
)
POOL_SESSIONS_LOST_TOTAL = REGISTRY.counter(
    "repro_pool_sessions_lost_total",
    "Sessions lost to shard crashes (answered SESSION_LOST).",
)
POOL_BUSY_TOTAL = REGISTRY.counter(
    "repro_pool_busy_rejections_total",
    "Events rejected with BUSY because a shard queue was full.",
)
POOL_SHARD_RESTARTS_TOTAL = REGISTRY.counter(
    "repro_pool_shard_restarts_total",
    "Shard worker threads restarted by the supervisor.",
)
POOL_EVENTS_TOTAL = REGISTRY.counter(
    "repro_pool_events_total",
    "Events drained and processed by shard workers.",
)

# --- serving: push server -------------------------------------------
SERVER_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_server_request_seconds",
    "EventPushServer dispatch latency per request, by verb.",
    labels=("op",),
    buckets=SERVING_BUCKETS,
)
SERVER_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_server_requests_total",
    "Requests dispatched by the push server, by verb.",
    labels=("op",),
)
SERVER_BUSY_REPLIES_TOTAL = REGISTRY.counter(
    "repro_server_busy_replies_total",
    "Replies carrying BUSY backpressure.",
)
SERVER_SESSION_LOST_REPLIES_TOTAL = REGISTRY.counter(
    "repro_server_session_lost_replies_total",
    "Replies reporting SESSION_LOST after a shard crash.",
)
SERVER_ERRORS_TOTAL = REGISTRY.counter(
    "repro_server_errors_total",
    "Requests answered with an ERROR frame.",
)
SERVER_CONNECTIONS_TOTAL = REGISTRY.counter(
    "repro_server_connections_total",
    "TCP connections accepted by the push server.",
)

# --- serving: per-rule analytics ------------------------------------
RULE_POINTS_TOTAL = REGISTRY.counter(
    "repro_rule_points_total",
    "Temporal points per monitored rule, by outcome (opened/satisfied/violated).",
    labels=("rule", "outcome"),
)
RULE_TRIE_ADVANCES_TOTAL = REGISTRY.counter(
    "repro_rule_trie_advances_total",
    "Premise-trie advances that armed a rule (its full premise matched).",
    labels=("rule",),
)
RULE_ACTIVE_SECONDS = REGISTRY.histogram(
    "repro_rule_active_seconds",
    "Wall-clock from a rule's first opened point to its trace close.",
    labels=("rule",),
    buckets=UNIT_BUCKETS,
)

# --- serving: watch daemon ------------------------------------------
DAEMON_CYCLE_SECONDS = REGISTRY.histogram(
    "repro_daemon_cycle_seconds",
    "WatchDaemon cycle wall-clock seconds.",
)
DAEMON_CYCLES_TOTAL = REGISTRY.counter(
    "repro_daemon_cycles_total",
    "WatchDaemon cycles completed, by outcome status.",
    labels=("status",),
)
DAEMON_SWAPS_TOTAL = REGISTRY.counter(
    "repro_daemon_swaps_total",
    "Hot swaps of the compiled rule set performed by the daemon.",
)

# --- observability self-monitoring ----------------------------------
OBS_SPANS_DROPPED_TOTAL = REGISTRY.counter(
    "repro_obs_spans_dropped_total",
    "Finished spans lost to ring eviction or trace-file write failures.",
    labels=("reason",),
)

# --- durability ------------------------------------------------------
DURABILITY_JOURNAL_APPENDS_TOTAL = REGISTRY.counter(
    "repro_durability_journal_appends_total",
    "Records appended to checkpoint journals.",
)
DURABILITY_JOURNAL_FSYNCS_TOTAL = REGISTRY.counter(
    "repro_durability_journal_fsyncs_total",
    "fsync(2) calls issued by checkpoint journals.",
)
DURABILITY_RESUMED_TOTAL = REGISTRY.counter(
    "repro_durability_checkpoint_resumed_total",
    "Work items skipped on resume because the journal already held them.",
    labels=("kind",),
)


# ------------------------------------------------------------------- #
# Engine helpers: worker-side deltas and run-level stats mirroring
# ------------------------------------------------------------------- #

def unit_observation(kind: str, seconds: float) -> Dict[str, object]:
    """A delta snapshot recording one executed work unit.

    Built worker-side (a throwaway registry, not :data:`REGISTRY`) and
    shipped inside the :class:`~repro.engine.sharding.UnitOutcome`; the
    coordinator merges it so single-process and multi-process runs record
    identical counters.
    """
    delta = MetricsRegistry()
    delta.histogram(
        ENGINE_UNIT_SECONDS.name,
        ENGINE_UNIT_SECONDS.help,
        ("kind",),
        buckets=ENGINE_UNIT_SECONDS.buckets,
    ).observe(seconds, kind=kind)
    delta.counter(ENGINE_UNITS_TOTAL.name, ENGINE_UNITS_TOTAL.help, ("kind",)).inc(kind=kind)
    return delta.snapshot()


def merge_outcome_metrics(outcomes: Iterable[object]) -> None:
    """Fold the ``metrics`` delta of every outcome into :data:`REGISTRY`."""
    if not ENABLED:
        return
    for outcome in outcomes:
        delta = getattr(outcome, "metrics", None)
        if delta:
            REGISTRY.merge(delta)


def rule_tally_delta(deltas: Mapping[str, Sequence[float]]) -> Dict[str, object]:
    """A delta snapshot of the three ``repro_rule_*`` families.

    ``deltas`` maps a rule key to the growth of its tally slot since the
    last export, in the :class:`~repro.serving.stream_monitor.RuleTally`
    layout ``[opened, satisfied, violated, trie_advances,
    active_seconds_sum, *active_seconds_bucket_counts]``.  Merging the
    result into :data:`REGISTRY` is what the monitor pool does at scrape
    time in place of recording every rule at every session close.
    """
    points: List[object] = []
    advances: List[object] = []
    active: List[object] = []
    for rule, slot in sorted(deltas.items()):
        for outcome, value in zip(("opened", "satisfied", "violated"), slot):
            if value:
                points.append([[rule, outcome], float(value)])
        if slot[3]:
            advances.append([[rule], float(slot[3])])
        buckets = [int(count) for count in slot[5:]]
        if any(buckets):
            active.append([[rule], buckets, float(slot[4]), sum(buckets)])

    def entry(family: _Family, samples: List[object]) -> Dict[str, object]:
        out = {
            "kind": family.kind,
            "help": family.help,
            "labels": list(family.label_names),
            "samples": samples,
        }
        if isinstance(family, Histogram):
            out["buckets"] = list(family.buckets)
        return out

    return {
        RULE_POINTS_TOTAL.name: entry(RULE_POINTS_TOTAL, points),
        RULE_TRIE_ADVANCES_TOTAL.name: entry(RULE_TRIE_ADVANCES_TOTAL, advances),
        RULE_ACTIVE_SECONDS.name: entry(RULE_ACTIVE_SECONDS, active),
    }


def record_rule_close(
    rule: str,
    opened: int,
    satisfied: int,
    violated: int,
    advances: int,
    active_seconds: Optional[float] = None,
) -> None:
    """Record one rule's tallies of one closed trace onto the analytics
    families directly.

    For embedders that monitor without a pool.  The monitor pool does not
    call this: it keeps per-rule tallies per shard and exports them at
    scrape time (:func:`rule_tally_delta`), so a session close takes no
    registry lock.
    """
    if not ENABLED:
        return
    if opened:
        RULE_POINTS_TOTAL.inc(opened, rule=rule, outcome="opened")
    if satisfied:
        RULE_POINTS_TOTAL.inc(satisfied, rule=rule, outcome="satisfied")
    if violated:
        RULE_POINTS_TOTAL.inc(violated, rule=rule, outcome="violated")
    if advances:
        RULE_TRIE_ADVANCES_TOTAL.inc(advances, rule=rule)
    if active_seconds is not None:
        RULE_ACTIVE_SECONDS.observe(active_seconds, rule=rule)


def record_mining_stats(stats: object, backend: str) -> None:
    """Mirror a finished run's ``MiningStats`` onto registry counters.

    Called exactly once per mining run by the execution backends, *after*
    per-unit stats have been merged — never at individual bump sites, so
    in-process and cross-process accumulation can't double-count.  Keeps
    ``MiningStats.extra`` as the backward-compatible carrier while giving
    every key (``units_retried``, ``workers_lost``, ``units_resumed``, …)
    a scrapeable counter.
    """
    if not ENABLED:
        return
    ENGINE_RUNS_TOTAL.inc(backend=backend)
    for name in (
        "visited",
        "emitted",
        "pruned_support",
        "pruned_confidence",
        "pruned_closure",
        "pruned_redundancy",
        "instances_materialized",
        "shipped_bytes",
    ):
        value = getattr(stats, name, 0)
        if value:
            MINING_COUNTER_TOTAL.inc(value, name=name)
    for key, value in sorted(getattr(stats, "extra", {}).items()):
        if value:
            MINING_EXTRA_TOTAL.inc(value, key=key)
