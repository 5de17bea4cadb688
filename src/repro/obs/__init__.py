"""Unified observability: the metrics registry and span tracing.

Telemetry used to be scattered — ``MiningStats.extra`` dicts, one-shot
``MonitorPool.stats()`` snapshots, ``watch_state.json`` blobs.  This
package is the single funnel every layer records into:

* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry` of
  labelled counters, gauges, and fixed-bucket histograms; thread-safe,
  snapshot/merge-able across worker processes (engine workers ship
  registry deltas inside their unit outcomes, merged
  deterministically like ``MiningStats``), rendered in the Prometheus
  text format for the ``METRICS`` wire verb and ``repro metrics``;
* :mod:`repro.obs.tracing` — lightweight spans
  (``with span("engine.unit", kind="grow")``) recording monotonic durations
  to a bounded ring and optionally a JSONL trace file
  (``--trace-out``), disarmed at the cost of one attribute check per
  site, summarised offline by ``tools/trace_summary.py``; spans carry
  trace/span/parent ids that propagate over the push-protocol wire and
  back from engine worker processes (shipped inside outcomes);
* :mod:`repro.obs.httpexpo` — a stdlib HTTP sidecar exposing
  ``/metrics`` (Prometheus text), ``/healthz`` (readiness) and
  ``/statusz`` (JSON snapshot), attached with ``--http-port`` on
  ``repro serve`` / ``repro watch``.

The metric catalogue, span naming scheme, and scrape/trace workflows are
documented in ``docs/observability.md``.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    SERVING_BUCKETS,
    UNIT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    merge_outcome_metrics,
    record_mining_stats,
    record_rule_close,
    set_enabled,
    unit_observation,
)
from .tracing import (
    TraceCollector,
    install as install_tracing,
    remote_span,
    reset as reset_tracing,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "SERVING_BUCKETS",
    "UNIT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceCollector",
    "enabled",
    "install_tracing",
    "merge_outcome_metrics",
    "record_mining_stats",
    "record_rule_close",
    "remote_span",
    "reset_tracing",
    "set_enabled",
    "span",
    "unit_observation",
]
