"""Lightweight span tracing: monotonic timings to a ring and a JSONL file.

Metrics (``repro.obs.metrics``) answer *how much / how fast on average*;
spans answer *where did this particular run spend its time*.  A span is
one timed region with a dotted name and free-form attributes::

    from ..obs import tracing
    ...
    with tracing.span("engine.unit", kind=unit.kind, root=unit.root):
        records = miner.mine_unit(context, unit, stats, splitter)

Tracing follows the ``testing/faults.py`` arming pattern: the module-level
:data:`ACTIVE` collector is ``None`` unless somebody installed one, and
:func:`span` returns a shared no-op context manager in that case — so an
untraced run pays one attribute check per site and the mining hot loops
stay free (per-event work is deliberately *not* spanned; the finest grain
is a work unit / request / cycle).

When armed (``--trace-out FILE`` on ``repro mine-patterns`` /
``mine-rules`` / ``serve`` / ``watch``, or :func:`install` in code), every
finished span is appended to a bounded in-memory ring (oldest entries
evicted) and, if a path was given, written as one JSON line::

    {"name": "engine.unit", "ts": 1720000000.123, "dur": 0.0421,
     "pid": 4242, "trace": "9f0c…", "span": "41d2…", "parent": "77aa…",
     "attrs": {"kind": "grow", "root": 3}}

``tools/trace_summary.py`` aggregates such a file into a per-span-name
breakdown.  The span naming scheme (``layer.phase``) is documented in
``docs/observability.md``.

**Trace context.**  Every armed span carries a ``trace`` id and its own
``span`` id; nested spans record their parent's id as ``parent``.  The
context crosses process boundaries two ways:

* *over the wire* — ``PushClient`` stamps the caller's current ids into
  each frame (:func:`ensure_context`), and the push server / pool shards
  open child spans under the received ids (:func:`remote_span`), so one
  trace id threads client → server → shard;
* *into engine workers* — worker processes arm a file-less *shipping*
  collector (:func:`install_shipping`), adopt the coordinator's context
  (:func:`adopt`), and their finished spans travel back inside
  ``UnitOutcome`` (the ``spans`` field) for the
  coordinator to fold into its own ring and JSONL file
  (:func:`absorb_outcome_spans`).  Workers never write the trace file
  themselves — spawned workers re-import this module disarmed, and forked
  workers sharing the parent's file handle would interleave writes — so
  the single-writer property is preserved while worker timings still land
  in the one trace.

**Span loss is counted, never silent**: ring evictions and trace-file
write failures increment ``repro_obs_spans_dropped_total`` (labelled by
``reason``) so a scrape shows when a trace file is incomplete.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from . import metrics as _metrics

__all__ = [
    "ACTIVE",
    "TraceCollector",
    "absorb_outcome_spans",
    "adopt",
    "current_ids",
    "drain_shipped",
    "ensure_context",
    "install",
    "install_shipping",
    "remote_span",
    "reset",
    "shipping",
    "span",
]


def _new_id() -> str:
    """A fresh 64-bit hex id for a trace or span."""
    return os.urandom(8).hex()


#: Per-thread span stack (innermost open span's ids) and ambient trace id.
_local = threading.local()

#: Process-base context adopted from a remote coordinator (worker side):
#: spans opened with no enclosing span become children of this.
_BASE: Optional[Tuple[str, Optional[str]]] = None


def _stack() -> List[Tuple[str, str]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_ids() -> Optional[Tuple[str, Optional[str]]]:
    """The innermost open ``(trace_id, span_id)`` on this thread, if any.

    Falls back to the process-base context installed by :func:`adopt`, so
    a worker's top-level spans still parent under the coordinator's span.
    """
    stack = getattr(_local, "stack", None)
    if stack:
        return stack[-1]
    return _BASE


def ensure_context() -> Tuple[str, Optional[str]]:
    """Ids to stamp into an outgoing wire frame: ``(trace_id, span_id)``.

    Inside a span this is that span's ids; outside, a per-thread ambient
    trace id is created lazily (no parent span), so all of one client
    thread's requests share a trace even when the caller never opened a
    span itself.
    """
    ids = current_ids()
    if ids is not None:
        return ids
    ambient = getattr(_local, "ambient", None)
    if ambient is None:
        ambient = _local.ambient = _new_id()
    return ambient, None


def adopt(trace_id: Optional[str], parent_id: Optional[str] = None) -> None:
    """Adopt a remote trace context as this process's base (worker side)."""
    global _BASE
    if isinstance(trace_id, str) and trace_id:
        _BASE = (trace_id, parent_id if isinstance(parent_id, str) else None)
    else:
        _BASE = None


class TraceCollector:
    """Bounded ring of finished spans, optionally mirrored to a JSONL file.

    With ``shipping=True`` the collector is a worker-side buffer: no file,
    and :meth:`drain` hands the accumulated spans over (cleared) for
    shipping inside an outcome.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        ring_size: int = 4096,
        shipping: bool = False,
    ) -> None:
        self.path = path
        self.shipping = shipping
        #: The process that installed the collector: a forked worker finds
        #: itself holding a collector whose pid is not its own and must
        #: replace it (writing the parent's file from two processes would
        #: interleave) — see ``ShardRunner.setup``.
        self.pid = os.getpid()
        self._ring: Deque[Dict[str, object]] = deque(maxlen=max(1, ring_size))
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8") if path else None

    def record(
        self,
        name: str,
        duration: float,
        attrs: Dict[str, object],
        trace: Optional[str] = None,
        span_id: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> None:
        entry: Dict[str, object] = {
            "name": name,
            "ts": time.time(),
            "dur": duration,
            "pid": os.getpid(),
        }
        if trace is not None:
            entry["trace"] = trace
        if span_id is not None:
            entry["span"] = span_id
        if parent is not None:
            entry["parent"] = parent
        if attrs:
            entry["attrs"] = attrs
        self._append(entry)

    def absorb(self, entries: Iterable[Dict[str, object]]) -> None:
        """Fold pre-built span entries (shipped from a worker) in verbatim."""
        for entry in entries:
            self._append(dict(entry))

    def _append(self, entry: Dict[str, object]) -> None:
        with self._lock:
            # A shipping buffer is drained per unit, so eviction there means
            # genuine loss too — count it the same way.
            if len(self._ring) == self._ring.maxlen:
                _metrics.OBS_SPANS_DROPPED_TOTAL.inc(reason="ring")
            self._ring.append(entry)
            if self._file is not None:
                try:
                    self._file.write(json.dumps(entry, sort_keys=True) + "\n")
                    self._file.flush()
                except (OSError, ValueError):
                    # Disk full / closed handle: the span survives in the
                    # ring, but the file is now incomplete — say so.
                    _metrics.OBS_SPANS_DROPPED_TOTAL.inc(reason="write")

    def snapshot(self) -> List[Dict[str, object]]:
        """The ring's current contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def drain(self) -> List[Dict[str, object]]:
        """Hand over and clear the ring (worker-side shipping)."""
        with self._lock:
            entries = list(self._ring)
            self._ring.clear()
            return entries

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


#: The armed collector, or ``None``:  span sites pay one attribute check.
ACTIVE: Optional[TraceCollector] = None


def install(path: Optional[str] = None, ring_size: int = 4096) -> TraceCollector:
    """Arm tracing (closing any previous collector) and return the collector."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
    ACTIVE = TraceCollector(path=path, ring_size=ring_size)
    return ACTIVE


def install_shipping(ring_size: int = 4096) -> TraceCollector:
    """Arm a worker-side shipping buffer: spans accumulate for :func:`drain_shipped`."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
    ACTIVE = TraceCollector(ring_size=ring_size, shipping=True)
    return ACTIVE


def reset() -> None:
    """Disarm tracing and close the collector's trace file, if any."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
        ACTIVE = None
    adopt(None)


def shipping() -> bool:
    """Whether the armed collector is a worker-side shipping buffer."""
    collector = ACTIVE
    return collector is not None and collector.shipping


def drain_shipped() -> Optional[Tuple[Dict[str, object], ...]]:
    """Finished spans to ship in an outcome, or ``None`` when not shipping."""
    collector = ACTIVE
    if collector is None or not collector.shipping:
        return None
    entries = collector.drain()
    return tuple(entries) if entries else None


def absorb_outcome_spans(outcomes: Iterable[object]) -> None:
    """Fold the ``spans`` batches shipped inside outcomes into :data:`ACTIVE`.

    The coordinator-side companion of :func:`drain_shipped`; called by the
    execution backends for freshly executed outcomes only.  A no-op
    when tracing is disarmed (the batches are simply discarded with the
    outcomes).
    """
    collector = ACTIVE
    if collector is None:
        return
    for outcome in outcomes:
        batch = getattr(outcome, "spans", None)
        if batch:
            collector.absorb(batch)


class _Span:
    __slots__ = ("_collector", "_name", "_attrs", "_start", "_trace", "_span_id", "_parent")

    def __init__(
        self,
        collector: TraceCollector,
        name: str,
        attrs: Dict[str, object],
        trace: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> None:
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self._start = 0.0
        self._trace = trace
        self._parent = parent
        self._span_id = _new_id()

    def __enter__(self) -> "_Span":
        if self._trace is None:
            ids = current_ids()
            if ids is not None:
                self._trace, self._parent = ids
            else:
                self._trace = _new_id()
        _stack().append((self._trace, self._span_id))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        try:
            self._collector.record(
                self._name,
                duration,
                self._attrs,
                trace=self._trace,
                span_id=self._span_id,
                parent=self._parent,
            )
        finally:
            stack = getattr(_local, "stack", None)
            if stack:
                stack.pop()


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str, **attrs: object):
    """A context manager timing the enclosed region as span ``name``.

    Free when tracing is disarmed: the shared no-op manager is returned
    after a single module-attribute check.  Armed, the span inherits the
    innermost open span's trace context (or starts a fresh trace).
    """
    collector = ACTIVE
    if collector is None:
        return _NOOP
    return _Span(collector, name, attrs)


def remote_span(
    name: str,
    trace_id: object,
    parent_id: object = None,
    **attrs: object,
):
    """A span continuing a trace context received over the wire.

    ``trace_id``/``parent_id`` come from an untrusted frame, so anything
    non-string is ignored and the span falls back to local context.
    """
    collector = ACTIVE
    if collector is None:
        return _NOOP
    if not isinstance(trace_id, str) or not trace_id:
        return _Span(collector, name, attrs)
    parent = parent_id if isinstance(parent_id, str) and parent_id else None
    return _Span(collector, name, attrs, trace=trace_id, parent=parent)
