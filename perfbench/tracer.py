"""Timing wrappers installed from outside the program, and the layer ledger.

The traced run patches each layer's public functions *where they are
called* (the miners import functions by name, so e.g. the projection is
patched as ``repro.patterns.miner_base.forward_extensions_block``) and
patches methods on their classes.  Every wrapper records a span on a
per-thread stack: a layer's **self time** is its span's duration minus the
part covered by wrapped child calls on the same thread.  Functions called
per rule per session close are counted, not timed.

Nothing here is imported by the program; the untraced runs never load it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.min_support = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            started = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - children
                    tracer.total_s[layer] += elapsed
                    tracer.calls[layer] += 1
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def high_water(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: object, attribute: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper_factory(original))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "maxima": dict(self.maxima),
            }


# --------------------------------------------------------------------- #
# Mining layers
# --------------------------------------------------------------------- #
def install_ingest(tracer: Tracer) -> None:
    from repro.ingest.store import TraceStore

    tracer.patch(TraceStore, "append_trace_file", lambda fn: tracer.timed("ingest.append", fn))
    tracer.patch(TraceStore, "snapshot", lambda fn: tracer.timed("ingest.snapshot", fn))


def install_engine(tracer: Tracer) -> None:
    """The coordinator-side layers: engine dispatch, result decode, the
    redundancy sweep on the merged rule set."""
    from repro.engine import backend
    from repro.patterns.miner_base import IterativePatternMinerBase
    from repro.rules import miner_base as rules_base

    tracer.patch(backend.ExecutionBackend, "execute", lambda fn: tracer.timed("engine.execute", fn))

    def count_shards(result, args):
        tracer.count("engine.units", len(result))

    tracer.patch(backend, "plan_shards", lambda fn: tracer.timed("engine.plan", fn, count_shards))
    for cls in (IterativePatternMinerBase, rules_base.RecurrentRuleMinerBase):
        tracer.patch(cls, "collect_result", lambda fn: tracer.timed("engine.collect", fn))

    def redundancy(result, args):
        tracer.count("redundancy.candidates", len(args[0]))
        tracer.count("redundancy.kept", len(result[0]))

    tracer.patch(rules_base, "filter_redundant", lambda fn: tracer.timed("redundancy", fn, redundancy))


def install_miner(tracer: Tracer) -> None:
    """The in-miner layers (patched where the miners call them)."""
    from repro.core import positions
    from repro.patterns import closed_miner
    from repro.patterns import miner_base as patterns_base
    from repro.rules import miner_base as rules_base

    tracer.patch(positions.PositionIndex, "__init__", lambda fn: tracer.timed("positions.build", fn))

    def projected(result, args):
        threshold = tracer.min_support
        tracer.count("projection.children", len(result))
        tracer.count("projection.kept", sum(1 for block in result.values() if len(block) >= threshold))
        tracer.count("projection.rows", sum(len(block) for block in result.values()))

    tracer.patch(
        patterns_base, "forward_extensions_block",
        lambda fn: tracer.timed("projection", fn, projected),
    )
    tracer.patch(patterns_base, "project_extension_block", lambda fn: tracer.timed("projection", fn))

    def closure_check(result, args):
        tracer.count("closure.checks")
        if result is not None:
            tracer.count("closure.pruned")

    def closure_tail(result, args):
        if result:
            tracer.count("closure.pruned")

    tracer.patch(
        closed_miner, "forward_closure_violation",
        lambda fn: tracer.timed("closure", fn, closure_check),
    )
    tracer.patch(
        closed_miner, "backward_extension_events_block",
        lambda fn: tracer.timed("closure", fn, closure_tail),
    )
    tracer.patch(
        closed_miner, "infix_closure_violation_block",
        lambda fn: tracer.timed("closure", fn, lambda result, args: closure_tail(result is not None, args)),
    )
    for name in ("premise_extensions", "project_premise_extension", "initial_premise_projections"):
        tracer.patch(rules_base, name, lambda fn: tracer.timed("premise", fn))
    tracer.patch(
        rules_base.RecurrentRuleMinerBase, "_grow_consequents",
        lambda fn: tracer.timed("consequent", fn),
    )


# --------------------------------------------------------------------- #
# Serving layers (installed inside the traced ``repro serve`` process)
# --------------------------------------------------------------------- #
class _TimedJson:
    """Stand-in for the server module's ``json``: frame decode and reply
    encode are the only JSON calls the server module makes."""

    def __init__(self, tracer: Tracer, real) -> None:
        self.loads = tracer.timed("server.decode", real.loads)
        self.dumps = tracer.timed("server.encode", real.dumps)
        self.JSONDecodeError = real.JSONDecodeError


def install_serving(tracer: Tracer) -> None:
    from repro.obs import metrics as obs_metrics
    from repro.serving import pool as pool_module
    from repro.serving import server as server_module
    from repro.serving import stream_monitor
    from repro.verification.violations import MonitoringReport

    tracer.patch(server_module, "json", lambda real: _TimedJson(tracer, real))
    tracer.patch(
        server_module.EventPushServer, "_dispatch",
        lambda fn: tracer.timed("server.dispatch", fn),
    )
    def admitted(result, args):
        pool = args[0]
        if result == pool_module.BUSY or result is None:
            tracer.count("pool.busy")
        tracer.high_water("pool.queued", max(shard.queue.qsize() for shard in pool._shards))

    tracer.patch(pool_module.MonitorPool, "feed_batch", lambda fn: tracer.timed("pool.admit", fn, admitted))
    tracer.patch(pool_module.MonitorPool, "end_session", lambda fn: tracer.timed("pool.admit", fn, admitted))
    tracer.patch(pool_module.SessionTicket, "wait", lambda fn: tracer.timed("pool.ticket_wait", fn))
    tracer.patch(stream_monitor.StreamingMonitor, "feed", lambda fn: tracer.timed("monitor.feed", fn))
    tracer.patch(stream_monitor.StreamingMonitor, "end_trace", lambda fn: tracer.timed("monitor.close", fn))
    tracer.patch(MonitoringReport, "merge", lambda fn: tracer.timed("report.merge", fn))
    tracer.patch(obs_metrics, "record_rule_close", lambda fn: tracer.counted("obs.rule_close_calls", fn))
    tracer.patch(pool_module.MonitorPool, "stats", lambda fn: tracer.timed("obs.scrape", fn))
    tracer.patch(pool_module.MonitorPool, "rule_analytics", lambda fn: tracer.timed("obs.scrape", fn))

    def compiled(result, args):
        tracer.count("compile.trie_nodes", result.describe()["trie_nodes"])

    tracer.patch(pool_module, "compile_rules", lambda fn: tracer.timed("compile", fn, compiled))


# --------------------------------------------------------------------- #
# The per-layer metrics and the "where the time went" table
# --------------------------------------------------------------------- #
#: Timed layers in table order (self time), with the metric each becomes.
TIMED_LAYERS = [
    ("ingest.append", "ingest.append_s"),
    ("ingest.snapshot", "ingest.snapshot_s"),
    ("positions.build", "positions.build_s"),
    ("projection", "projection.s"),
    ("closure", "closure.s"),
    ("premise", "premise.s"),
    ("consequent", "consequent.s"),
    ("redundancy", "redundancy.s"),
    ("engine.execute", "engine.execute_s"),
    ("engine.collect", "engine.collect_s"),
    ("compile", "compile.s"),
    ("server.decode", "server.decode_s"),
    ("server.encode", "server.encode_s"),
    ("server.dispatch", "server.dispatch_s"),
    ("pool.admit", "pool.admit_s"),
    ("pool.end_wait", "pool.end_wait_s"),
    ("monitor.feed", "monitor.feed_s"),
    ("monitor.close", "monitor.close_s"),
    ("report.merge", "report.merge_s"),
    ("obs.scrape", "obs.scrape_s"),
]


def layer_metrics(snapshot: Dict, extra: Dict[str, float]) -> Dict[str, float]:
    """Turn a tracer snapshot into the per-layer metric values.

    ``extra`` supplies what the wrappers cannot see (counters from
    ``MiningStats``, ingest event counts, load-generator figures) and
    overrides nothing it does not name.
    """
    self_s = dict(snapshot.get("self_s", {}))
    total_s = snapshot.get("total_s", {})
    calls = snapshot.get("calls", {})
    counts = snapshot.get("counts", {})
    maxima = snapshot.get("maxima", {})
    # A ticket wait overlaps the close it waits for (another thread); the
    # queue wait is what is left once the closes are taken out.
    wait = self_s.pop("pool.ticket_wait", 0.0)
    self_s["pool.end_wait"] = max(0.0, wait - total_s.get("monitor.close", 0.0)) if wait else 0.0
    values = {metric: self_s.get(layer, 0.0) for layer, metric in TIMED_LAYERS}
    children = counts.get("projection.children", 0)
    candidates = counts.get("redundancy.candidates", 0)
    values.update({
        "ingest.events": 0,
        "projection.calls": calls.get("projection", 0),
        "projection.children": children,
        "projection.keep_ratio": counts.get("projection.kept", 0) / children if children else 0.0,
        "projection.rows": counts.get("projection.rows", 0),
        "closure.calls": counts.get("closure.checks", 0),
        "closure.pruned": counts.get("closure.pruned", 0),
        "premise.calls": calls.get("premise", 0),
        "consequent.calls": calls.get("consequent", 0),
        "consequent.pruned_confidence": 0,
        "redundancy.candidates": candidates,
        "redundancy.kept_ratio": counts.get("redundancy.kept", 0) / candidates if candidates else 0.0,
        "engine.units": counts.get("engine.units", 0),
        "engine.shipped_bytes": 0,
        "engine.retries": 0,
        "compile.trie_nodes": counts.get("compile.trie_nodes", 0),
        "server.frames": calls.get("server.decode", 0),
        "pool.queued_max": maxima.get("pool.queued", 0),
        "pool.busy": counts.get("pool.busy", 0),
        "monitor.events": calls.get("monitor.feed", 0),
        "monitor.closes": calls.get("monitor.close", 0),
        "report.merges": calls.get("report.merge", 0),
        "obs.rule_close_calls": counts.get("obs.rule_close_calls", 0),
        "loadgen.lag_p99_ms": 0.0,
        "loadgen.sent": 0,
    })
    values.update(extra)
    return values


def render_table(workload: str, values: Dict[str, float], walls: Dict[str, float]) -> str:
    """The "where the time went" table for one traced workload.

    ``walls`` maps each timed metric to the wall time it was measured
    against (mine-quest times its in-miner layers on a serial rerun and
    its engine layers on the parallel run).
    """
    lines = [f"where the time went: {workload}"]
    lines.append(f"  {'layer':<18} {'self s':>9} {'share':>7}  of wall")
    for _, metric in TIMED_LAYERS:
        seconds = values.get(metric, 0.0)
        if not seconds:
            continue
        wall = walls.get(metric, walls["default"])
        name = metric[:-2] if metric.endswith(("_s", ".s")) else metric
        lines.append(f"  {name:<18} {seconds:>9.4f} {seconds / wall:>6.1%}  {wall:.3f}s")
    wall = walls["default"]
    lines.append(f"  {'unattributed':<18} {values['trace.unattributed_s']:>9.4f} {values['trace.unattributed_s'] / wall:>6.1%}  {wall:.3f}s")
    counters = [
        name for name in sorted(values)
        if not name.endswith("_s") and not name.endswith(".s") and values[name] and not name.startswith("trace.")
    ]
    lines.append("  counts: " + ", ".join(f"{name}={_fmt(values[name])}" for name in counters))
    lines.append(f"  tracing overhead: {values['trace.overhead']:+.1%} (traced vs untraced, same work)")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))
