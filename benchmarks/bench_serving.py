"""Serving-layer benchmark: compile time, streaming throughput, hot swap,
and concurrent-session capacity of the network serving plane.

Three claims of the serving subsystem are measured on the canonical bench
fixture (loop-structured traces sharing premise prefixes — the workload
shape the shared trie exists for):

* **compile time** — turning a mined rule set into a
  :class:`~repro.serving.compile.CompiledRuleSet` (the cost a daemon pays
  per hot swap, measured separately as ``hot_swap_seconds`` on a perturbed
  rule set);
* **streaming throughput** — events/second of a
  :class:`~repro.serving.stream_monitor.StreamingMonitor` over the
  compiled automaton versus the re-scanning reference monitor of the test
  oracles (``tests/oracles/monitor.py``), which re-derives temporal
  points per rule per trace.  Reports and per-rule point counts must be
  identical (asserted) and the streaming path must be **>= 5x** faster at canonical
  scale (asserted, the acceptance criterion);
* **hot-swap latency** — re-compiling after a rule-set change, i.e. the
  serving gap of :meth:`WatchDaemon._swap`.

A second benchmark, ``bench_serving_concurrent_sessions``, measures the
network serving plane (what ``repro serve`` runs): a real TCP
:class:`~repro.serving.server.EventPushServer` in front of a sharded
:class:`~repro.serving.pool.MonitorPool`, holding ``>= 10_000 * SCALE``
logical sessions open at once and pushing interleaved batches through a
pipelined client.  The pool-merged report must be **byte-identical** to a
single :class:`StreamingMonitor` fed the same sessions sequentially in
admission order, and the pool's per-rule analytics must count the points
the reference monitor counts (both asserted).  Its record starts its own ``serving_sessions``
lineage in ``BENCH_hot_paths.json``.

Results go to ``benchmarks/results/serving.txt`` and are appended as one
run record to the ``BENCH_hot_paths.json`` trajectory at the repository
root (smoke scales write to ``benchmarks/results/`` so they never pollute
the canonical lineage).  The regression gate watches
``wall_clock_seconds`` = the streaming monitoring pass, the path this
subsystem optimises.

Scale with ``REPRO_SERVING_SCALE`` (default 1.0).
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from pathlib import Path

from repro.core.sequence import SequenceDatabase
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.serving import StreamingMonitor, compile_rules
from tests.oracles.monitor import RuleMonitor, analytics_counts

from conftest import append_bench_record, write_result

SCALE = float(os.environ.get("REPRO_SERVING_SCALE", "1.0"))
REPO_ROOT = Path(__file__).resolve().parents[1]
CANONICAL_SCALE = SCALE == 1.0
JSON_PATH = (
    REPO_ROOT / "BENCH_hot_paths.json"
    if CANONICAL_SCALE
    else Path(__file__).parent / "results" / "BENCH_hot_paths.json"
)

#: Independent protocol families; rules of one family share premise prefixes.
FAMILIES = 8
#: Events per family loop body; bodies repeat per trace (many temporal points)
#: and every trace closes with a ``commit`` tail, so mined consequents point
#: *late* into the trace — the case where the offline monitor's per-point
#: suffix re-scans hurt most and the compiled automaton's per-event cost
#: does not change.
LOOP_BODY = 5
#: Loop repeats in the mining corpus (keeps the mine fast) ...
REPEATS = 10
#: ... and in the monitored stream (serving traces are long).
MONITOR_REPEATS = 80
#: Mining corpus size (traces per family) and monitoring stream size.
TRACES_PER_FAMILY = 4
MONITOR_TRACES = max(8, int(40 * SCALE))
#: Every Nth monitored trace is truncated before its commit: violations.
VIOLATE_EVERY = 8

MINING_CONFIG = RuleMiningConfig(
    min_s_support=2,
    min_confidence=0.5,
    max_premise_length=2,
    max_consequent_length=1,
)


def _family_body(family: int) -> list:
    return [f"f{family}.e{i}" for i in range(LOOP_BODY)]


def _mining_corpus() -> SequenceDatabase:
    traces = []
    for family in range(FAMILIES):
        body = _family_body(family)
        trace = body * REPEATS + [f"f{family}.commit"]
        traces.extend([trace for _ in range(TRACES_PER_FAMILY)])
    return SequenceDatabase.from_sequences(traces)


def _monitoring_stream() -> SequenceDatabase:
    """The serving traffic: long single-family loop traces ending in their
    commit, with every ``VIOLATE_EVERY``-th trace truncated before it so
    the monitors exercise both outcomes."""
    traces = []
    for index in range(MONITOR_TRACES):
        family = index % FAMILIES
        trace = _family_body(family) * MONITOR_REPEATS + [f"f{family}.commit"]
        if index % VIOLATE_EVERY == 0:
            trace = trace[:-1]  # no commit: every pending ->commit point violates
        traces.append(trace)
    return SequenceDatabase.from_sequences(traces)


def bench_serving(benchmark):
    corpus = _mining_corpus()
    rules = NonRedundantRecurrentRuleMiner(MINING_CONFIG).mine(corpus).rules
    assert rules, "the bench fixture must mine a non-trivial rule set"

    start = time.perf_counter()
    compiled = compile_rules(rules)
    compile_seconds = time.perf_counter() - start

    stream = _monitoring_stream()
    stream_events = stream.total_events()

    start = time.perf_counter()
    oracle = RuleMonitor(rules)
    offline_report = oracle.check_database(stream)
    offline_seconds = time.perf_counter() - start

    start = time.perf_counter()
    streaming_monitor = StreamingMonitor(compiled)
    streaming_report = streaming_monitor.check_database(stream)
    streaming_seconds = time.perf_counter() - start

    # Correctness first: the serving path emits the identical report and
    # counts the same points per rule.
    assert streaming_report.total_points == offline_report.total_points
    assert streaming_report.satisfied_points == offline_report.satisfied_points
    assert streaming_report.violations == offline_report.violations
    assert analytics_counts(streaming_monitor.rule_analytics()) == oracle.rule_counts()
    assert streaming_report.violation_count > 0  # the stream exercises both outcomes

    # Hot-swap latency: a rule-set change (here: drop one rule) re-compiles.
    start = time.perf_counter()
    swapped = compile_rules(rules[:-1])
    hot_swap_seconds = time.perf_counter() - start
    assert len(swapped) == len(rules) - 1

    # One extra streaming pass as the pytest-benchmark probe.
    benchmark.pedantic(
        lambda: StreamingMonitor(compiled).check_database(stream), rounds=1, iterations=1
    )

    speedup = offline_seconds / streaming_seconds if streaming_seconds > 0 else float("inf")
    streaming_eps = int(stream_events / streaming_seconds) if streaming_seconds > 0 else None
    offline_eps = int(stream_events / offline_seconds) if offline_seconds > 0 else None
    trie = compiled.describe()
    payload = {
        "benchmark": "serving",
        "workload": {
            "sequences": len(stream),
            "events": stream_events,
            "families": FAMILIES,
            "loop_body": LOOP_BODY,
            "repeats": REPEATS,
            "rules": len(rules),
            "scale": SCALE,
            "host_cpus": os.cpu_count(),
        },
        "compile": {
            "seconds": round(compile_seconds, 6),
            "trie_nodes": trie["trie_nodes"],
            "shared_prefix_events": trie["shared_prefix_events"],
        },
        "monitoring": {
            "offline_seconds": round(offline_seconds, 4),
            "streaming_seconds": round(streaming_seconds, 4),
            "speedup": round(speedup, 2),
            "offline_events_per_second": offline_eps,
            "streaming_events_per_second": streaming_eps,
            "total_points": streaming_report.total_points,
            "violations": streaming_report.violation_count,
        },
        "hot_swap_seconds": round(hot_swap_seconds, 6),
        # The optimised-path cost the regression gate watches.
        "wall_clock_seconds": round(streaming_seconds, 4),
    }
    append_bench_record(JSON_PATH, payload)

    lines = [
        f"workload: {len(stream)} monitored traces, {stream_events} events, "
        f"{len(rules)} rules ({FAMILIES} families) (scale {SCALE})",
        f"compile: {compile_seconds * 1000:.2f} ms "
        f"({trie['trie_nodes']} trie nodes, {trie['shared_prefix_events']} shared prefix events)",
        f"offline  monitor: {offline_seconds:.3f}s ({offline_eps} events/s)",
        f"streaming monitor: {streaming_seconds:.3f}s ({streaming_eps} events/s, "
        f"{speedup:.2f}x, identical reports)",
        f"hot swap: {hot_swap_seconds * 1000:.2f} ms",
        f"points: {streaming_report.total_points}, "
        f"violations: {streaming_report.violation_count}",
        f"json: {JSON_PATH.name}",
    ]
    write_result("serving", "\n".join(lines))

    # The acceptance claim is asserted only on workloads big enough to be
    # falsifiable; smoke scales still assert report identity above.
    if os.environ.get("REPRO_REQUIRE_SPEEDUP") == "1" or SCALE >= 1.0:
        assert speedup >= 5.0, f"expected >=5x streaming speedup, got {speedup:.2f}x"


# --------------------------------------------------------------------- #
# Concurrent-session capacity of the network serving plane
# --------------------------------------------------------------------- #
#: Logical sessions held open simultaneously (>= 10k at canonical scale).
SESSIONS = max(64, int(10_000 * SCALE))
#: Batches pushed per session while all sessions are open, and their size.
BATCHES_PER_SESSION = 2
#: Every Nth session is ended without its commit: violations on the wire.
SESSION_VIOLATE_EVERY = 16
#: Pool geometry for the capacity run.
POOL_SHARDS = 4
POOL_QUEUE_DEPTH = 2048
#: Client pipelining window (stays well under the aggregate queue bound).
PIPELINE_WINDOW = 512


def _session_events(index: int) -> list:
    family = index % FAMILIES
    events = _family_body(family) * BATCHES_PER_SESSION
    if index % SESSION_VIOLATE_EVERY != 0:
        events.append(f"f{family}.commit")
    return events


def _session_batches(index: int) -> list:
    """Split a session's events into its per-round batches."""
    events = _session_events(index)
    size = LOOP_BODY
    return [events[start : start + size] for start in range(0, len(events), size)]


def _report_bytes(report) -> bytes:
    """Canonical byte serialisation of a report for byte-identity checks."""
    import json as _json

    payload = {
        "total": report.total_points,
        "satisfied": report.satisfied_points,
        "violations": [violation.as_dict() for violation in report.violations],
    }
    return _json.dumps(payload, sort_keys=True).encode()


def bench_serving_concurrent_sessions(benchmark):
    from repro.serving import EventPushServer, MonitorPool, PushClient
    from repro.verification.violations import MonitoringReport

    corpus = _mining_corpus()
    rules = NonRedundantRecurrentRuleMiner(MINING_CONFIG).mine(corpus).rules
    assert rules, "the bench fixture must mine a non-trivial rule set"
    compiled = compile_rules(rules)

    batches = [_session_batches(index) for index in range(SESSIONS)]
    rounds = max(len(session_batches) for session_batches in batches)
    total_events = sum(len(batch) for session in batches for batch in session)

    def await_backlog(client, low_mark):
        """Client-side flow control: the server replies at *enqueue* time,
        so a fast client can outrun the shard workers and hit BUSY.  Poll
        STATS until the queued backlog is below ``low_mark`` — the push
        protocol's intended slow-down signal handling (docs/serving.md)."""
        while True:
            stats = client.stats()
            if sum(shard["queued"] for shard in stats["per_shard"]) <= low_mark:
                return
            time.sleep(0.01)

    def push_chunked(client, payloads, expect):
        chunk = []
        for payload in payloads:
            chunk.append(payload)
            if len(chunk) == POOL_QUEUE_DEPTH:
                for reply in client.pipeline(chunk, window=PIPELINE_WINDOW):
                    assert reply["op"] == expect, reply
                chunk = []
                await_backlog(client, low_mark=POOL_QUEUE_DEPTH // 2)
        for reply in client.pipeline(chunk, window=PIPELINE_WINDOW):
            assert reply["op"] == expect, reply

    def push_all(client):
        """Open every session, keep them all open across interleaved batch
        rounds, then close them — round-robin, so concurrency peaks at
        SESSIONS, not at the pipeline window.  Chunked sends with backlog
        polling keep the run BUSY-free, which also pins the admission
        order (session index == admission index, the reference's premise)."""
        for round_index in range(rounds):
            payloads = (
                {"op": "BATCH", "session": f"s{index}", "events": session[round_index]}
                for index, session in enumerate(batches)
                if round_index < len(session)
            )
            push_chunked(client, payloads, expect="OK")
        peak = client.stats()
        ends = ({"op": "END", "session": f"s{index}", "limit": 0} for index in range(SESSIONS))
        push_chunked(client, ends, expect="SESSION")
        return peak

    with MonitorPool(compiled, shards=POOL_SHARDS, queue_depth=POOL_QUEUE_DEPTH) as pool:
        with EventPushServer(pool, port=0) as server:
            host, port = server.address
            with PushClient(host, port, timeout=120.0) as client:
                start = time.perf_counter()
                peak_stats = push_all(client)
                assert pool.drain(timeout=120.0)
                push_seconds = time.perf_counter() - start
            pooled = pool.report()
            pooled_analytics = pool.rule_analytics()
            final_stats = pool.stats()

    assert peak_stats["sessions_active"] == SESSIONS  # all open at once
    assert final_stats["busy_rejections"] == 0  # the run never hit BUSY
    assert final_stats["events_processed"] == total_events

    # Byte-identity against one monitor fed the sessions sequentially in
    # admission order (admission order == session index: round 0 opens them
    # in index order).
    start = time.perf_counter()
    reference_reports = []
    for index in range(SESSIONS):
        reference = StreamingMonitor(compiled, first_trace_index=index)
        reference.begin_trace(name=f"s{index}")
        for event in _session_events(index):
            reference.feed(event)
        reference_reports.append(reference.end_trace())
    reference_report = functools.reduce(
        MonitoringReport.merge, reference_reports, MonitoringReport()
    )
    reference_seconds = time.perf_counter() - start
    assert _report_bytes(pooled) == _report_bytes(reference_report)
    assert pooled.violation_count > 0  # the stream exercises both outcomes

    # Per-rule counts against the reference monitor, which checks each
    # distinct session trace once (sessions repeat their family's events).
    expected_counts = {}
    distinct = Counter(tuple(_session_events(index)) for index in range(SESSIONS))
    for events, sessions in distinct.items():
        oracle = RuleMonitor(rules)
        oracle.check_trace(events)
        for key, counts in oracle.rule_counts().items():
            previous = expected_counts.get(key, (0, 0, 0))
            expected_counts[key] = tuple(a + sessions * b for a, b in zip(previous, counts))
    assert analytics_counts(pooled_analytics) == expected_counts

    # The pytest-benchmark probe: one extra full push run on a fresh stack.
    def probe():
        with MonitorPool(compiled, shards=POOL_SHARDS, queue_depth=POOL_QUEUE_DEPTH) as p:
            with EventPushServer(p, port=0) as s:
                with PushClient(*s.address, timeout=120.0) as c:
                    push_all(c)
                p.drain(timeout=120.0)

    benchmark.pedantic(probe, rounds=1, iterations=1)

    events_per_second = int(total_events / push_seconds) if push_seconds > 0 else None
    sessions_per_second = int(SESSIONS / push_seconds) if push_seconds > 0 else None
    payload = {
        "benchmark": "serving_sessions",
        "workload": {
            "sequences": SESSIONS,
            "events": total_events,
            "families": FAMILIES,
            "rules": len(rules),
            "scale": SCALE,
            "host_cpus": os.cpu_count(),
        },
        "pool": {"shards": POOL_SHARDS, "queue_depth": POOL_QUEUE_DEPTH},
        "serving": {
            "concurrent_sessions": SESSIONS,
            "push_seconds": round(push_seconds, 4),
            "events_per_second": events_per_second,
            "sessions_per_second": sessions_per_second,
            "reference_seconds": round(reference_seconds, 4),
            "total_points": pooled.total_points,
            "violations": pooled.violation_count,
            "report_byte_identical": True,
        },
        # The optimised-path cost the regression gate watches.
        "wall_clock_seconds": round(push_seconds, 4),
    }
    append_bench_record(JSON_PATH, payload)

    lines = [
        f"workload: {SESSIONS} concurrent logical sessions, {total_events} events, "
        f"{len(rules)} rules (scale {SCALE})",
        f"pool: {POOL_SHARDS} shards, queue depth {POOL_QUEUE_DEPTH}",
        f"push: {push_seconds:.3f}s ({events_per_second} events/s, "
        f"{sessions_per_second} sessions/s over one pipelined TCP connection)",
        f"peak concurrent sessions: {peak_stats['sessions_active']}",
        f"reference single monitor: {reference_seconds:.3f}s (byte-identical report)",
        f"points: {pooled.total_points}, violations: {pooled.violation_count}",
        f"json: {JSON_PATH.name}",
    ]
    write_result("serving_sessions", "\n".join(lines))

    if SCALE >= 1.0:
        assert SESSIONS >= 10_000, "canonical scale must exercise >= 10k sessions"


# --------------------------------------------------------------------- #
# Recovery latency of the supervised pool
# --------------------------------------------------------------------- #
#: Kill-and-recover cycles measured (the record keeps the median).
RECOVERY_ROUNDS = 5
RECOVERY_SHARDS = 2
#: Supervisor poll interval for the recovery run; the floor of any
#: recovery latency is one poll period.
RECOVERY_SUPERVISOR_INTERVAL = 0.01


def _session_routed_to(pool, shard_index: int, prefix: str) -> str:
    for attempt in range(100_000):
        session_id = f"{prefix}-{attempt}"
        if pool.route(session_id) == shard_index:
            return session_id
    raise AssertionError(f"no session id hashed to shard {shard_index}")


def bench_serving_recovery(benchmark):
    """Shard-kill -> first successfully served event after the restart.

    Uses the ``pool.shard`` fault point to crash a shard worker mid-run,
    then measures until the supervisor has restarted it, answered
    ``SESSION_LOST`` for the victim session, and the restarted shard has
    served a re-admitted session end to end (the ``SESSION`` reply proves
    the event was processed, not merely enqueued).  A bystander session on
    the surviving shard must keep being served throughout.
    """
    from repro.serving import EventPushServer, MonitorPool, PushClient
    from repro.testing import faults

    corpus = _mining_corpus()
    rules = NonRedundantRecurrentRuleMiner(MINING_CONFIG).mine(corpus).rules
    assert rules, "the bench fixture must mine a non-trivial rule set"
    compiled = compile_rules(rules)
    events = _family_body(0) + ["f0.commit"]

    def one_recovery(pool, client, round_index):
        victim = _session_routed_to(pool, 0, f"victim-{round_index}")
        bystander = _session_routed_to(pool, 1, f"bystander-{round_index}")
        for event in events[:-1]:
            assert client.feed(victim, event)["op"] == "OK"
        assert pool.drain(timeout=30.0)
        faults.install("pool.shard", "raise", key="0", count=1)
        start = time.perf_counter()
        assert client.feed(victim, events[0])["op"] == "OK"  # enqueue kills the worker
        assert client.feed(bystander, events[0])["op"] == "OK"  # shard 1 unaffected
        while True:  # SESSION_LOST marks the supervisor's recovery complete
            if client.feed(victim, events[0])["op"] == "SESSION_LOST":
                break
            time.sleep(0.001)
        for event in events:  # re-admitted session on the restarted shard
            assert client.feed(victim, event)["op"] == "OK"
        assert client.end(victim, limit=0)["op"] == "SESSION"
        elapsed = time.perf_counter() - start
        assert client.end(bystander, limit=0)["op"] == "SESSION"
        return elapsed

    try:
        with MonitorPool(
            compiled,
            shards=RECOVERY_SHARDS,
            supervisor_interval=RECOVERY_SUPERVISOR_INTERVAL,
        ) as pool:
            with EventPushServer(pool, port=0) as server:
                with PushClient(*server.address, timeout=30.0) as client:
                    latencies = [
                        one_recovery(pool, client, round_index)
                        for round_index in range(RECOVERY_ROUNDS)
                    ]
                    stats = client.stats()
        assert stats["restarts"] == RECOVERY_ROUNDS
        assert stats["sessions_lost"] >= RECOVERY_ROUNDS

        # The pytest-benchmark probe: one extra cycle on a fresh stack.
        def probe():
            with MonitorPool(
                compiled,
                shards=RECOVERY_SHARDS,
                supervisor_interval=RECOVERY_SUPERVISOR_INTERVAL,
            ) as p:
                with EventPushServer(p, port=0) as s:
                    with PushClient(*s.address, timeout=30.0) as c:
                        one_recovery(p, c, RECOVERY_ROUNDS)

        benchmark.pedantic(probe, rounds=1, iterations=1)
    finally:
        faults.reset()

    latencies.sort()
    median = latencies[len(latencies) // 2]
    payload = {
        "benchmark": "serving_recovery",
        "workload": {
            "rules": len(rules),
            "rounds": RECOVERY_ROUNDS,
            "scale": SCALE,
            "host_cpus": os.cpu_count(),
        },
        "pool": {
            "shards": RECOVERY_SHARDS,
            "supervisor_interval": RECOVERY_SUPERVISOR_INTERVAL,
        },
        "recovery": {
            "median_seconds": round(median, 4),
            "min_seconds": round(latencies[0], 4),
            "max_seconds": round(latencies[-1], 4),
            "restarts": stats["restarts"],
            "sessions_lost": stats["sessions_lost"],
        },
        # The cost the regression gate watches: median kill-to-served latency.
        "wall_clock_seconds": round(median, 4),
    }
    append_bench_record(JSON_PATH, payload)

    lines = [
        f"workload: {RECOVERY_ROUNDS} shard-kill cycles, {len(rules)} rules "
        f"(scale {SCALE})",
        f"pool: {RECOVERY_SHARDS} shards, supervisor interval "
        f"{RECOVERY_SUPERVISOR_INTERVAL * 1000:.0f} ms",
        f"recovery latency (kill -> first served event): median {median * 1000:.1f} ms, "
        f"min {latencies[0] * 1000:.1f} ms, max {latencies[-1] * 1000:.1f} ms",
        f"restarts: {stats['restarts']}, sessions lost: {stats['sessions_lost']}",
        f"json: {JSON_PATH.name}",
    ]
    write_result("serving_recovery", "\n".join(lines))
