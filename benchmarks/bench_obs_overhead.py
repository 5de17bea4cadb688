"""Observability overhead benchmark: instrumented vs muted hot paths.

The observability layer (:mod:`repro.obs`) promises to be cheap enough to
leave on: every record call starts with one module-flag check, mining
workers buffer their measurements in throwaway delta registries, and the
serving counters sit outside the per-event automaton step.  This benchmark
holds the layer to that promise on the two hot paths it touches:

* **mining** — a non-redundant rule mine over the scaled canonical
  profile, serial backend (the per-unit timing and the stats-mirror
  cost);
* **serving** — pushing batched session events through a sharded
  :class:`~repro.serving.pool.MonitorPool` (the per-event counter and the
  per-scrape gauge cost);
* **serving, fully armed** — the same push workload with per-rule
  analytics exported to the registry, a live trace collector, and a
  trace context stamped on every batch (the cross-process propagation
  path), plus a ``rule_analytics()`` scrape — the serving plane exactly
  as `repro serve --http-port` runs it under `repro top`.

Both serving rows monitor the 1,200-rule fixture of
``bench_serving.py`` with its 11-event sessions: per-rule observing costs
the most where many rules meet short sessions.

Each path is timed in alternating enabled/muted rounds
(:func:`repro.obs.metrics.set_enabled`), taking the best round per mode so
scheduler noise cancels instead of accumulating, and the mined result /
merged report is asserted identical across modes first — the layer must
observe, never perturb.  At canonical scale (or with
``REPRO_REQUIRE_SPEEDUP=1``) the instrumented time must stay within
**5%** of the muted baseline on both paths — the acceptance criterion.

Results go to ``benchmarks/results/obs_overhead.txt`` and are appended as
one run record to the ``BENCH_hot_paths.json`` trajectory at the
repository root (smoke scales write to ``benchmarks/results/``), so the
overhead sits under the same >20% wall-clock regression gate as the paths
it instruments.  ``wall_clock_seconds`` = the instrumented mining pass.

Scale with ``REPRO_OBS_SCALE`` (default 1.0).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.datagen.profiles import generate_profile
from repro.engine import resolve_backend
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.serving.compile import compile_rules
from repro.serving.pool import MonitorPool

from bench_serving import MINING_CONFIG, _mining_corpus, _session_events
from conftest import append_bench_record, write_result

SCALE = float(os.environ.get("REPRO_OBS_SCALE", "1.0"))
REPO_ROOT = Path(__file__).resolve().parents[1]
CANONICAL_SCALE = SCALE == 1.0
JSON_PATH = (
    REPO_ROOT / "BENCH_hot_paths.json"
    if CANONICAL_SCALE
    else Path(__file__).parent / "results" / "BENCH_hot_paths.json"
)

#: Alternating timing rounds per mode; best round is reported.  Short
#: rounds, many of them: the host's CPU speed swings for seconds at a time,
#: and the best of many short rounds finds the fast periods for both modes.
ROUNDS = 7
#: The acceptance bound: instrumented within 5% of muted.
MAX_OVERHEAD = 0.05
#: Serving workload: logical sessions of the bench_serving fixture.
SESSIONS = max(64, int(400 * SCALE))
SESSION_EVENTS = [_session_events(session) for session in range(SESSIONS)]


def _mine_once(database):
    config = RuleMiningConfig(min_s_support=2.0, min_i_support=1, min_confidence=0.5)
    miner = NonRedundantRecurrentRuleMiner(config)
    backend = resolve_backend("serial", None, None)
    started = time.perf_counter()
    result = miner.mine(database, backend=backend)
    elapsed = time.perf_counter() - started
    return result, elapsed


def _serve_once(compiled):
    started = time.perf_counter()
    with MonitorPool(compiled, shards=4, queue_depth=2 * SESSIONS) as pool:
        for session, events in enumerate(SESSION_EVENTS):
            pool.feed_batch(f"s{session}", events)
        for session in range(SESSIONS):
            pool.end_session(f"s{session}").wait(timeout=30.0)
        report = pool.report()
        pool.stats()  # the scrape path: gauge refresh included in the cost
    return report, time.perf_counter() - started


def _serve_analytics_once(compiled):
    """The fully armed serving pass: analytics + trace propagation.

    When the collector is armed (instrumented rounds) every batch and
    session close carries a trace context, the way :class:`PushClient`
    stamps wire frames; muted rounds send the same traffic plain.  The
    per-rule analytics scrape at the end is the ANALYTICS-verb read that
    `repro top` polls.
    """
    armed = tracing.ACTIVE is not None
    started = time.perf_counter()
    with MonitorPool(compiled, shards=4, queue_depth=2 * SESSIONS) as pool:
        for session, events in enumerate(SESSION_EVENTS):
            context = tracing.ensure_context() if armed else None
            pool.feed_batch(f"s{session}", events, trace=context)
        for session in range(SESSIONS):
            context = tracing.ensure_context() if armed else None
            pool.end_session(f"s{session}", trace=context).wait(timeout=30.0)
        analytics = pool.rule_analytics()
        report = pool.report()
        pool.stats()
    return (report, analytics), time.perf_counter() - started


def _best_of(fn, argument, arm=None, disarm=None):
    """Alternate enabled/muted rounds, returning each mode's best time.

    Interleaving means a load spike hits both modes alike; taking the
    minimum keeps the comparison about the code, not the machine.  The
    optional ``arm``/``disarm`` hooks bracket each instrumented round
    (e.g. installing and resetting a trace collector) so "enabled" can
    mean more than the metrics flag.
    """
    results = {}
    timings = {True: [], False: []}
    for _ in range(ROUNDS):
        for enabled in (True, False):
            obs_metrics.set_enabled(enabled)
            if enabled and arm is not None:
                arm()
            try:
                outcome, elapsed = fn(argument)
            finally:
                obs_metrics.set_enabled(True)
                if disarm is not None:
                    disarm()
            results[enabled] = outcome
            timings[enabled].append(elapsed)
    return results, min(timings[True]), min(timings[False])


def bench_obs_overhead(benchmark):
    # The short-sequence profile: the long-sequence paper profile's rule
    # space explodes at this absolute support, and this bench times the
    # instrumentation, not the search.
    database = generate_profile("D5C5N10S4", scale=0.04 * SCALE)

    # One untimed warmup pass: the first mine on a cold machine runs up to
    # 2x slower (frequency ramp, cold caches), which best-of-N rounds
    # cannot always amortise on a single-CPU host.
    _mine_once(database)

    mine_results, mine_on, mine_off = _best_of(_mine_once, database)
    # Observe, never perturb: the mined rules are identical either way.
    assert [str(r) for r in mine_results[True].rules] == [
        str(r) for r in mine_results[False].rules
    ]
    rules = NonRedundantRecurrentRuleMiner(MINING_CONFIG).mine(_mining_corpus()).rules
    compiled = compile_rules(rules)

    serve_results, serve_on, serve_off = _best_of(_serve_once, compiled)
    assert serve_results[True].summary() == serve_results[False].summary()
    assert serve_results[True].violation_count > 0

    analytics_results, analytics_on, analytics_off = _best_of(
        _serve_analytics_once, compiled, arm=tracing.install, disarm=tracing.reset
    )
    # Armed or plain, the pool reports the same violations and the same
    # per-rule tallies — analytics observe, never perturb.
    armed_report, armed_analytics = analytics_results[True]
    plain_report, plain_analytics = analytics_results[False]
    assert armed_report.summary() == plain_report.summary()
    assert armed_analytics == plain_analytics

    mine_overhead = mine_on / mine_off - 1.0
    serve_overhead = serve_on / serve_off - 1.0
    analytics_overhead = analytics_on / analytics_off - 1.0

    # One extra instrumented mining pass as the pytest-benchmark probe.
    benchmark.pedantic(lambda: _mine_once(database), rounds=1, iterations=1)

    total_events = sum(len(sequence) for sequence in database)
    record = {
        "benchmark": "obs_overhead",
        "workload": {
            "scale": SCALE,
            "sequences": len(database),
            "events": total_events,
            "sessions": SESSIONS,
            "rules": len(rules),
            "host_cpus": os.cpu_count(),
        },
        "mine_instrumented_seconds": round(mine_on, 4),
        "mine_muted_seconds": round(mine_off, 4),
        "mine_overhead_fraction": round(mine_overhead, 4),
        "serve_instrumented_seconds": round(serve_on, 4),
        "serve_muted_seconds": round(serve_off, 4),
        "serve_overhead_fraction": round(serve_overhead, 4),
        "serve_analytics_armed_seconds": round(analytics_on, 4),
        "serve_analytics_muted_seconds": round(analytics_off, 4),
        "serve_analytics_overhead_fraction": round(analytics_overhead, 4),
        "wall_clock_seconds": round(mine_on, 4),
    }
    append_bench_record(JSON_PATH, record)

    text = (
        f"workload: {len(database)} sequences, {total_events} events, "
        f"{SESSIONS} push sessions over {len(rules)} rules (scale {SCALE})\n"
        f"mine : instrumented {mine_on:.4f}s vs muted {mine_off:.4f}s "
        f"({mine_overhead:+.1%})\n"
        f"serve: instrumented {serve_on:.4f}s vs muted {serve_off:.4f}s "
        f"({serve_overhead:+.1%})\n"
        f"serve+analytics+trace: armed {analytics_on:.4f}s vs muted "
        f"{analytics_off:.4f}s ({analytics_overhead:+.1%})"
    )
    write_result("obs_overhead", text)

    # The 5% bound is asserted only on workloads long enough to measure it
    # honestly; smoke scales still verify result identity above.
    if os.environ.get("REPRO_REQUIRE_SPEEDUP") == "1" or CANONICAL_SCALE:
        assert mine_overhead <= MAX_OVERHEAD, (
            f"metrics overhead on the mining path is {mine_overhead:.1%} "
            f"(> {MAX_OVERHEAD:.0%}): {mine_on:.4f}s vs {mine_off:.4f}s"
        )
        assert serve_overhead <= MAX_OVERHEAD, (
            f"metrics overhead on the serving path is {serve_overhead:.1%} "
            f"(> {MAX_OVERHEAD:.0%}): {serve_on:.4f}s vs {serve_off:.4f}s"
        )
        assert analytics_overhead <= MAX_OVERHEAD, (
            f"per-rule analytics + trace propagation overhead on the "
            f"serving path is {analytics_overhead:.1%} "
            f"(> {MAX_OVERHEAD:.0%}): {analytics_on:.4f}s vs "
            f"{analytics_off:.4f}s"
        )
