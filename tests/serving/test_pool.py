"""Monitor-pool tests: parity with a single monitor, backpressure, hot swap."""

import functools
import json
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import MonitoringError
from repro.serving.compile import CompiledRuleSet, compile_rules
from repro.serving.pool import ACCEPTED, BUSY, MonitorPool
from repro.serving.server import _report_frame, encode_frame
from repro.serving.stream_monitor import MAX_HELD_GENERATIONS, StreamingMonitor
from repro.rules.rule import RecurrentRule
from tests.oracles.monitor import RuleMonitor, analytics_counts

RULES_A = [
    RecurrentRule(premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0),
    RecurrentRule(premise=("lock",), consequent=("unlock", "close"), s_support=2, i_support=2, confidence=1.0),
]
RULES_B = [
    RecurrentRule(premise=("open", "use"), consequent=("close",), s_support=2, i_support=2, confidence=1.0),
]
ALPHABET = ["open", "use", "lock", "unlock", "close", "idle"]


def report_bytes(report):
    """Canonical byte serialisation of a report, for byte-identity checks."""
    payload = {
        "total": report.total_points,
        "satisfied": report.satisfied_points,
        "violations": [v.as_dict() for v in report.violations],
    }
    return json.dumps(payload, sort_keys=True).encode()


def encoded_report(report):
    """The report as REPORT encodes it, straight from its violation log."""
    return bytes(_report_frame({"op": "REPORT"}, report, None))


def encoded_records(report, first_index=0):
    """The report's records (trace indexes shifted by ``first_index``) as
    ``encode_frame`` of their ``as_dict`` encodes them."""
    violations = [
        dict(v.as_dict(), trace_index=v.trace_index + first_index) for v in report.violations
    ]
    return encode_frame(
        {
            "op": "REPORT",
            "points": report.total_points,
            "satisfied": report.satisfied_points,
            "violation_count": report.violation_count,
            "violations": violations,
        }
    )


def reference_report(sessions, rules_of_session):
    """What one sequential monitor per session, merged in admission order, says.

    ``sessions`` is an ordered mapping session_id -> list of events (order =
    admission order); ``rules_of_session`` maps session_id to the rule list
    that was live when the session was admitted.
    """
    reports = []
    for index, (session_id, events) in enumerate(sessions.items()):
        monitor = StreamingMonitor(
            compile_rules(rules_of_session[session_id]), first_trace_index=index
        )
        monitor.begin_trace(name=session_id)
        for event in events:
            monitor.feed(event)
        reports.append(monitor.end_trace())
    from repro.verification.violations import MonitoringReport

    return functools.reduce(MonitoringReport.merge, reports, MonitoringReport())


def oracle_counts(sessions, rules_of_session):
    """The reference monitor's per-rule point counts over the same sessions."""
    totals = {}
    for session_id, events in sessions.items():
        oracle = RuleMonitor(rules_of_session[session_id])
        oracle.check_trace(events)
        for key, counts in oracle.rule_counts().items():
            previous = totals.get(key, (0, 0, 0))
            totals[key] = tuple(a + b for a, b in zip(previous, counts))
    return totals


# --------------------------------------------------------------------------- #
# Property: pool == single monitor, under arbitrary session interleavings
# --------------------------------------------------------------------------- #
stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from(ALPHABET)),
    max_size=60,
)


@given(stream=stream_strategy, shards=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pool_report_matches_single_monitor(stream, shards):
    """The merged pool report is byte-identical to one monitor fed the same
    sessions sequentially in admission order, for any interleaving."""
    with MonitorPool(RULES_A, shards=shards, queue_depth=256) as pool:
        sessions = {}
        for slot, event in stream:
            session_id = f"s{slot}"
            assert pool.feed(session_id, event) == ACCEPTED
            sessions.setdefault(session_id, []).append(event)
        tickets = [pool.end_session(sid) for sid in sessions]
        for ticket in tickets:
            assert ticket is not None
            ticket.wait(timeout=10.0)
        pooled = pool.report()
        analytics = pool.rule_analytics()
    rules_of_session = {sid: RULES_A for sid in sessions}
    expected = reference_report(sessions, rules_of_session)
    assert report_bytes(pooled) == report_bytes(expected)
    assert analytics_counts(analytics) == oracle_counts(sessions, rules_of_session)


@given(stream=stream_strategy, swap_at=st.integers(min_value=0, max_value=60))
@settings(max_examples=40, deadline=None)
def test_pool_parity_across_mid_stream_hot_swap(stream, swap_at):
    """Sessions admitted before a swap finish on their generation; sessions
    admitted after use the new rules — and the merged report still matches
    the per-generation sequential reference byte for byte."""
    with MonitorPool(RULES_A, shards=3, queue_depth=256) as pool:
        sessions = {}
        rules_of_session = {}
        live = RULES_A
        for position, (slot, event) in enumerate(stream):
            if position == swap_at:
                assert pool.swap(RULES_B) == pool.generation
                live = RULES_B
            session_id = f"s{slot}"
            assert pool.feed(session_id, event) == ACCEPTED
            sessions.setdefault(session_id, []).append(event)
            rules_of_session.setdefault(session_id, live)
        tickets = [pool.end_session(sid) for sid in sessions]
        for ticket in tickets:
            ticket.wait(timeout=10.0)
        pooled = pool.report()
        analytics = pool.rule_analytics()
    expected = reference_report(sessions, rules_of_session)
    assert report_bytes(pooled) == report_bytes(expected)
    assert analytics_counts(analytics) == oracle_counts(sessions, rules_of_session)


# --------------------------------------------------------------------------- #
# Backpressure
# --------------------------------------------------------------------------- #
def test_stalled_shard_answers_busy_instead_of_growing():
    """A stalled shard fills its bounded queue and rejects with BUSY; memory
    is bounded by queue_depth, not by offered load."""
    with MonitorPool(RULES_A, shards=1, queue_depth=4) as pool:
        pool.pause_shard(0)
        accepted = 0
        outcomes = []
        for n in range(50):
            outcome = pool.feed("stalled", f"e{n}")
            outcomes.append(outcome)
            if outcome == ACCEPTED:
                accepted += 1
        # The queue holds queue_depth items plus at most one in the worker's
        # hand; everything beyond that is refused, not buffered.
        assert accepted <= 4 + 1
        assert outcomes[-1] == BUSY
        assert pool.stats()["busy_rejections"] == 50 - accepted
        # Ending the session is refused too while the queue is full.
        assert pool.end_session("stalled") is None
        assert pool.active_sessions == 1

        pool.resume_shard(0)
        assert pool.drain(timeout=10.0)
        ticket = pool.end_session("stalled")
        report = ticket.wait(timeout=10.0)
        # Exactly the accepted events were monitored — BUSY batches left
        # no partial residue.
        assert pool.stats()["events_processed"] == accepted


def test_busy_batch_is_atomic_and_retry_does_not_duplicate():
    """A rejected batch leaves nothing behind; retrying it after the stall
    clears yields the same report as an unstalled run."""
    events = ["open", "use", "close"]
    with MonitorPool(RULES_A, shards=1, queue_depth=1) as pool:
        assert pool.feed_batch("s", ["open"]) == ACCEPTED
        pool.pause_shard(0)
        # Fill the queue (worker holds one item after the pause gate).
        while pool.feed_batch("s", ["idle"]) == ACCEPTED:
            pass
        assert pool.feed_batch("s", events) == BUSY  # rejected whole
        pool.resume_shard(0)
        assert pool.drain(timeout=10.0)
        assert pool.feed_batch("s", events) == ACCEPTED  # retried whole
        ticket = pool.end_session("s")
        while ticket is None:  # queue_depth=1: END may race the batch
            assert pool.drain(timeout=10.0)
            ticket = pool.end_session("s")
        report = ticket.wait(timeout=10.0)
        analytics = pool.rule_analytics()
    # The session saw exactly two "open"s (the seed and one from the retried
    # batch): two open->close temporal points, both satisfied.  Had the
    # rejected batch partially landed, the retry would duplicate events and
    # raise the point count.
    assert analytics["open -> close"]["opened"] == 2
    assert report.violation_count == 0
    assert report.satisfied_points == report.total_points


# --------------------------------------------------------------------------- #
# Sessions, routing, lifecycle
# --------------------------------------------------------------------------- #
def test_routing_is_stable_and_spreads_sessions():
    with MonitorPool(RULES_A, shards=4, queue_depth=16) as pool:
        ids = [f"session-{n}" for n in range(200)]
        first = [pool.route(sid) for sid in ids]
        assert first == [pool.route(sid) for sid in ids]  # deterministic
        assert set(first) == {0, 1, 2, 3}  # all shards participate


def test_session_id_may_be_reused_after_end():
    with MonitorPool(RULES_A, shards=2, queue_depth=16) as pool:
        pool.feed("s", "open")
        pool.end_session("s").wait(timeout=10.0)
        assert pool.feed("s", "open") == ACCEPTED  # a fresh session
        pool.end_session("s").wait(timeout=10.0)
        report = pool.report()
        # Two distinct sessions, two dangling opens.
        assert report.total_points == 2
        assert report.violation_count == 2
        assert pool.stats()["sessions_closed"] == 2


def test_session_lifecycle_errors():
    with MonitorPool(RULES_A, shards=1, queue_depth=16) as pool:
        with pytest.raises(MonitoringError):
            pool.end_session("never-seen")
        pool.feed("s", "open")
        pool.end_session("s")
        with pytest.raises(MonitoringError):
            pool.end_session("s")  # already closed: id unknown again
    with pytest.raises(MonitoringError):
        pool.feed("t", "open")  # pool closed
    with pytest.raises(MonitoringError):
        pool.end_session("t")  # pool closed


def test_zero_event_session_reports_zero_points():
    with MonitorPool(RULES_A, shards=1, queue_depth=16) as pool:
        assert pool.feed_batch("empty", []) == ACCEPTED
        report = pool.end_session("empty").wait(timeout=10.0)
        assert report.total_points == 0
        assert report.violation_count == 0
        # Parity: the reference zero-length trace counts no point for any
        # rule either.
        sessions, rules_of_session = {"empty": []}, {"empty": RULES_A}
        assert oracle_counts(sessions, rules_of_session) == {}
        assert analytics_counts(pool.rule_analytics()) == {}
        expected = reference_report(sessions, rules_of_session)
        assert report_bytes(pool.report()) == report_bytes(expected)


def test_violation_free_sessions_leave_nothing_retained():
    """Closed sessions fold into counts; only violating sessions keep state."""
    sessions = 10_000
    with MonitorPool(RULES_A, shards=2, queue_depth=2 * sessions) as pool:
        tickets = []
        for number in range(sessions):
            assert pool.feed_batch(f"s{number}", ["open", "use", "close"]) == ACCEPTED
            tickets.append(pool.end_session(f"s{number}"))
        for ticket in tickets:
            ticket.wait(timeout=60.0)
        assert pool.stats()["sessions_closed"] == sessions
        assert sum(len(shard.violations) for shard in pool._shards) == 0
        report = pool.report()
        assert report.total_points == report.satisfied_points == sessions
        assert analytics_counts(pool.rule_analytics()) == {
            "open -> close": (sessions, sessions, 0)
        }
        # One violating session is the one entry kept.
        pool.feed("bad", "open")
        pool.end_session("bad").wait(timeout=10.0)
        assert sum(len(shard.violations) for shard in pool._shards) == 1
        assert [v.trace_name for v in pool.report().violations] == ["bad"]


def test_swap_bumps_generation_and_serves_new_sessions_new_rules():
    with MonitorPool(RULES_A, shards=2, queue_depth=16) as pool:
        assert pool.generation == 0
        pool.feed("old", "open")          # admitted at generation 0
        generation = pool.swap(RULES_B)
        assert generation == pool.generation == 1
        assert [r.premise for r in pool.compiled.rules] == [("open", "use")]
        pool.feed("new", "open")          # admitted at generation 1
        old = pool.end_session("old").wait(timeout=10.0)
        new = pool.end_session("new").wait(timeout=10.0)
        # RULES_A fires on a lone open; RULES_B needs open,use — so the
        # old session (old rules) violates, the new one is clean.
        assert old.violation_count == 1
        assert new.violation_count == 0
        assert pool.stats()["generation"] == 1


def test_reordering_swap_keeps_each_sessions_generation_in_report_bytes():
    """Rule ids are local to one compiled generation.  A swap to the same
    rules in another order, with sessions open, must leave the sessions
    admitted before it reporting their own generation's premise and
    consequent — in the records and in the bytes REPORT and END encode."""
    first = RULES_A
    second = list(reversed(RULES_A))
    sessions = {"old-a": ["open", "lock"], "old-b": ["lock", "open", "open"]}
    rules_of_session = {"old-a": first, "old-b": first}
    with MonitorPool(first, shards=2, queue_depth=64) as pool:
        for session_id, events in sessions.items():
            assert pool.feed_batch(session_id, events[:1]) == ACCEPTED
        pool.swap(compile_rules(second))
        sessions["new"] = ["lock", "open"]
        rules_of_session["new"] = second
        assert pool.feed_batch("new", sessions["new"]) == ACCEPTED
        for session_id in ("old-a", "old-b"):
            assert pool.feed_batch(session_id, sessions[session_id][1:]) == ACCEPTED
        tickets = {session_id: pool.end_session(session_id) for session_id in sessions}
        expected = reference_report(sessions, rules_of_session)
        for index, (session_id, ticket) in enumerate(tickets.items()):
            own = ticket.wait(timeout=10.0)
            alone = reference_report({session_id: sessions[session_id]}, rules_of_session)
            assert encoded_report(own) == encoded_records(alone, index)
        report = pool.report()
    assert [v.rule.premise for v in report.violations] == [
        ("open",), ("lock",), ("open",), ("open",), ("lock",), ("lock",), ("open",),
    ]
    assert report_bytes(report) == report_bytes(expected)
    assert encoded_report(report) == encoded_records(expected)


def test_reports_taken_while_shards_close_sessions_are_consistent():
    """``report()`` copies each shard's violation log under the shard lock
    while the shard workers append to it.  With more closing threads than
    cores and a short switch interval, every report taken mid-stream must
    list whole sessions in admission order, and the last one must equal a
    single monitor's."""
    sessions = {f"s{number}": ["open", "lock", "open"] * (1 + number % 3) for number in range(400)}
    rules_of_session = dict.fromkeys(sessions, RULES_A)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MonitorPool(RULES_A, shards=4, queue_depth=2 * len(sessions)) as pool:
            for session_id, events in sessions.items():
                assert pool.feed_batch(session_id, events) == ACCEPTED
            stop = threading.Event()
            seen = []

            def report_repeatedly():
                while not stop.is_set():
                    seen.append(pool.report())

            reader = threading.Thread(target=report_repeatedly)
            reader.start()
            tickets = [pool.end_session(session_id) for session_id in sessions]
            for ticket in tickets:
                ticket.wait(timeout=30.0)
            stop.set()
            reader.join(timeout=30.0)
            assert not reader.is_alive()
            final = pool.report()
    finally:
        sys.setswitchinterval(switch)
    assert seen
    for report in seen:
        indexes = [trace[0] for trace in report.log.traces]
        assert indexes == sorted(indexes)
        # Each session of 1-3 loops violates 3 points per loop.
        assert report.violation_count == sum(
            3 * (1 + index % 3) for index in indexes
        )
    assert report_bytes(final) == report_bytes(reference_report(sessions, rules_of_session))


def test_stats_shape():
    with MonitorPool(RULES_A, shards=2, queue_depth=8) as pool:
        pool.feed_batch("s", ["open", "close"])
        pool.end_session("s").wait(timeout=10.0)
        stats = pool.stats()
        assert stats["shards"] == 2
        assert stats["queue_depth"] == 8
        assert stats["rules"] == len(RULES_A)
        assert stats["sessions_opened"] == 1
        assert stats["sessions_closed"] == 1
        assert stats["sessions_active"] == 0
        assert stats["events_processed"] == 2
        assert len(stats["per_shard"]) == 2
        assert json.loads(json.dumps(stats)) == stats  # log-shippable


# --------------------------------------------------------------------------- #
# Analytics tally across hot swaps
# --------------------------------------------------------------------------- #
def _sum_analytics(parts):
    total = {}
    for part in parts:
        for key, row in part.items():
            into = total.setdefault(key, dict.fromkeys(row, 0))
            for name, value in row.items():
                into[name] += value
    return total


def test_tally_holds_columns_only_for_generations_closed_since_the_last_read():
    """K hot swaps; every generation closes sessions, one of them after the
    next swap.  Between reads, the shard tallies hold columns only for
    the compiled sets that closed a session, keyed by the set itself; the
    analytics equal one fresh monitor per generation, summed key-wise."""
    generations = [RULES_A, RULES_B, RULES_A + RULES_B, list(RULES_A), RULES_B[::-1]]
    traces = [["open", "use", "close"], ["lock", "open", "unlock"], ["open", "idle"]]
    with MonitorPool(RULES_A, shards=2, queue_depth=64) as pool:
        compiled, reference = [], []
        closed_since_read = {}
        carried = None
        for generation, rules in enumerate(generations):
            if generation:
                pool.swap(compile_rules(rules))  # a freshly compiled copy
            compiled.append(pool.compiled)
            reference.append(StreamingMonitor(pool.compiled))
            if carried is not None:
                # Admitted under the previous generation, closed after the swap.
                pool.end_session(carried).wait(timeout=10.0)
                closed_since_read[id(compiled[-2])] = compiled[-2]
                reference[-2].check_trace(traces[-1])
            for number, trace in enumerate(traces):
                session = f"g{generation}-{number}"
                assert pool.feed_batch(session, trace) == ACCEPTED
                if number == len(traces) - 1:
                    carried = session
                    continue
                pool.end_session(session).wait(timeout=10.0)
                closed_since_read[id(pool.compiled)] = pool.compiled
                reference[-1].check_trace(trace)
            held = [key for shard in pool._shards for key in shard.tally._columns]
            assert all(type(key) is CompiledRuleSet for key in held)
            assert {id(key) for key in held} == set(closed_since_read)
            if generation % 2:
                pool.rule_analytics()  # a read folds and drops every column
                assert not any(shard.tally._columns for shard in pool._shards)
                closed_since_read.clear()
        pool.end_session(carried).wait(timeout=10.0)
        reference[-1].check_trace(traces[-1])
        analytics = pool.rule_analytics()
    assert len({id(rules) for rules in compiled}) == len(generations)
    assert analytics == _sum_analytics(monitor.rule_analytics() for monitor in reference)


def test_an_unread_tally_folds_its_oldest_generation_past_the_bound():
    """Swapping more often than anything reads the analytics keeps at most
    MAX_HELD_GENERATIONS column sets per tally, and loses no count."""
    reference = []
    with MonitorPool(RULES_A, shards=1, queue_depth=64) as pool:
        for generation in range(MAX_HELD_GENERATIONS + 3):
            if generation:
                pool.swap(compile_rules(RULES_A if generation % 2 else RULES_B))
            reference.append(StreamingMonitor(pool.compiled))
            trace = ["open", "lock", "use", "close"][: 2 + generation % 3]
            assert pool.feed_batch(f"s{generation}", trace) == ACCEPTED
            pool.end_session(f"s{generation}").wait(timeout=10.0)
            reference[-1].check_trace(trace)
            (shard,) = pool._shards
            assert len(shard.tally._columns) == min(generation + 1, MAX_HELD_GENERATIONS)
        analytics = pool.rule_analytics()
    assert analytics == _sum_analytics(monitor.rule_analytics() for monitor in reference)
