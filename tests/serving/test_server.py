"""Push-server tests: framing, verbs, sessions over connections, hot swap."""

import io
import socket
import struct
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.rules.rule import RecurrentRule
from repro.serving.pool import MonitorPool
from repro.serving.server import (
    EventPushServer,
    ProtocolError,
    PushClient,
    _report_frame,
    encode_frame,
    read_frame,
)
from repro.serving.stream_monitor import StreamingMonitor
from repro.specs.repository import SpecificationRepository
from repro.testing import faults

RULES = [
    RecurrentRule(premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0),
]


def _repository(rules, name="swapped"):
    repository = SpecificationRepository(name=name)
    for rule in rules:
        repository.add_rule(rule)
    return repository


@pytest.fixture
def served():
    with MonitorPool(RULES, shards=2, queue_depth=64) as pool:
        server = EventPushServer(pool, port=0)
        server.start()
        try:
            yield server, pool
        finally:
            server.close()


@pytest.fixture
def client(served):
    server, _ = served
    host, port = server.address
    with PushClient(host, port) as push_client:
        yield push_client


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def test_frame_round_trip():
    payload = {"op": "EVENT", "session": "s", "event": "münchen"}
    stream = io.BytesIO(encode_frame(payload) + encode_frame({"op": "PING"}))
    assert read_frame(stream) == payload
    assert read_frame(stream) == {"op": "PING"}
    assert read_frame(stream) is None  # clean EOF between frames


@pytest.mark.parametrize(
    "raw",
    [
        b"\x00\x00",  # truncated header
        struct.pack(">I", 10) + b"short",  # truncated payload
        struct.pack(">I", 4) + b"\xff\xfe\x00\x01",  # not UTF-8 JSON
        encode_frame({"op": "PING"})[:4] + b"1234",  # JSON but not an object
    ],
)
def test_malformed_frames_raise(raw):
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(raw))


def test_oversized_frame_is_rejected_without_reading_it():
    stream = io.BytesIO(struct.pack(">I", 1 << 30))
    with pytest.raises(ProtocolError, match="exceeds"):
        read_frame(stream, max_frame_bytes=1024)


# --------------------------------------------------------------------------- #
# Verbs over a live socket
# --------------------------------------------------------------------------- #
def test_event_end_round_trip(client):
    assert client.ping() == {"op": "PONG"}
    assert client.feed("s1", "open") == {"op": "OK"}
    assert client.feed_batch("s1", ["use", "close", "open"]) == {"op": "OK"}
    reply = client.end("s1")
    assert reply["op"] == "SESSION" and reply["session"] == "s1"
    assert reply["points"] == 2 and reply["satisfied"] == 1
    (violation,) = reply["violations"]
    assert violation["trace_name"] == "s1"
    assert violation["position"] == 3


def test_verb_errors_keep_the_connection(client):
    assert client.request({"op": "NO-SUCH-VERB"})["op"] == "ERROR"
    assert client.end("never-opened")["op"] == "ERROR"
    assert client.request({"op": "BATCH", "session": "s", "events": "oops"})["op"] == "ERROR"
    assert client.request({"op": "EVENT", "session": "", "event": "x"})["op"] == "ERROR"
    assert client.ping() == {"op": "PONG"}  # still alive after every error


@pytest.mark.parametrize("limit", [-1, True, False, 1.5, "2"])
def test_end_rejects_a_bad_limit_and_keeps_the_session_open(client, limit):
    client.feed_batch("s", ["open", "open"])
    reply = client.request({"op": "END", "session": "s", "limit": limit})
    assert reply["op"] == "ERROR" and "limit" in reply["error"]
    reply = client.end("s", limit=1)  # the session survived the bad END
    assert reply["op"] == "SESSION"
    assert reply["violation_count"] == 2 and len(reply["violations"]) == 1


@pytest.mark.parametrize("limit", [-1, True, 0.0])
def test_report_rejects_a_bad_limit(client, limit):
    reply = client.request({"op": "REPORT", "limit": limit})
    assert reply["op"] == "ERROR" and "limit" in reply["error"]
    assert client.report(limit=0)["op"] == "REPORT"


def test_pipelined_sessions_do_not_wait_for_delayed_acks(client):
    """Both ends disable Nagle's algorithm: a session sent as BATCH, BATCH,
    END in one flush is answered without a delayed-ACK stall per reply."""
    assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    client.ping()  # connection established and warmed up
    started = time.perf_counter()
    for n in range(20):
        session = f"nagle-{n}"
        client.send({"op": "BATCH", "session": session, "events": ["open", "use"]})
        client.send({"op": "BATCH", "session": session, "events": ["close"]})
        client.send({"op": "END", "session": session})
        client.flush()
        replies = [client.read() for _ in range(3)]
        assert [reply["op"] for reply in replies] == ["OK", "OK", "SESSION"]
    assert time.perf_counter() - started < 0.5


def test_malformed_frame_gets_error_then_close(served):
    server, _ = served
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", 3) + b"{{{")
        stream = sock.makefile("rb")
        reply = read_frame(stream)
        assert reply["op"] == "ERROR"
        assert read_frame(stream) is None  # server hung up on us


def test_stats_and_report(client):
    client.feed_batch("a", ["open", "close"])
    client.feed_batch("b", ["open"])
    client.end("a")
    client.end("b")
    stats = client.stats()
    assert stats["op"] == "STATS"
    assert stats["sessions_closed"] == 2
    assert stats["events_processed"] == 3
    assert stats["uptime_seconds"] >= 0
    report = client.report()
    assert report["op"] == "REPORT"
    assert report["points"] == 2 and report["violation_count"] == 1
    assert client.report(limit=0)["violations"] == []


# --------------------------------------------------------------------------- #
# REPORT / END bytes: written from the violation log, equal to the records'
# --------------------------------------------------------------------------- #
def _odd_rule(premise, consequent):
    return RecurrentRule(
        premise=tuple(premise), consequent=tuple(consequent), s_support=2, i_support=2,
        confidence=1.0,
    )


#: Labels and session names JSON must escape: non-ASCII, quote, backslash,
#: control characters, and a ``%`` that a format string would choke on.
ODD_RULES = [
    _odd_rule(["münchen"], ["日本"]),
    _odd_rule(['say "hi"', "back\\slash"], ["ctl\x01"]),
    _odd_rule(["münchen", "100%d"], ["tab\tend"]),
]
ODD_SESSIONS = {
    "münchen-1": ["münchen", "münchen", "100%d", "日本", "münchen"],
    "日本": ['say "hi"', "back\\slash", "münchen"],
    'quote"d\\': ["münchen", "100%d", 'say "hi"', "back\\slash", "back\\slash"],
    "ctl\x01%s": ["日本", "münchen", "ctl\x01"],
}


def _records_frame(head, report, limit):
    """The reply as the records' ``as_dict`` would encode it."""
    violations = report.violations if limit is None else report.violations[:limit]
    payload = dict(head)
    payload.update(
        points=report.total_points,
        satisfied=report.satisfied_points,
        violation_count=report.violation_count,
        violations=[violation.as_dict() for violation in violations],
    )
    return encode_frame(payload)


def _raw_reply(stream, payload):
    stream.write(encode_frame(payload))
    stream.flush()
    header = stream.read(4)
    return header + stream.read(struct.unpack(">I", header)[0])


@pytest.mark.parametrize("limit", [None, 0, 1])
def test_report_and_end_bytes_match_the_records_for_escaped_labels(limit):
    single = StreamingMonitor(ODD_RULES)
    with MonitorPool(ODD_RULES, shards=2, queue_depth=64) as pool, EventPushServer(
        pool, port=0
    ) as server, socket.create_connection(server.address, timeout=10.0) as sock:
        stream = sock.makefile("rwb")
        limited = {} if limit is None else {"limit": limit}
        for index, (name, events) in enumerate(ODD_SESSIONS.items()):
            batch = {"op": "BATCH", "session": name, "events": events}
            assert read_frame(io.BytesIO(_raw_reply(stream, batch))) == {"op": "OK"}
            raw = _raw_reply(stream, {"op": "END", "session": name, **limited})
            session = StreamingMonitor(ODD_RULES, first_trace_index=index)
            expected = session.check_trace(events, name=name)
            assert raw == _records_frame({"op": "SESSION", "session": name}, expected, limit)
            single.check_trace(events, name=name)
        raw = _raw_reply(stream, {"op": "REPORT", **limited})
        # The pool's REPORT equals one monitor fed the sessions in turn.
        assert single.report().violation_count == 9
        assert raw == _records_frame({"op": "REPORT"}, single.report(), limit)
        assert pool.report().violations == single.report().violations


def test_unnamed_traces_encode_a_null_trace_name():
    monitor = StreamingMonitor(ODD_RULES)
    for events in ODD_SESSIONS.values():
        monitor.feed_many(events)  # auto-opens an unnamed trace
        monitor.end_trace()
    report = monitor.report()
    assert {violation.trace_name for violation in report.violations} == {None}
    for limit in (None, 0, 1, 4):
        head = {"op": "REPORT"}
        assert _report_frame(dict(head), report, limit) == _records_frame(head, report, limit)


def test_sessions_span_connections(served):
    """A logical session is keyed by session_id, not by TCP connection."""
    server, _ = served
    host, port = server.address
    with PushClient(host, port) as first, PushClient(host, port) as second:
        assert first.feed("shared", "open") == {"op": "OK"}
        assert second.feed("shared", "close") == {"op": "OK"}
        reply = second.end("shared")
        assert reply["points"] == 1 and reply["satisfied"] == 1


def test_swap_over_the_wire(client, served):
    _, pool = served
    client.feed("old", "open")  # admitted under generation 0
    new_rules = [
        RecurrentRule(
            premise=("open", "use"), consequent=("close",), s_support=2, i_support=2, confidence=1.0
        )
    ]
    reply = client.swap(_repository(new_rules))
    assert reply == {"op": "OK", "generation": 1, "rules": 1}
    assert pool.generation == 1
    client.feed("new", "open")  # admitted under generation 1
    old = client.end("old")
    new = client.end("new")
    # Old rules fire on a lone open; the swapped rule needs open,use.
    assert old["violation_count"] == 1
    assert new["violation_count"] == 0


def test_swap_rejects_garbage_repository(client):
    assert client.request({"op": "SWAP", "repository": {"rules": "nope"}})["op"] == "ERROR"
    assert client.ping() == {"op": "PONG"}


def test_busy_propagates_over_the_wire():
    with MonitorPool(RULES, shards=1, queue_depth=2) as pool:
        with EventPushServer(pool, port=0) as server:
            host, port = server.address
            with PushClient(host, port) as push_client:
                pool.pause_shard(0)
                replies = [push_client.feed("s", f"e{n}")["op"] for n in range(20)]
                assert replies[-1] == "BUSY"
                assert "OK" in replies  # the queue accepted up to its bound
                assert push_client.end("s") == {"op": "BUSY"}  # END refused too
                pool.resume_shard(0)
                assert pool.drain(timeout=10.0)
                assert push_client.end("s")["op"] == "SESSION"


def test_pipelined_requests_reply_in_order(client):
    payloads = [{"op": "EVENT", "session": f"s{n % 7}", "event": "open"} for n in range(300)]
    replies = client.pipeline(payloads, window=32)
    assert len(replies) == 300
    assert all(reply == {"op": "OK"} for reply in replies)
    for n in range(7):
        assert client.end(f"s{n}")["op"] == "SESSION"


def test_shutdown_verb_stops_the_server(served):
    server, pool = served
    host, port = server.address
    with PushClient(host, port) as push_client:
        assert push_client.shutdown() == {"op": "OK"}
    server.close()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=0.5).close()


# --------------------------------------------------------------------------- #
# Coalesced replies: a pipelined burst is answered in few writes
# --------------------------------------------------------------------------- #
def _count_server_sendalls(monkeypatch, port):
    """Count ``sendall`` calls made on the server's side of a connection."""
    calls = []
    original = socket.socket.sendall

    def counting(sock, data, *args):
        if sock.getsockname()[1] == port:
            calls.append(len(data))
        return original(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counting)
    return calls


def test_a_burst_in_one_write_is_answered_in_order_with_fewer_writes(served, monkeypatch):
    server, _ = served
    host, port = server.address
    payloads, expected = [], []
    for n in range(10):
        session = f"burst-{n}"
        payloads += [
            {"op": "BATCH", "session": session, "events": ["open", "use"]},
            {"op": "END", "session": session},
            {"op": "PING"},
        ]
        expected += [("OK", None), ("SESSION", session), ("PONG", None)]
    calls = _count_server_sendalls(monkeypatch, port)
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(b"".join(encode_frame(payload) for payload in payloads))
        stream = sock.makefile("rb")
        replies = [read_frame(stream) for _ in payloads]
    assert [(reply["op"], reply.get("session")) for reply in replies] == expected
    assert 0 < len(calls) < len(payloads)


@pytest.mark.parametrize(
    "bad, error",
    [
        (struct.pack(">I", (1 << 20) + 1), "exceeds"),
        (struct.pack(">I", 10) + b"short", "truncated frame payload"),
        (b"\x00\x00", "truncated frame header"),
        (struct.pack(">I", 3) + b"{{{", "not valid JSON"),
    ],
)
def test_a_bad_frame_after_good_ones_gets_their_replies_then_error_then_close(
    served, bad, error
):
    server, _ = served
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        good = encode_frame({"op": "PING"}) + encode_frame({"op": "EVENT", "session": "s", "event": "open"})
        sock.sendall(good + bad)
        sock.shutdown(socket.SHUT_WR)  # a truncated frame is only known at EOF
        stream = sock.makefile("rb")
        assert read_frame(stream) == {"op": "PONG"}
        assert read_frame(stream) == {"op": "OK"}
        reply = read_frame(stream)
        assert reply["op"] == "ERROR" and error in reply["error"]
        assert read_frame(stream) is None  # server hung up on us


# --------------------------------------------------------------------------- #
# Pending END replies: one burst, no block per END, read-your-ENDs
# --------------------------------------------------------------------------- #
def _send_burst(sock, payloads):
    sock.sendall(b"".join(encode_frame(payload) for payload in payloads))
    stream = sock.makefile("rb")
    return [read_frame(stream) for _ in payloads]


def _resume_later(pool, shards, delay=0.3):
    """Resume ``shards`` after ``delay`` seconds, from another thread."""
    timer = threading.Timer(delay, lambda: [pool.resume_shard(shard) for shard in shards])
    timer.start()
    return timer


def _session_on(pool, shard, prefix):
    return next(
        f"{prefix}-{attempt}"
        for attempt in range(10_000)
        if pool.route(f"{prefix}-{attempt}") == shard
    )


#: Sessions ended in the burst ahead of the verb under test.
READ_YOUR_ENDS_SESSIONS = 20


@pytest.mark.parametrize("verb", ["STATS", "REPORT", "ANALYTICS", "SWAP"])
def test_a_verb_after_pipelined_ends_sees_every_session_closed(verb, monkeypatch):
    """One write of BATCH+END for N sessions, then ``verb``: the verb runs
    only after all N closes, although the shards are paused while the
    burst is dispatched (they resume 0.3 s later)."""
    n = READ_YOUR_ENDS_SESSIONS
    with MonitorPool(RULES, shards=2, queue_depth=64) as pool, EventPushServer(
        pool, port=0
    ) as server, socket.create_connection(server.address, timeout=10.0) as sock:
        generation_zero = pool.compiled
        closed_at_swap = []
        real_swap = pool.swap

        def swap(rules):
            closed_at_swap.append(pool.stats()["sessions_closed"])
            return real_swap(rules)

        monkeypatch.setattr(pool, "swap", swap)
        payloads = []
        for number in range(n):
            session = f"rye-{number}"
            payloads.append({"op": "BATCH", "session": session, "events": ["open", "use"]})
            payloads.append({"op": "END", "session": session, "limit": 0})
        payloads.append(
            {"op": "SWAP", "repository": _repository(RULES).to_dict()} if verb == "SWAP" else {"op": verb}
        )
        for shard in range(2):
            pool.pause_shard(shard)
        timer = _resume_later(pool, range(2))
        try:
            replies = _send_burst(sock, payloads)
        finally:
            timer.join()
        assert [reply["op"] for reply in replies[:-1]] == ["OK", "SESSION"] * n
        assert [reply["session"] for reply in replies[1:-1:2]] == [f"rye-{k}" for k in range(n)]
        assert all(reply["violation_count"] == 1 for reply in replies[1:-1:2])
        last = replies[-1]
        if verb == "STATS":
            assert last["sessions_closed"] == n
        elif verb == "REPORT":
            assert (last["points"], last["violation_count"]) == (n, n)
        elif verb == "ANALYTICS":
            (counters,) = last["rules"].values()
            assert counters["opened"] == n and counters["violated"] == n
        else:
            assert last == {"op": "OK", "generation": 1, "rules": 1}
            assert closed_at_swap == [n]
            # Every session closed under the rules it was admitted with.
            traces = pool.report().log.traces
            assert len(traces) == n
            assert all(rules is generation_zero for _, _, rules, _, _ in traces)


def test_pending_end_replies_interleave_in_order_with_busy_lost_and_error():
    """Shard 1 is paused with one item in hand (queue_depth=1): its END is
    held, its next BATCH is BUSY.  Shard 2 crashed: SESSION_LOST.  A bad
    ``limit``: ERROR.  Every reply after the held END waits behind it and
    all come back in request order."""
    with MonitorPool(
        RULES, shards=3, queue_depth=1, supervisor_interval=0.02
    ) as pool, EventPushServer(pool, port=0) as server:
        live, paused, other_paused = (
            _session_on(pool, 0, "live"),
            _session_on(pool, 1, "paused"),
            _session_on(pool, 1, "other"),
        )
        lost = _session_on(pool, 2, "lost")
        for session in (live, paused, lost):
            assert pool.feed_batch(session, ["open"]) == "ok"
        assert pool.drain()
        faults.install("pool.shard", "raise", key="2", count=1)
        try:
            assert pool.feed(lost, "use") == "ok"  # kills shard 2
            deadline = time.monotonic() + 5.0
            while pool.stats()["restarts"] < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            faults.reset()
        pool.pause_shard(1)
        assert pool.feed(paused, "use") == "ok"  # the worker takes it and stalls
        while not pool._shards[1].queue.empty():
            time.sleep(0.005)
        busy_before = obs_metrics.SERVER_BUSY_REPLIES_TOTAL.value()
        lost_before = obs_metrics.SERVER_SESSION_LOST_REPLIES_TOTAL.value()
        errors_before = obs_metrics.SERVER_ERRORS_TOTAL.value()
        burst = [
            {"op": "END", "session": paused},  # fills shard 1's queue; held
            {"op": "END", "session": live, "limit": -1},  # ERROR, session stays open
            {"op": "BATCH", "session": other_paused, "events": ["open"]},  # BUSY
            {"op": "END", "session": lost},  # SESSION_LOST
            {"op": "END", "session": live},  # held
            {"op": "END", "session": other_paused},  # never admitted: ERROR
        ]
        timer = _resume_later(pool, [1])
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                replies = _send_burst(sock, burst)
        finally:
            timer.join()
        assert [(reply["op"], reply.get("session")) for reply in replies] == [
            ("SESSION", paused),
            ("ERROR", None),
            ("BUSY", None),
            ("SESSION_LOST", lost),
            ("SESSION", live),
            ("ERROR", None),
        ]
        assert "limit" in replies[1]["error"] and "unknown session" in replies[5]["error"]
        assert replies[0]["violation_count"] == 1 and replies[4]["violation_count"] == 1
        assert obs_metrics.SERVER_BUSY_REPLIES_TOTAL.value() - busy_before == 1
        assert obs_metrics.SERVER_SESSION_LOST_REPLIES_TOTAL.value() - lost_before == 1
        assert obs_metrics.SERVER_ERRORS_TOTAL.value() - errors_before == 2


def test_end_latency_is_observed_when_the_reply_settles(client, served):
    """``repro_server_request_seconds{op="END"}`` still includes the close:
    an END to a paused shard records at least the pause."""
    _, pool = served
    session = _session_on(pool, 0, "latency")
    assert client.feed_batch(session, ["open", "close"]) == {"op": "OK"}
    assert pool.drain()
    _, sum_before, count_before = obs_metrics.SERVER_REQUEST_SECONDS.sample(op="END")
    pool.pause_shard(0)
    timer = _resume_later(pool, [0], delay=0.3)
    try:
        assert client.end(session)["op"] == "SESSION"
    finally:
        timer.join()
    _, sum_after, count_after = obs_metrics.SERVER_REQUEST_SECONDS.sample(op="END")
    assert count_after - count_before == 1
    assert sum_after - sum_before >= 0.3
