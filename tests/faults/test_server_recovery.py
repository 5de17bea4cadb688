"""Failure semantics of the TCP front end: torn frames, timeouts, reconnect."""

import socket
import struct
import threading
import time

import pytest

from repro.core.errors import ServingTimeout
from repro.obs import metrics as obs_metrics
from repro.rules.rule import RecurrentRule
from repro.serving.pool import MonitorPool
from repro.serving.server import EventPushServer, PushClient, encode_frame, read_frame
from repro.testing import faults

from .conftest import wait_until

RULES = [
    RecurrentRule(
        premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0
    ),
]


@pytest.fixture
def serving():
    pool = MonitorPool(RULES, shards=2, supervisor_interval=0.02)
    server = EventPushServer(pool)
    host, port = server.start()
    yield pool, host, port
    server.close()
    pool.close()


def _session_on(pool: MonitorPool, shard_index: int) -> str:
    for attempt in range(10_000):
        session_id = f"wire-{attempt}"
        if pool.route(session_id) == shard_index:
            return session_id
    raise AssertionError(f"no session id found for shard {shard_index}")


def _raw(host: str, port: int) -> socket.socket:
    return socket.create_connection((host, port), timeout=2.0)


# --------------------------------------------------------------------- #
# Torn frames and half-closed sockets
# --------------------------------------------------------------------- #
def test_connection_closed_mid_length_prefix(serving):
    pool, host, port = serving
    with _raw(host, port) as sock:
        sock.sendall(b"\x00\x00")  # two of the four length bytes, then FIN
    with PushClient(host, port, timeout=2.0) as client:
        assert client.ping() == {"op": "PONG"}
    assert pool.stats()["sessions_opened"] == 0


def test_connection_closed_mid_payload_admits_nothing(serving):
    pool, host, port = serving
    frame = encode_frame({"op": "EVENT", "session": "torn", "event": "open"})
    with _raw(host, port) as sock:
        sock.sendall(frame[:-3])  # correct header, truncated payload
    with PushClient(host, port, timeout=2.0) as client:
        assert client.ping() == {"op": "PONG"}
    # The torn EVENT never dispatched: no session was admitted.
    assert pool.stats()["sessions_opened"] == 0
    assert pool.active_sessions == 0


def test_connection_closed_between_pipelined_requests(serving):
    pool, host, port = serving
    ping = encode_frame({"op": "PING"})
    second = encode_frame({"op": "EVENT", "session": "torn", "event": "open"})
    with _raw(host, port) as sock:
        sock.sendall(ping + second[: len(second) // 2])
        stream = sock.makefile("rb")
        from repro.serving.server import read_frame

        assert read_frame(stream) == {"op": "PONG"}  # the complete frame was served
    with PushClient(host, port, timeout=2.0) as client:
        assert client.ping() == {"op": "PONG"}
    assert pool.stats()["sessions_opened"] == 0


def test_torn_connections_leak_no_threads_or_sessions(serving):
    pool, host, port = serving
    baseline = threading.active_count()
    for payload in (b"\x00", b"\x00\x00\x00\x08abc", b"not-a-frame-at-all"):
        for _ in range(4):
            with _raw(host, port) as sock:
                sock.sendall(payload)
    assert wait_until(lambda: threading.active_count() <= baseline)
    assert pool.active_sessions == 0
    with PushClient(host, port, timeout=2.0) as client:
        assert client.ping() == {"op": "PONG"}


# --------------------------------------------------------------------- #
# Timeouts
# --------------------------------------------------------------------- #
def test_unresponsive_server_surfaces_as_serving_timeout():
    listener = socket.socket()
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)  # accepts via backlog, never replies
        host, port = listener.getsockname()
        with PushClient(host, port, timeout=0.3) as client:
            with pytest.raises(ServingTimeout, match="no reply"):
                client.ping()
    finally:
        listener.close()


def test_stalled_shard_times_out_the_reader_not_the_process(serving):
    pool, host, port = serving
    session = _session_on(pool, 0)
    client = PushClient(host, port, timeout=0.5)
    assert client.feed(session, "open")["op"] == "OK"
    pool.pause_shard(0)
    try:
        client.send({"op": "END", "session": session})
        with pytest.raises(ServingTimeout):
            client.read()
    finally:
        pool.resume_shard(0)
        client.close()


# --------------------------------------------------------------------- #
# Reconnect with idempotent re-send
# --------------------------------------------------------------------- #
def test_lost_reply_is_not_refed_after_reconnect(serving):
    # The drop fires *after* dispatch: the server fed the event but its
    # reply died with the connection.  The client's re-send carries the
    # same seq, so the server acknowledges without feeding twice.
    pool, host, port = serving
    faults.install("server.reply", "drop", key="2", count=1)
    client = PushClient(host, port, timeout=2.0, retries=3, backoff=0.01, max_backoff=0.05)
    for index in range(5):
        assert client.feed("resend", f"event-{index}")["op"] == "OK"
    assert client.end("resend")["op"] == "SESSION"
    assert client.reconnects == 1
    assert pool.stats()["events_processed"] == 5  # exactly once each
    client.close()


def test_dropped_request_is_delivered_after_reconnect(serving):
    # The drop fires *before* dispatch: the request was lost entirely and
    # the re-send is its first (and only) delivery.
    pool, host, port = serving
    faults.install("server.frame", "drop", key="3", count=1)
    client = PushClient(host, port, timeout=2.0, retries=3, backoff=0.01, max_backoff=0.05)
    for index in range(5):
        assert client.feed("redeliver", f"event-{index}")["op"] == "OK"
    assert client.end("redeliver")["op"] == "SESSION"
    assert client.reconnects == 1
    assert pool.stats()["events_processed"] == 5
    client.close()


def test_client_without_retries_raises_on_a_dropped_connection(serving):
    pool, host, port = serving
    faults.install("server.frame", "drop", key="0", count=1)
    from repro.serving.server import ProtocolError

    with PushClient(host, port, timeout=2.0) as client:
        with pytest.raises((ProtocolError, OSError)):
            client.ping()


# --------------------------------------------------------------------- #
# SESSION_LOST on the wire
# --------------------------------------------------------------------- #
def test_shard_crash_answers_session_lost_not_a_hang(serving):
    pool, host, port = serving
    session = _session_on(pool, 0)
    with PushClient(host, port, timeout=2.0) as client:
        assert client.feed(session, "open")["op"] == "OK"
        assert pool.drain()
        faults.install("pool.shard", "raise", key="0", count=1)
        assert client.feed(session, "use")["op"] == "OK"  # kills the shard
        assert wait_until(lambda: pool.stats()["restarts"] == 1)
        reply = client.feed(session, "use")
        assert reply["op"] == "SESSION_LOST"
        assert reply["session"] == session
        # The id is free again: re-admission and a clean close both work.
        assert client.feed(session, "open")["op"] == "OK"
        assert client.end(session)["op"] == "SESSION"


def test_end_of_a_lost_session_reports_session_lost(serving):
    pool, host, port = serving
    session = _session_on(pool, 0)
    with PushClient(host, port, timeout=2.0) as client:
        assert client.feed(session, "open")["op"] == "OK"
        assert pool.drain()
        faults.install("pool.shard", "raise", key="0", count=1)
        assert client.feed(session, "use")["op"] == "OK"
        assert wait_until(lambda: pool.stats()["restarts"] == 1)
        reply = client.end(session)
        assert reply["op"] == "SESSION_LOST"
        assert "crashed" in reply["error"]


# --------------------------------------------------------------------- #
# Coalesced replies survive an injected drop
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("hook, took_effect", [("server.reply", True), ("server.frame", False)])
def test_replies_buffered_before_an_injected_drop_reach_the_client(serving, hook, took_effect):
    # Frames 0-2 took effect and their replies wait in the reply buffer
    # when the drop fires at frame 3 (after it took effect for
    # server.reply, before for server.frame): they are written before the
    # connection closes; frame 3's reply and frame 4 are lost.
    pool, host, port = serving
    faults.install(hook, "drop", key="3", count=1)
    burst = [
        {"op": "BATCH", "session": "first", "events": ["open", "close"]},
        {"op": "END", "session": "first"},
        {"op": "PING"},
        {"op": "BATCH", "session": "second", "events": ["open"]},
        {"op": "PING"},
    ]
    from repro.serving.server import read_frame

    with _raw(host, port) as sock:
        sock.sendall(b"".join(encode_frame(payload) for payload in burst))
        stream = sock.makefile("rb")
        assert read_frame(stream) == {"op": "OK"}
        assert read_frame(stream)["op"] == "SESSION"
        assert read_frame(stream) == {"op": "PONG"}
        assert read_frame(stream) is None
    assert pool.stats()["sessions_opened"] == (2 if took_effect else 1)


# --------------------------------------------------------------------- #
# END replies pending when something fails
# --------------------------------------------------------------------- #
def _opened_sessions(pool: MonitorPool, shard_index: int, count: int) -> list:
    """``count`` sessions on one shard, each fed one event and drained."""
    sessions = []
    for attempt in range(10_000):
        session_id = f"pending-{attempt}"
        if pool.route(session_id) == shard_index:
            assert pool.feed(session_id, "open") == "ok"
            sessions.append(session_id)
            if len(sessions) == count:
                assert pool.drain()
                return sessions
    raise AssertionError(f"not enough session ids for shard {shard_index}")


def _read_replies(sock: socket.socket, count: int) -> list:
    stream = sock.makefile("rb")
    return [read_frame(stream) for _ in range(count)]


def test_shard_crash_with_ends_pending_answers_session_lost_in_order(serving):
    pool, host, port = serving
    sessions = _opened_sessions(pool, 0, 5)
    lost_before = obs_metrics.SERVER_SESSION_LOST_REPLIES_TOTAL.value()
    faults.install("pool.shard", "raise", key="0", count=1)
    pool.pause_shard(0)
    with _raw(host, port) as sock:
        sock.sendall(b"".join(encode_frame({"op": "END", "session": s}) for s in sessions))
        # Every END is queued (its reply pending) before the shard resumes
        # and crashes on the first of them.
        assert wait_until(lambda: pool.active_sessions == 0)
        pool.resume_shard(0)
        replies = _read_replies(sock, len(sessions))
        assert [(reply["op"], reply["session"]) for reply in replies] == [
            ("SESSION_LOST", session) for session in sessions
        ]
        assert all("crashed" in reply["error"] for reply in replies)
        # The connection keeps serving, the crashed shard included.
        sock.sendall(
            encode_frame({"op": "BATCH", "session": sessions[0], "events": ["open", "close"]})
            + encode_frame({"op": "END", "session": sessions[0]})
            + encode_frame({"op": "PING"})
        )
        assert [reply["op"] for reply in _read_replies(sock, 3)] == ["OK", "SESSION", "PONG"]
    assert obs_metrics.SERVER_SESSION_LOST_REPLIES_TOTAL.value() - lost_before == len(sessions)


def test_one_deadline_covers_a_whole_settle(serving, monkeypatch):
    from repro.serving import server as server_module

    pool, host, port = serving
    monkeypatch.setattr(server_module, "END_TIMEOUT", 0.3)
    sessions = _opened_sessions(pool, 0, 5)
    errors_before = obs_metrics.SERVER_ERRORS_TOTAL.value()
    pool.pause_shard(0)
    try:
        with _raw(host, port) as sock:
            sock.settimeout(5.0)
            started = time.monotonic()
            sock.sendall(b"".join(encode_frame({"op": "END", "session": s}) for s in sessions))
            replies = _read_replies(sock, len(sessions))
            elapsed = time.monotonic() - started
    finally:
        pool.resume_shard(0)
    assert [reply["op"] for reply in replies] == ["ERROR"] * len(sessions)
    assert all("0.3s settle deadline" in reply["error"] for reply in replies)
    assert elapsed < 0.3 * 3  # one deadline, not one per END (5 x 0.3 s)
    assert obs_metrics.SERVER_ERRORS_TOTAL.value() - errors_before == len(sessions)
    # A timed-out reply does not undo the close: the sessions still close.
    assert wait_until(lambda: pool.stats()["sessions_closed"] == len(sessions))


def test_peer_reset_drops_pending_ends_without_waiting(serving):
    pool, host, port = serving
    sessions = _opened_sessions(pool, 0, 5)
    baseline = threading.active_count()
    pool.pause_shard(0)
    try:
        sock = _raw(host, port)
        sock.sendall(b"".join(encode_frame({"op": "END", "session": s}) for s in sessions))
        assert wait_until(lambda: pool.active_sessions == 0)  # all queued, replies pending
        assert threading.active_count() == baseline + 1  # the connection's handler
        # SO_LINGER with a zero timeout: close() sends a reset, not a FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        reset = time.monotonic()
        assert wait_until(lambda: threading.active_count() <= baseline, timeout=5.0)
        assert time.monotonic() - reset < 1.0
        assert pool.stats()["sessions_closed"] == 0  # the shard is still paused
    finally:
        pool.resume_shard(0)
    assert wait_until(lambda: pool.stats()["sessions_closed"] == len(sessions))


@pytest.mark.parametrize("hook", ["server.frame", "server.reply"])
def test_pending_end_replies_reach_the_client_before_an_injected_drop(serving, hook):
    # Frames 0-3 end two sessions on a paused shard: both END replies are
    # pending when the drop fires at frame 4, and are still written (once
    # the shard resumes and the closes settle) before the connection closes.
    pool, host, port = serving
    first, second = _opened_sessions(pool, 0, 2)
    faults.install(hook, "drop", key="4", count=1)
    burst = [
        {"op": "BATCH", "session": first, "events": ["close"]},
        {"op": "END", "session": first},
        {"op": "BATCH", "session": second, "events": ["use"]},
        {"op": "END", "session": second},
        {"op": "PING"},
    ]
    pool.pause_shard(0)
    timer = threading.Timer(0.3, pool.resume_shard, args=(0,))
    timer.start()
    try:
        with _raw(host, port) as sock:
            sock.settimeout(5.0)
            sock.sendall(b"".join(encode_frame(payload) for payload in burst))
            stream = sock.makefile("rb")
            replies = [read_frame(stream) for _ in range(4)]
            assert read_frame(stream) is None
    finally:
        timer.join()
    assert [(reply["op"], reply.get("session")) for reply in replies] == [
        ("OK", None),
        ("SESSION", first),
        ("OK", None),
        ("SESSION", second),
    ]
    assert (replies[1]["violation_count"], replies[3]["violation_count"]) == (0, 1)
