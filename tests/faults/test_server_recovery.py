"""Failure semantics of the TCP front end: torn frames, timeouts, reconnect."""

import socket
import threading

import pytest

from repro.core.errors import ServingTimeout
from repro.rules.rule import RecurrentRule
from repro.serving.pool import MonitorPool
from repro.serving.server import EventPushServer, PushClient, encode_frame
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
