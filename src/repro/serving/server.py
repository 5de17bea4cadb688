"""The event-push socket front end over a :class:`MonitorPool`.

The watch daemon *polls files*; production traffic is *pushed*.  This module
is the network edge of the serving plane: a TCP server speaking a
length-prefixed JSON frame protocol, multiplexing any number of **logical
sessions** over any number of connections.  A session is identified by its
``session`` id, **not** by the connection carrying it — one connection may
drive thousands of interleaved sessions, a session may migrate between
connections, and several producer processes may push into one pool.

Wire format (documented in full in ``docs/serving.md``)::

    frame   := length payload
    length  := 4-byte big-endian unsigned payload byte count
    payload := one UTF-8 JSON object with an "op" field

Requests are answered with exactly one reply frame each, in request order,
so clients may pipeline freely.  A connection dispatches every complete
frame of one read without waiting on any session close: an ``END`` queues
the close and leaves its reply pending, and the pending replies settle (the
handler waits for the closes, then encodes their reports) when the read's
replies are written.  Before any verb other than ``EVENT``/``BATCH``/``END``
the connection settles its pending ``END`` replies first, so a ``STATS``,
``REPORT``, ``ANALYTICS`` or ``SWAP`` sees every session the same
connection ended before it.  The verbs:

========  ============================================================
``EVENT``     push one event of a session (reply ``OK`` / ``BUSY``)
``BATCH``     push several events of one session atomically
``END``       close a session; the reply carries its final report
``STATS``     pool/server counters (shards, queues, generations)
``METRICS``   the full metrics registry, Prometheus text format
``ANALYTICS`` per-rule serving counters merged across the pool's shards
``REPORT``    the aggregate over all closed sessions
``SWAP``      hot-swap the served rule set to a new compile generation
``PING``      liveness probe (reply ``PONG``)
``SHUTDOWN``  stop the server after acknowledging
========  ============================================================

``BUSY`` is the backpressure half of the protocol: it means the session's
shard queue was full and *nothing* was queued — the client must resend the
same frame (typically after a short backoff).  Because a batch is accepted
or rejected atomically, retrying can never duplicate or reorder a prefix.

``SESSION_LOST`` is the failure half (see ``docs/robustness.md``): a
session whose pool shard crashed answers it exactly once on the next
``EVENT``/``BATCH``/``END`` under its id — the monitoring state is gone,
the id is free to re-admit.  ``EVENT``/``BATCH`` may carry an optional
integer ``seq`` (per-session, monotonic): a re-sent batch whose ``seq``
was already accepted is acknowledged ``OK`` without being fed again, which
makes retry-after-reconnect idempotent even when the original reply was
lost with the connection.

:class:`PushClient` is the matching client: a thin framing wrapper plus
convenience verbs, a pipelined bulk mode, socket timeouts surfacing as
:class:`~repro.core.errors.ServingTimeout`, and (opt-in via ``retries``)
exponential-backoff reconnect with idempotent re-send of unanswered
frames.  Used by the bench driver, the protocol tests and
``examples/push_client.py``.

When tracing is armed (``repro.obs.tracing``), frames carry a trace
context: the client stamps its current ``trace``/``parent`` span ids into
each request payload, and the server opens a ``server.request`` child span
under the received ids — so one trace threads client → server → pool shard
(see ``docs/observability.md``).  Both sides degrade to plain frames when
tracing is disarmed; unknown extra fields are ignored by either end.
"""

from __future__ import annotations

import json
import random
import select
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.errors import DataFormatError, MonitoringError, ServingTimeout, SessionLost
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..specs.repository import SpecificationRepository
from ..testing import faults
from ..testing.faults import FaultInjected
from .pool import ACCEPTED, SESSION_LOST, MonitorPool, SessionTicket

#: Frames above this size are refused (and the connection closed): a bad
#: length prefix must never make the server buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 1 << 20
#: How long one settle of a connection's pending ``END`` replies waits, in
#: seconds, for their shards to close the sessions.  The deadline covers
#: the whole settle, not each ``END``; a close still pending past it is
#: answered ``ERROR`` (the session still closes in the pool).
END_TIMEOUT = 60.0
#: While settling, how often the handler checks whether the peer reset the
#: connection; a reset drops the pending replies instead of waiting on.
_RESET_POLL_SECONDS = 0.1

_LENGTH = struct.Struct(">I")

#: The verbs the protocol knows.  Request latency is labelled by verb;
#: anything else is bucketed under ``"other"`` so a misbehaving client
#: cannot inflate the metric label space.
_KNOWN_OPS = frozenset(
    {
        "EVENT",
        "BATCH",
        "END",
        "STATS",
        "METRICS",
        "ANALYTICS",
        "REPORT",
        "SWAP",
        "PING",
        "SHUTDOWN",
    }
)
#: The verbs dispatched with ``END`` replies still pending; any other verb
#: settles them first.
_FEED_OPS = frozenset({"EVENT", "BATCH", "END"})


class ProtocolError(Exception):
    """A malformed frame — the connection cannot be trusted past it."""


# --------------------------------------------------------------------- #
# Framing (shared by server, client and the example script)
# --------------------------------------------------------------------- #
def encode_frame(payload: Dict[str, object]) -> bytes:
    """Encode one JSON object as a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def read_frame(
    stream, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Dict[str, object]]:
    """Read one frame from a binary file-like stream.

    Returns ``None`` on a clean end of stream (EOF exactly between frames);
    raises :class:`ProtocolError` on a truncated or oversized frame or a
    payload that is not a JSON object.
    """
    header = stream.read(_LENGTH.size)
    if not header:
        return None
    if len(header) != _LENGTH.size:
        raise ProtocolError("truncated frame header")
    length = _frame_length(header, 0, max_frame_bytes)
    body = stream.read(length)
    if len(body) != length:
        raise ProtocolError("truncated frame payload")
    return _decode_payload(body)


def _frame_length(header, offset: int, max_frame_bytes: int) -> int:
    """The payload length in the header at ``offset``, checked against the limit."""
    (length,) = _LENGTH.unpack_from(header, offset)
    if length > max_frame_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_frame_bytes} byte limit")
    return length


def _decode_payload(body: bytes) -> Dict[str, object]:
    """One frame's payload as a JSON object (:class:`ProtocolError` if not)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


def _string_field(payload: Dict[str, object], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value:
        raise MonitoringError(f"{payload.get('op', '?')} needs a non-empty string {field!r}")
    return value


def _trace_field(payload: Dict[str, object]) -> Optional[Tuple[str, Optional[str]]]:
    """The frame's ``(trace_id, parent_span_id)``, or ``None`` when absent.

    Wire values are untrusted: anything that is not a non-empty string is
    treated as absent rather than rejected — trace context is best-effort
    telemetry, never a reason to refuse a request.  When the handler's own
    ``server.request`` span is open on this trace, it becomes the parent,
    so downstream pool spans nest client → server → shard rather than
    skipping the server tier.
    """
    trace = payload.get("trace")
    if not isinstance(trace, str) or not trace:
        return None
    if tracing.ACTIVE is not None:
        ids = tracing.current_ids()
        if ids is not None and ids[0] == trace:
            return trace, ids[1]
    parent = payload.get("parent")
    return trace, parent if isinstance(parent, str) and parent else None


def _seq_field(payload: Dict[str, object]) -> Optional[int]:
    value = payload.get("seq")
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise MonitoringError("'seq' must be an integer batch sequence number")
    return value


def _limit_field(payload: Dict[str, object], name: str = "limit") -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise MonitoringError(f"'{name}' must be a non-negative integer")
    return value


class _PendingEnd:
    """An ``END`` whose close is queued on the session's shard: its reply
    is the session's report once :attr:`ticket` resolves."""

    __slots__ = ("session", "ticket", "limit", "started")

    def __init__(self, session: str, ticket: SessionTicket, limit: Optional[int]) -> None:
        self.session = session
        self.ticket = ticket
        self.limit = limit
        #: When the handler began on the ``END`` frame (``perf_counter``);
        #: its request latency is observed from here once the reply settles.
        self.started = 0.0


#: What :meth:`EventPushServer._dispatch` answers: a payload for
#: :func:`encode_frame`, a frame it already encoded, or an ``END`` reply
#: still pending on its session's close.
Reply = Union[Dict[str, object], bytearray, _PendingEnd]


def _report_frame(head: Dict[str, object], report, limit: Optional[int]) -> bytearray:
    """The ``REPORT``/``SESSION`` reply frame: ``head`` plus the report's
    counts and first ``limit`` violations, written straight from its
    violation log into one buffer (the bytes :func:`encode_frame` would
    give for ``as_dict()`` of each violation)."""
    head.update(
        points=report.total_points,
        satisfied=report.satisfied_points,
        violation_count=report.violation_count,
    )
    frame = bytearray(_LENGTH.size)
    frame += json.dumps(head, separators=(",", ":")).encode("utf-8")
    frame[-1:] = b',"violations":'
    report.log.encode_json(frame, limit)
    frame += b"}"
    _LENGTH.pack_into(frame, 0, len(frame) - _LENGTH.size)
    return frame


#: Bytes asked of one ``recv_into``, into one buffer per connection (a
#: fresh ``recv`` buffer per call costs the server about 1 MB of RSS).
_RECV_BYTES = 1 << 16
#: Buffered replies are written once they reach this many bytes; a reply
#: frame this large (a big ``REPORT`` or ``SESSION``, say) is written on
#: its own right after them, never copied into the buffer.
_COALESCE_BYTES = 1 << 16


class _Handler(socketserver.BaseRequestHandler):
    """One connection: read frames, dispatch verbs, reply in order.

    Input is read a ``recv_into`` at a time and every complete frame in it is
    dispatched; their replies are buffered and written with one
    ``sendall`` once no complete frame is left, so a pipelined burst is
    answered in one write rather than one per frame.

    An ``END`` does not hold up the burst: its close is queued and its
    reply held, with every reply after it, until the burst's replies are
    written or a verb other than ``EVENT``/``BATCH``/``END`` arrives.  Then
    :meth:`_settle` waits for the closes, under one :data:`END_TIMEOUT`
    deadline, and answers the held replies in request order.  Held and
    buffered replies are also written before SHUTDOWN stops the server and
    before the connection drops, injected drops included; a peer reset
    drops them unwritten (the queued closes still run in the pool).
    """

    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        # Each burst's replies are written as soon as they are ready; with
        # Nagle's algorithm on, a client waiting on them would wait out
        # the delayed ACK.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._out = bytearray()
        # The replies from the first pending END on, in request order.
        self._held: List[Reply] = []
        obs_metrics.SERVER_CONNECTIONS_TOTAL.inc()
        try:
            self._serve()
        except OSError:
            return  # peer reset: nobody is left to answer
        except FaultInjected:
            pass  # injected drop: answer what took effect, then drop
        try:
            self._flush()
        except OSError:
            pass  # half-closed peer; nothing left to tell it

    def _serve(self) -> None:
        """Serve frames until the connection is to be dropped."""
        server: "_PushTCPServer" = self.server  # type: ignore[assignment]
        front = server.front
        sock = self.request
        buffer = bytearray()
        chunk = memoryview(bytearray(_RECV_BYTES))
        frame_index = 0
        while True:
            received = sock.recv_into(chunk)
            if not received:
                if buffer:
                    truncated = "header" if len(buffer) < _LENGTH.size else "payload"
                    self._queue({"op": "ERROR", "error": f"truncated frame {truncated}"})
                return
            buffer += chunk[:received]
            offset = 0
            while len(buffer) - offset >= _LENGTH.size:
                try:
                    length = _frame_length(buffer, offset, front.max_frame_bytes)
                    end = offset + _LENGTH.size + length
                    if end > len(buffer):
                        break
                    payload = _decode_payload(buffer[offset + _LENGTH.size:end])
                except ProtocolError as error:
                    self._queue({"op": "ERROR", "error": str(error)})
                    return  # framing is gone; drop the connection
                offset = end
                if self._answer(front, payload, frame_index):
                    # Acknowledge first, then stop accepting: SHUTDOWN's OK
                    # must reach the client that asked for it.
                    self._flush()
                    threading.Thread(target=server.shutdown, daemon=True).start()
                    return
                frame_index += 1
            del buffer[:offset]
            self._flush()

    def _answer(self, front: "EventPushServer", payload: Dict[str, object], frame_index: int) -> bool:
        """Dispatch one request and queue its reply; returns whether to stop
        serving.  Raises :class:`FaultInjected` on an injected drop."""
        op = payload.get("op")
        op_label = op if op in _KNOWN_OPS else "other"
        if self._held and op not in _FEED_OPS:
            # Read-your-ENDs: this verb sees every session this connection
            # ended before it as closed.
            self._settle()
        started = time.perf_counter()
        if faults.ACTIVE is not None:
            # Chaos hooks: drop the connection before (frame) or after
            # (reply) the request takes effect.
            faults.trigger("server.frame", key=str(frame_index))
        request_span = (
            tracing.remote_span(
                "server.request",
                payload.get("trace"),
                payload.get("parent"),
                op=op_label,
            )
            if tracing.ACTIVE is not None and "trace" in payload
            else tracing._NOOP
        )
        try:
            with request_span:
                reply, stop = front._dispatch(payload)
        except (
            MonitoringError,
            DataFormatError,
            KeyError,
            TypeError,
            ValueError,
        ) as error:
            reply, stop = {"op": "ERROR", "error": str(error)}, False
        if faults.ACTIVE is not None:
            faults.trigger("server.reply", key=str(frame_index))
        obs_metrics.SERVER_REQUESTS_TOTAL.inc(op=op_label)
        if isinstance(reply, _PendingEnd):
            reply.started = started  # observed when the reply settles
        else:
            _observe(reply, op_label, started)
        self._queue(reply)
        return stop

    def _queue(self, reply: Reply) -> None:
        """Hold a reply behind a pending ``END``, else buffer it for writing."""
        if self._held or isinstance(reply, _PendingEnd):
            self._held.append(reply)
        else:
            self._write(reply)

    def _settle(self) -> None:
        """Answer the held replies in request order, waiting for each
        pending ``END``'s close; one :data:`END_TIMEOUT` deadline covers
        them all."""
        if not self._held:
            return
        held, self._held = self._held, []
        deadline = time.monotonic() + END_TIMEOUT
        for reply in held:
            if isinstance(reply, _PendingEnd):
                reply = self._settle_end(reply, deadline)
            self._write(reply)

    def _settle_end(self, pending: _PendingEnd, deadline: float) -> Reply:
        """The reply to one pending ``END``, once its close is done or failed."""
        try:
            report = self._wait(pending.ticket, deadline)
        except SessionLost as error:
            reply: Reply = {"op": "SESSION_LOST", "session": pending.session, "error": str(error)}
        except ServingTimeout as error:
            reply = {"op": "ERROR", "error": str(error)}
        else:
            reply = _report_frame({"op": "SESSION", "session": pending.session}, report, pending.limit)
        _observe(reply, "END", pending.started)
        return reply

    def _wait(self, ticket: SessionTicket, deadline: float):
        """The ticket's report, waited for until ``deadline``; raises
        :class:`OSError` as soon as the peer resets the connection."""
        while True:
            remaining = deadline - time.monotonic()
            try:
                return ticket.wait(timeout=max(0.0, min(remaining, _RESET_POLL_SECONDS)))
            except ServingTimeout:
                if remaining <= _RESET_POLL_SECONDS:
                    raise ServingTimeout(
                        f"the session did not close within the {END_TIMEOUT:g}s settle deadline"
                    ) from None
            readable, _, _ = select.select([self.request], [], [], 0)
            if readable:
                self.request.recv(1, socket.MSG_PEEK)  # raises on a reset

    def _write(self, reply: Reply) -> None:
        """Buffer one reply frame (a large one is written as is)."""
        frame = reply if isinstance(reply, bytearray) else encode_frame(reply)
        if len(frame) >= _COALESCE_BYTES:
            self._send()
            self.request.sendall(frame)
            return
        self._out += frame
        if len(self._out) >= _COALESCE_BYTES:
            self._send()

    def _send(self) -> None:
        """Write the buffered replies in one ``sendall``."""
        if self._out:
            out, self._out = self._out, bytearray()
            self.request.sendall(out)

    def _flush(self) -> None:
        """Settle the held replies and write everything buffered."""
        self._settle()
        self._send()


def _observe(reply: Reply, op_label: str, started: float) -> None:
    """Record one answered request: its latency since ``started`` and any
    ``BUSY``/``SESSION_LOST``/``ERROR`` reply."""
    obs_metrics.SERVER_REQUEST_SECONDS.observe(time.perf_counter() - started, op=op_label)
    reply_op = reply.get("op") if isinstance(reply, dict) else None
    if reply_op == "BUSY":
        obs_metrics.SERVER_BUSY_REPLIES_TOTAL.inc()
    elif reply_op == "SESSION_LOST":
        obs_metrics.SERVER_SESSION_LOST_REPLIES_TOTAL.inc()
    elif reply_op == "ERROR":
        obs_metrics.SERVER_ERRORS_TOTAL.inc()


class _PushTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, front: "EventPushServer") -> None:
        self.front = front
        super().__init__(address, _Handler)


class EventPushServer:
    """The TCP front end: bind, accept, route frames into a pool.

    Parameters
    ----------
    pool:
        The :class:`~repro.serving.pool.MonitorPool` every connection
        pushes into.  The server never monitors anything itself — it only
        frames, validates and routes.
    host / port:
        Bind address; port ``0`` binds an ephemeral port (the bound
        address is :attr:`address` either way).
    max_frame_bytes:
        Upper bound on one frame's payload.

    Use :meth:`start` for a background server (tests, the watch daemon's
    push mode) or :meth:`serve_forever` to block (the ``repro serve``
    command).
    """

    def __init__(
        self,
        pool: MonitorPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.pool = pool
        self.max_frame_bytes = max_frame_bytes
        self._server = _PushTCPServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — with port 0, the port actually bound."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever, name="event-push-server", daemon=True
            )
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or SHUTDOWN)."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting and unwind ``serve_forever`` (idempotent)."""
        self._server.shutdown()

    def close(self) -> None:
        """Shut down and release the listening socket (the pool stays up)."""
        self.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "EventPushServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Verb dispatch
    # ------------------------------------------------------------------ #
    @staticmethod
    def _feed_reply(status: str, session: str) -> Dict[str, object]:
        if status == ACCEPTED:
            return {"op": "OK"}
        if status == SESSION_LOST:
            return {"op": "SESSION_LOST", "session": session}
        return {"op": "BUSY"}

    def _dispatch(self, payload: Dict[str, object]) -> Tuple[Reply, bool]:
        """Handle one request; returns ``(reply, stop_serving)``.

        ``REPORT`` encodes its reply frame here, from the report's
        violation log.  ``END`` queues the session's close and answers a
        :class:`_PendingEnd`: the connection handler waits for the close
        and encodes the session's report when it settles the reply.  Every
        other reply is a payload the handler encodes.
        """
        op = payload.get("op")
        if op == "EVENT":
            session = _string_field(payload, "session")
            event = _string_field(payload, "event")
            status = self.pool.feed(
                session, event, seq=_seq_field(payload), trace=_trace_field(payload)
            )
            return self._feed_reply(status, session), False
        if op == "BATCH":
            session = _string_field(payload, "session")
            events = payload.get("events")
            if not isinstance(events, list) or not all(
                isinstance(event, str) for event in events
            ):
                raise MonitoringError("BATCH needs an 'events' list of strings")
            status = self.pool.feed_batch(
                session, events, seq=_seq_field(payload), trace=_trace_field(payload)
            )
            return self._feed_reply(status, session), False
        if op == "END":
            session = _string_field(payload, "session")
            limit = _limit_field(payload)  # before END takes effect
            try:
                ticket = self.pool.end_session(session, trace=_trace_field(payload))
            except SessionLost as error:
                return {"op": "SESSION_LOST", "session": session, "error": str(error)}, False
            if ticket is None:
                return {"op": "BUSY"}, False
            return _PendingEnd(session, ticket, limit), False
        if op == "STATS":
            stats = dict(self.pool.stats())
            stats["op"] = "STATS"
            stats["uptime_seconds"] = round(time.monotonic() - self._started, 3)
            return stats, False
        if op == "METRICS":
            # A scrape of the process-wide registry: refresh the pool's
            # level gauges (queue depths, active sessions) first so the
            # rendering reflects this instant, then ship the Prometheus
            # text inside the ordinary JSON reply frame.
            self.pool.stats()
            return {
                "op": "METRICS",
                "content_type": "text/plain; version=0.0.4",
                "text": obs_metrics.REGISTRY.render_text(),
            }, False
        if op == "ANALYTICS":
            # Per-rule serving counters, merged order-free across shards.
            # An optional non-negative "top" keeps only the N most-violated
            # rules (ties broken by opened points, then rule id) so a
            # dashboard polling a huge rule set gets a bounded reply.
            top = _limit_field(payload, "top")
            rules = self.pool.rule_analytics()
            if top is not None:
                ranked = sorted(
                    rules.items(),
                    key=lambda item: (-item[1]["violated"], -item[1]["opened"], item[0]),
                )
                rules = dict(ranked[:top])
            return {
                "op": "ANALYTICS",
                "generation": self.pool.generation,
                "rules": rules,
            }, False
        if op == "REPORT":
            limit = _limit_field(payload)
            return _report_frame({"op": "REPORT"}, self.pool.report(), limit), False
        if op == "SWAP":
            repository = payload.get("repository")
            if not isinstance(repository, dict):
                raise MonitoringError(
                    "SWAP needs a 'repository' object (SpecificationRepository.to_dict())"
                )
            rules = SpecificationRepository.from_dict(repository).rules
            generation = self.pool.swap(rules)
            return {"op": "OK", "generation": generation, "rules": len(rules)}, False
        if op == "PING":
            return {"op": "PONG"}, False
        if op == "SHUTDOWN":
            return {"op": "OK"}, True
        raise MonitoringError(f"unknown op {op!r}")


class PushClient:
    """A small synchronous client for the push protocol.

    One instance wraps one connection; any number of logical sessions can
    be driven through it.  :meth:`request` is strict request/reply;
    :meth:`pipeline` keeps up to ``window`` requests in flight for bulk
    pushes (replies still arrive in request order).

    Failure semantics (see ``docs/robustness.md``):

    * every read is bounded by ``timeout`` — a server that stops replying
      surfaces as :class:`~repro.core.errors.ServingTimeout` instead of a
      hang (the connection is closed: a stream interrupted mid-frame
      cannot be resynchronized);
    * with ``retries > 0`` a dropped or refused connection is rebuilt with
      exponential backoff plus jitter, and every request still awaiting a
      reply is re-sent on the new connection in order.  Because the
      convenience feeds number their batches (``seq``) per session, the
      server acknowledges-without-refeeding any batch it already accepted,
      so retry-after-reconnect is exactly-once for event delivery.  The
      numbering assumes one writer per session — drive a session through
      a single client at a time (sessions may still migrate between
      connections sequentially).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        *,
        connect_timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.2,
        max_backoff: float = 5.0,
        jitter: float = 0.25,
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self._retries = retries
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._jitter = jitter
        self._unanswered: Deque[Dict[str, object]] = deque()
        self._session_seq: Dict[str, int] = {}
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # -- connection management ----------------------------------------- #
    def _connect(self) -> None:
        self._sock = socket.create_connection(self._address, timeout=self._connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(self._timeout)
        self._file = self._sock.makefile("rwb")

    def _teardown(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _reconnect(self) -> None:
        """Rebuild the connection (backoff + jitter); re-send unanswered frames."""
        self._teardown()
        delay = self._backoff
        last_error: Optional[BaseException] = None
        for _ in range(self._retries):
            try:
                self._connect()
                break
            except OSError as error:
                last_error = error
                time.sleep(delay + random.uniform(0.0, self._jitter * delay))
                delay = min(delay * 2, self._max_backoff)
        else:
            host, port = self._address
            raise ProtocolError(
                f"could not reconnect to {host}:{port} after "
                f"{self._retries} attempt(s): {last_error}"
            )
        self.reconnects += 1
        assert self._file is not None
        for payload in self._unanswered:
            self._file.write(encode_frame(payload))
        self._file.flush()

    # -- framing ------------------------------------------------------- #
    def send(self, payload: Dict[str, object]) -> None:
        """Write one request frame without waiting for its reply.

        With tracing armed, the caller's current trace context is stamped
        into the payload (``trace``/``parent`` fields) before the frame is
        queued, so a retried re-send carries the same ids the original
        did.  A payload that already names a ``trace`` is left alone.
        """
        if tracing.ACTIVE is not None and "trace" not in payload:
            trace_id, parent = tracing.ensure_context()
            payload["trace"] = trace_id
            if parent is not None:
                payload["parent"] = parent
        self._unanswered.append(payload)
        if self._file is None:
            if not self._retries:
                raise ProtocolError("the connection is closed")
            self._reconnect()  # re-sends the queue, including this payload
            return
        try:
            self._file.write(encode_frame(payload))
        except OSError:
            if not self._retries:
                raise
            self._reconnect()

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def read(self) -> Dict[str, object]:
        """Read one reply frame (replies arrive in request order).

        Raises :class:`~repro.core.errors.ServingTimeout` when no reply
        arrives within the socket timeout; with ``retries`` configured, a
        dropped connection is rebuilt (unanswered requests re-sent) and
        the read continues on the new connection.
        """
        while True:
            if self._file is None:
                if not self._retries:
                    raise ProtocolError("the connection is closed")
                self._reconnect()
            try:
                self.flush()
                reply = read_frame(self._file)
            except TimeoutError as error:
                # A stream interrupted mid-frame cannot be resumed; drop
                # the connection so the next call starts clean.
                self._teardown()
                host, port = self._address
                raise ServingTimeout(
                    f"no reply from {host}:{port} within {self._timeout:g}s "
                    "(server unresponsive or overloaded)"
                ) from error
            except (OSError, ProtocolError):
                if not self._retries:
                    raise
                self._teardown()
                self._reconnect()
                continue
            if reply is None:
                if not self._retries:
                    raise ProtocolError("server closed the connection")
                self._teardown()
                self._reconnect()
                continue
            if self._unanswered:
                self._unanswered.popleft()
            return reply

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one request and read its reply."""
        self.send(payload)
        return self.read()

    def pipeline(
        self, payloads: Iterable[Dict[str, object]], window: int = 256
    ) -> List[Dict[str, object]]:
        """Send many requests with at most ``window`` in flight.

        Bounding the in-flight window keeps both sides' socket buffers
        from deadlocking on huge bursts (the server replies to every
        frame; someone has to read those replies).  An unresponsive server
        surfaces as :class:`~repro.core.errors.ServingTimeout` from the
        first overdue reply rather than a silent hang.
        """
        replies: List[Dict[str, object]] = []
        pending = 0
        for payload in payloads:
            self.send(payload)
            pending += 1
            if pending >= window:
                replies.append(self.read())
                pending -= 1
        for _ in range(pending):
            replies.append(self.read())
        return replies

    # -- convenience verbs --------------------------------------------- #
    def _next_seq(self, session: str) -> int:
        seq = self._session_seq.get(session, -1) + 1
        self._session_seq[session] = seq
        return seq

    def feed(self, session: str, event: str) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "EVENT", "session": session, "event": event}
        if self._retries:
            payload["seq"] = self._next_seq(session)
        return self.request(payload)

    def feed_batch(self, session: str, events: Sequence[str]) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "op": "BATCH",
            "session": session,
            "events": list(events),
        }
        if self._retries:
            payload["seq"] = self._next_seq(session)
        return self.request(payload)

    def end(self, session: str, limit: Optional[int] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "END", "session": session}
        if limit is not None:
            payload["limit"] = limit
        return self.request(payload)

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "STATS"})

    def metrics(self) -> str:
        """Scrape the server's metrics registry (Prometheus text format)."""
        reply = self.request({"op": "METRICS"})
        text = reply.get("text")
        if reply.get("op") != "METRICS" or not isinstance(text, str):
            raise ProtocolError(f"unexpected METRICS reply: {reply!r}")
        return text

    def analytics(self, top: Optional[int] = None) -> Dict[str, object]:
        """Fetch the per-rule serving analytics (optionally only the top N)."""
        payload: Dict[str, object] = {"op": "ANALYTICS"}
        if top is not None:
            payload["top"] = top
        reply = self.request(payload)
        if reply.get("op") != "ANALYTICS" or not isinstance(reply.get("rules"), dict):
            raise ProtocolError(f"unexpected ANALYTICS reply: {reply!r}")
        return reply

    def report(self, limit: Optional[int] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "REPORT"}
        if limit is not None:
            payload["limit"] = limit
        return self.request(payload)

    def swap(
        self, repository: Union[SpecificationRepository, Dict[str, object]]
    ) -> Dict[str, object]:
        payload = (
            repository.to_dict()
            if isinstance(repository, SpecificationRepository)
            else repository
        )
        return self.request({"op": "SWAP", "repository": payload})

    def ping(self) -> Dict[str, object]:
        return self.request({"op": "PING"})

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "SHUTDOWN"})

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "PushClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
