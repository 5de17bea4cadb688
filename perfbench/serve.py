"""Serving workloads: a real ``repro serve`` process and a load generator.

The program under test runs as its own process (``repro serve`` on a saved
specification repository, started through ``serve_launch.py``).  This
process is the load
generator: one thread drives a single pipelined push connection through a
selector, a second thread polls ``STATS`` + ``ANALYTICS`` on a second
connection, standing in for ``repro top``.  Both speak the wire protocol
directly (4-byte big-endian length + JSON), so the generator does not share
code with the server it measures.

* ``serve-sessions`` is a closed loop: a fixed window of unanswered frames,
  many short sessions kept open at once on a rolling schedule.
* ``serve-traces`` is an open loop: every frame has a due time on a fixed
  offered event rate, latencies are timed from the due time, and the
  generator's own lateness is reported so a late generator is not mistaken
  for a slow server.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import gen
from common import (
    BENCH_DIR,
    ROOT,
    SpeedSamples,
    median,
    percentile,
    pin_process,
    proc_cpu_seconds,
    proc_status_kb,
    program_cpus,
    program_env,
    run_setups,
)

_LENGTH = struct.Struct(">I")
_ADDRESS = re.compile(r"serving \d+ rules on ([0-9.]+):(\d+)")


def encode(payload: Dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return _LENGTH.pack(len(body)) + body


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    while size:
        chunk = sock.recv(size)
        if not chunk:
            raise ConnectionError("server closed the connection")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def request(sock: socket.socket, payload: Dict) -> Dict:
    """One blocking request/reply round trip."""
    sock.sendall(encode(payload))
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    return json.loads(_recv_exact(sock, length))


# --------------------------------------------------------------------- #
# The program under test
# --------------------------------------------------------------------- #
class ServerProcess:
    """``repro serve`` as a child process, moved to the program's CPU once
    it listens, started through ``serve_launch.py`` (calibration thread, and the
    timing wrappers when traced).

    Its stderr goes to a file that is polled for the bound address (no
    pipes left to fill).
    """

    def __init__(self, workdir: Path, repository: Path, params: Dict, traced: bool = False):
        self.workdir = workdir
        self.tag = f"{time.monotonic_ns()}"
        self.outcome_path = workdir / f"serve-{self.tag}.json"
        arguments = [
            "serve",
            "--rules", str(repository),
            "--port", "0",
            "--shards", str(params["shards"]),
            "--queue-depth", str(params["queue_depth"]),
        ]
        launcher = [str(BENCH_DIR / "serve_launch.py"), str(self.outcome_path)]
        if traced:
            launcher.append("--trace")
        self.command = [sys.executable] + launcher + arguments
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self, timeout: float = 60.0) -> Tuple[str, int]:
        self.stderr_path = self.workdir / f"serve-{self.tag}.err"
        self.stdout_path = self.workdir / f"serve-{self.tag}.out"
        with open(self.stderr_path, "w") as err, open(self.stdout_path, "w") as out:
            self.process = subprocess.Popen(
                self.command, cwd=ROOT, env=program_env(), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _ADDRESS.search(self.stderr_path.read_text())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                # Started on the benchmark's CPU (set-up); serve on the program's.
                pin_process(self.process.pid, program_cpus())
                return self.address
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"repro serve did not start: {self.stderr_path.read_text()[-2000:]}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self, sock: Optional[socket.socket] = None) -> int:
        """Ask for SHUTDOWN (drain + final report), then wait for the exit."""
        if self.process is None:
            return 0
        try:
            if self.process.poll() is None and self.address is not None:
                if sock is None:
                    with socket.create_connection(self.address, timeout=10) as own:
                        request(own, {"op": "SHUTDOWN"})
                else:
                    request(sock, {"op": "SHUTDOWN"})
            code = self.process.wait(timeout=60)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.process.kill()
            code = self.process.wait()
        self.process = None
        return code


# --------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------- #
class PushResult:
    def __init__(self, count: int) -> None:
        self.sent = [0.0] * count
        self.answered = [0.0] * count
        self.ops: List[Optional[str]] = [None] * count
        self.start = 0.0
        self.end = 0.0
        self.lags: List[float] = []


def push(
    address: Tuple[str, int],
    frames: Sequence[bytes],
    due: Optional[Sequence[float]],
    window: int,
    timeout: float,
) -> PushResult:
    """Send ``frames`` on one pipelined connection; replies arrive in order.

    Closed loop (``due is None``): at most ``window`` frames unanswered.
    Open loop: frame ``i`` is handed to the socket at ``start + due[i]``
    whatever the server does; ``lags`` holds how late the generator itself
    was (time the frame was queued minus its due time).
    """
    count = len(frames)
    result = PushResult(count)
    sock = socket.create_connection(address, timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    outbox = bytearray()
    inbox = bytearray()
    next_frame = answered = 0
    writing = False
    start = result.start = time.monotonic()
    deadline = start + timeout
    try:
        while answered < count:
            now = time.monotonic()
            if now > deadline:
                break
            while next_frame < count and next_frame - answered < window:
                if due is not None:
                    due_at = start + due[next_frame]
                    if due_at > now:
                        break
                    result.lags.append(now - due_at)
                    result.sent[next_frame] = due_at
                else:
                    result.sent[next_frame] = now
                outbox += frames[next_frame]
                next_frame += 1
            if outbox:
                try:
                    written = sock.send(outbox)
                    del outbox[:written]
                except BlockingIOError:
                    pass
            if bool(outbox) != writing:
                writing = bool(outbox)
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0)
                selector.modify(sock, events)
            wait = None
            if due is not None and next_frame < count and next_frame - answered < window:
                wait = max(0.0, start + due[next_frame] - time.monotonic())
            if wait is None:
                wait = max(0.0, deadline - time.monotonic())
            for key, mask in selector.select(wait):
                if not mask & selectors.EVENT_READ:
                    continue
                try:
                    data = sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("server closed the push connection")
                inbox += data
                arrived = time.monotonic()
                offset = 0
                while len(inbox) - offset >= 4:
                    (length,) = _LENGTH.unpack_from(inbox, offset)
                    if len(inbox) - offset - 4 < length:
                        break
                    body = bytes(inbox[offset + 4: offset + 4 + length])
                    offset += 4 + length
                    result.ops[answered] = json.loads(body).get("op")
                    result.answered[answered] = arrived
                    answered += 1
                del inbox[:offset]
    finally:
        result.end = time.monotonic()
        selector.close()
        sock.close()
    return result


class Scraper(threading.Thread):
    """Polls STATS + ANALYTICS on its own connection every ``interval``."""

    def __init__(self, address: Tuple[str, int], interval: float) -> None:
        super().__init__(name="scraper", daemon=True)
        self.sock = socket.create_connection(address, timeout=60)
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []
        self.failures = 0
        self.stopping = threading.Event()

    def run(self) -> None:
        while True:
            started = time.monotonic()
            try:
                stats = request(self.sock, {"op": "STATS"})
                analytics = request(self.sock, {"op": "ANALYTICS", "top": 10})
            except (OSError, ValueError):
                self.failures += 1
                return
            if stats.get("op") != "STATS" or analytics.get("op") != "ANALYTICS":
                self.failures += 1
            self.samples.append((started, time.monotonic()))
            if self.stopping.wait(self.interval):
                return

    def stop(self) -> None:
        self.stopping.set()
        self.join(timeout=60)


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #
def rolling_schedule(sessions: List[List[str]], concurrency: int, batch: int) -> Tuple[List[Dict], List[int]]:
    """Frames for ``sessions`` kept ``concurrency`` at a time on a rolling
    round-robin: each pass over the open slots sends one frame per session
    (its next batch, or its END), and a slot whose session ended takes the
    next session.  Slot ``j`` starts ``j % stages`` passes late so opens,
    batches and closes mix evenly from the start.

    Returns the frame payloads and the admission order (session numbers in
    the order their first frame is sent).
    """
    plans = []
    for events in sessions:
        batches = [events[i: i + batch] for i in range(0, len(events), batch)] or [[]]
        plans.append(batches)
    stages = max(len(plan) for plan in plans) + 1
    slots: List[Optional[List]] = [None] * concurrency  # [session, next step]
    delays = [slot % stages for slot in range(concurrency)]
    next_session = 0
    frames: List[Dict] = []
    admission: List[int] = []
    while True:
        progressed = False
        for slot in range(concurrency):
            if delays[slot]:
                delays[slot] -= 1
                progressed = True
                continue
            state = slots[slot]
            if state is None:
                if next_session >= len(sessions):
                    continue
                state = slots[slot] = [next_session, 0]
                next_session += 1
                admission.append(state[0])
            number, step = state
            plan = plans[number]
            if step < len(plan):
                frames.append({"op": "BATCH", "session": f"s{number}", "events": plan[step]})
                state[1] += 1
            else:
                frames.append({"op": "END", "session": f"s{number}", "limit": 0})
                slots[slot] = None
            progressed = True
        if not progressed:
            return frames, admission


# --------------------------------------------------------------------- #
# Output check
# --------------------------------------------------------------------- #
def reference_report(repository: Path, sessions: List[List[str]], admission: List[int]) -> Dict:
    """One StreamingMonitor fed every session in admission order, rendered
    as the REPORT verb's reply."""
    from repro.serving import StreamingMonitor
    from repro.specs.repository import SpecificationRepository

    monitor = StreamingMonitor(SpecificationRepository.load(repository).rules)
    for number in admission:
        monitor.begin_trace(name=f"s{number}")
        for event in sessions[number]:
            monitor.feed(event)
        monitor.end_trace()
    report = monitor.report()
    return {
        "op": "REPORT",
        "points": report.total_points,
        "satisfied": report.satisfied_points,
        "violation_count": report.violation_count,
        "violations": [violation.as_dict() for violation in report.violations],
    }


def canonical(payload: Dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #
def mine_fixture(seed: int, params: Dict, workdir: Path, tag: str) -> Path:
    """Generate the fixture corpus, mine it, save the repository JSON."""
    from repro.rules.config import RuleMiningConfig
    from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
    from repro.specs.repository import SpecificationRepository
    from repro.traces.io import read_traces

    corpus_path = workdir / f"fixture-{tag}.jsonl"
    gen.write_jsonl(corpus_path, gen.fixture_corpus(seed, params))
    miner = NonRedundantRecurrentRuleMiner(RuleMiningConfig(**params["rule_config"]))
    result = miner.mine(read_traces(str(corpus_path)))
    repository = SpecificationRepository(name="non-redundant-rules")
    repository.add_rule_result(result)
    path = workdir / f"rules-{tag}.json"
    repository.save(str(path))
    return path


def set_up(seed: int, params: Dict, workdir: Path) -> Tuple[List[float], ServerProcess, Path]:
    """Run the set-up ``setup_repeats`` times; keep the last server running."""

    def attempt(index: int):
        repository = mine_fixture(seed, params, workdir, str(index))
        server = ServerProcess(workdir, repository, params)
        server.start()
        return server, repository

    times, (server, repository) = run_setups(
        params["setup_repeats"], attempt, lambda built: built[0].stop()
    )
    return times, server, repository


# --------------------------------------------------------------------- #
# One measured pass
# --------------------------------------------------------------------- #
def measured_pass(server: ServerProcess, frames, due, params) -> Dict:
    """Push the schedule with the scraper alongside, then STATS, REPORT and
    SHUTDOWN on the scrape connection.  Raw figures only: the output check
    and the speed scaling need the server's calibration samples, which it
    writes when it exits."""
    encoded = [encode(frame) for frame in frames]
    pid = server.pid
    scraper = Scraper(server.address, params["scrape_interval"])
    cpu_window = [time.monotonic()]
    cpu_before = proc_cpu_seconds(pid)
    scraper.start()
    window = params["window"] or len(encoded)
    pushed = push(server.address, encoded, due, window, timeout=params["push_timeout"])
    cpu_after = proc_cpu_seconds(pid)
    cpu_window.append(time.monotonic())
    scraper.stop()
    sock = scraper.sock
    stats = request(sock, {"op": "STATS"})
    report_started = time.monotonic()
    report = request(sock, {"op": "REPORT"})
    report_window = (report_started, time.monotonic())
    rss_kb = proc_status_kb(pid, "VmHWM") or 0
    server.stop(sock)
    sock.close()

    expected = ["SESSION" if frame["op"] == "END" else "OK" for frame in frames]
    drained = max(pushed.answered) if all(op is not None for op in pushed.ops) else pushed.end
    return {
        "pid": pid,
        "window": (pushed.start, drained),
        "failed": sum(1 for op, want in zip(pushed.ops, expected) if op != want) + scraper.failures,
        "requests": len(frames) + 2 * len(scraper.samples) + 2,
        "verdicts": [
            (pushed.sent[i], pushed.answered[i])
            for i, frame in enumerate(frames)
            if frame["op"] == "END" and pushed.ops[i] == "SESSION"
        ],
        "report": report,
        "report_window": report_window,
        "scrapes": scraper.samples,
        "stats": stats,
        "server_cpu_s": cpu_after - cpu_before,
        "cpu_window": cpu_window,
        "peak_rss_mb": rss_kb / 1024,
        "lags_ms": [lag * 1000 for lag in pushed.lags],
        "frames_sent": sum(1 for sent in pushed.sent if sent),
        **json.loads(server.outcome_path.read_text()),
    }


def check_pass(outcome: Dict, repository: Path, sessions, admission) -> Dict:
    """The output checks: REPORT byte-identical to the reference monitor,
    STATS counting every session and event."""
    reference = reference_report(repository, sessions, admission)
    report_ok = outcome["report"] is not None and canonical(outcome["report"]) == canonical(reference)
    stats = outcome["stats"]
    counts_ok = stats.get("sessions_closed") == len(sessions) and stats.get(
        "events_processed"
    ) == sum(len(events) for events in sessions)
    return {"report_identical": report_ok, "counts_match": counts_ok, "busy": stats.get("busy_rejections", 0)}


def workload_inputs(name: str, seed: int, seconds: float, params: Dict):
    """Sessions, frames, admission order and due times for one pass."""
    if name == "serve-sessions":
        count = max(params["concurrency"] // 10, int(round(seconds * params["pinned_sessions_per_s"])))
        sessions = gen.session_events(seed, params, count, params["session_repeats"], params["violate_every"])
        frames, admission = rolling_schedule(sessions, min(params["concurrency"], count), params["batch"])
        return sessions, frames, admission, None
    rate = params["offered_events_per_s"]
    events_per_session = params["loop_body"] * params["session_repeats"] + 1
    count = max(params["min_sessions"], int(round(seconds * rate / events_per_session)))
    sessions = gen.session_events(seed, params, count, params["session_repeats"], params["violate_every"])
    frames, admission = rolling_schedule(sessions, min(params["concurrency"], count), params["batch"])
    total_events = sum(len(s) for s in sessions)
    frame_gap = (total_events / rate) / len(frames)
    due = [index * frame_gap for index in range(len(frames))]
    return sessions, frames, admission, due


# --------------------------------------------------------------------- #
# Workload entry point
# --------------------------------------------------------------------- #
def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, params: Dict) -> Dict:
    setup_times, server, repository = set_up(seed, params, workdir)
    sessions, frames, admission, due = workload_inputs(name, seed, seconds / 2 if trace else seconds, params)
    try:
        passes = [measured_pass(server, frames, due, params)]
        if trace:
            server = ServerProcess(workdir, repository, params, traced=True)
            server.start()
            passes.append(measured_pass(server, frames, due, params))
    finally:
        server.stop()

    events = sum(len(s) for s in sessions)
    for outcome in passes:
        start, end = outcome["window"]
        outcome["wall_s"] = end - start
        outcome["speed"] = SpeedSamples(outcome["calibration"])
        outcome["scale"] = outcome["speed"].scale(start, end)
        # repro serve's CPU without the calibration thread's.
        outcome["server_cpu_s"] -= outcome["speed"].cpu(*outcome["cpu_window"])
        outcome["check"] = check_pass(outcome, repository, sessions, admission)
    lags = [lag for outcome in passes for lag in outcome["lags_ms"]]
    lag_p99 = percentile(lags, 0.99) if lags else 0.0
    valid = lag_p99 <= params["max_lag_p99_ms"]
    checks = [outcome["check"] for outcome in passes]
    plain = passes[0]
    measured = {
        "correct": valid and all(
            c["report_identical"] and c["counts_match"] and o["failed"] == 0
            for c, o in zip(checks, passes)
        ),
        "attempted": sum(outcome["requests"] for outcome in passes),
        "failed": sum(outcome["failed"] for outcome in passes),
        "setup_s": median(setup_times),
        "info": {
            "under_test_pid": plain["pid"],
            "sessions": len(sessions),
            "events": events,
            "frames": len(frames),
            "wall_s": plain["wall_s"],
            "speed_scale": plain["scale"],
            "checks": checks,
            "loadgen_lag_p99_ms": lag_p99,
            "generator_valid": valid,
            "verdict_samples": len(plain["verdicts"]),
            "scrape_samples": len(plain["scrapes"]),
        },
    }
    if trace:
        measured["layers"] = trace_layers(name, passes[0], passes[1])
        return measured
    # Each verdict is scaled by the CPU speed around it; an open loop's
    # throughput is its offered rate, so only a closed loop's is scaled.
    speed = plain["speed"]
    verdicts = [(answered - sent) * 1000 * speed.scale(sent, answered) for sent, answered in plain["verdicts"]]
    scale = plain["scale"]
    rate_scale = scale if due is None else 1.0
    report_start, report_end = plain["report_window"]
    report_ms = (report_end - report_start) * 1000 * speed.scale(report_start, report_end)
    measured["metrics"] = {
        "latency_p50_ms": percentile(verdicts, 0.50),
        "latency_p95_ms": percentile(verdicts, 0.95),
        "events_per_s": events / plain["wall_s"] / rate_scale,
        "sessions_per_s": len(sessions) / plain["wall_s"] / rate_scale,
        "cpu_us_per_event": plain["server_cpu_s"] / events * 1e6 * scale,
        "peak_rss_mb": plain["peak_rss_mb"],
        "report_ms": report_ms,
        "scrape_p50_ms": median(end - start for start, end in plain["scrapes"]) * 1000 * scale,
    }
    measured["raw"] = {
        "events_per_s": events / plain["wall_s"],
        "sessions_per_s": len(sessions) / plain["wall_s"],
        "cpu_us_per_event": plain["server_cpu_s"] / events * 1e6,
    }
    return measured


def trace_layers(name: str, plain: Dict, traced: Dict) -> Dict:
    import tracer as tracing_wrappers

    extra = {
        "loadgen.lag_p99_ms": percentile(traced["lags_ms"], 0.99) if traced["lags_ms"] else 0.0,
        "loadgen.sent": traced["frames_sent"],
    }
    values = tracing_wrappers.layer_metrics(traced["tally"], extra)
    wall = traced["wall_s"]
    busy = sum(
        values[metric] for layer, metric in tracing_wrappers.TIMED_LAYERS
        if layer not in ("compile", "pool.end_wait")
    )
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = max(0.0, traced["server_cpu_s"] - busy)
    values["trace.overhead"] = (traced["server_cpu_s"] * traced["scale"]) / (
        plain["server_cpu_s"] * plain["scale"]
    ) - 1
    return {"values": values, "table": tracing_wrappers.render_table(name, values, {"default": wall})}
