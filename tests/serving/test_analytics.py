"""Per-rule serving analytics: wire ANALYTICS verb, trace propagation
through the server into pool spans, and `repro top` rendering."""

import sys
import threading

import pytest

from repro.obs import tracing
from repro.obs.metrics import REGISTRY, set_enabled
from repro.rules.rule import RecurrentRule
from repro.serving.pool import MonitorPool
from repro.serving.server import EventPushServer, PushClient
from repro.serving.stream_monitor import StreamingMonitor

RULES = [
    RecurrentRule(
        premise=("open",), consequent=("use", "close"), s_support=2, i_support=2,
        confidence=1.0,
    ),
    RecurrentRule(
        premise=("lock",), consequent=("unlock",), s_support=2, i_support=2,
        confidence=1.0,
    ),
]


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


@pytest.fixture(autouse=True)
def disarm_tracing():
    tracing.reset()
    yield
    tracing.reset()


def _drive(client):
    """Two sessions: one satisfies both rules, one violates both."""
    client.feed_batch("good", ["open", "use", "close", "lock", "unlock"])
    client.end("good")
    client.feed_batch("bad", ["open", "lock"])
    client.end("bad")


def _scraped_rule_samples():
    """The three ``repro_rule_*`` families as read by a registry scrape:
    ``({(rule, outcome): points}, {rule: trie advances}, {rule: active
    seconds observation count})``."""
    snapshot = REGISTRY.snapshot()
    points = {
        tuple(labels): value
        for labels, value in snapshot["repro_rule_points_total"]["samples"]
    }
    advances = {
        labels[0]: value
        for labels, value in snapshot["repro_rule_trie_advances_total"]["samples"]
    }
    active = {
        labels[0]: count
        for labels, _, _, count in snapshot["repro_rule_active_seconds"]["samples"]
    }
    return points, advances, active


class TestMonitorAnalytics:
    def test_counts_match_outcomes(self):
        monitor = StreamingMonitor(RULES)
        monitor.begin_trace(name="t")
        for event in ["open", "use", "close", "open", "lock"]:
            monitor.feed(event)
        monitor.end_trace()
        analytics = monitor.rule_analytics()
        open_rule = analytics["open -> use, close"]
        assert open_rule["opened"] == 2
        assert open_rule["satisfied"] == 1
        assert open_rule["violated"] == 1
        # A trie node activates at most once per trace: one arming even
        # though the premise occurred twice.
        assert open_rule["trie_advances"] == 1
        lock_rule = analytics["lock -> unlock"]
        assert lock_rule == {
            "opened": 1, "satisfied": 0, "violated": 1, "trie_advances": 1,
        }

    def test_report_bytes_unchanged_by_analytics(self):
        """The analytics hooks must not perturb the violation report."""
        baseline = StreamingMonitor(RULES)
        events = ["open", "use", "lock", "open", "use", "close"]
        baseline.check_trace(events, name="t")
        again = StreamingMonitor(RULES)
        again.check_trace(events, name="t")
        again.rule_analytics()
        first, second = baseline.report(), again.report()
        assert first.summary() == second.summary()
        assert [v.as_dict() for v in first.violations] == [
            v.as_dict() for v in second.violations
        ]


class TestAnalyticsVerb:
    def test_analytics_over_the_wire(self, client, served):
        _, pool = served
        _drive(client)
        reply = client.analytics()
        assert reply["op"] == "ANALYTICS"
        assert reply["generation"] == pool.generation == 0
        open_rule = reply["rules"]["open -> use, close"]
        assert open_rule["opened"] == 2
        assert open_rule["satisfied"] == 1
        assert open_rule["violated"] == 1
        assert reply["rules"]["lock -> unlock"]["violated"] == 1

    def test_top_limits_and_ranks(self, client):
        _drive(client)
        # Extra violations for the lock rule so it outranks the other.
        client.feed_batch("worse", ["lock", "lock", "lock"])
        client.end("worse")
        reply = client.analytics(top=1)
        assert list(reply["rules"]) == ["lock -> unlock"]
        everything = client.analytics()
        assert len(everything["rules"]) == 2

    @pytest.mark.parametrize("top", [-1, True, False, 1.5, "2"])
    def test_bad_top_is_an_error_not_every_rule(self, client, top):
        """A malformed ``top`` must not fall back to the unbounded reply."""
        _drive(client)
        reply = client.request({"op": "ANALYTICS", "top": top})
        assert reply["op"] == "ERROR" and "top" in reply["error"]
        assert "rules" not in reply
        assert list(client.analytics(top=0)["rules"]) == []

    def test_pool_merge_is_per_rule_across_shards(self, served):
        """Sessions hash to different shards; analytics still sum per rule."""
        _, pool = served
        for index in range(8):
            session = f"s{index}"
            pool.feed_batch(session, ["open"])
            pool.end_session(session).wait(timeout=10)
        merged = pool.rule_analytics()
        assert merged["open -> use, close"]["opened"] == 8
        assert merged["open -> use, close"]["violated"] == 8

    def test_registry_mirror_when_enabled(self, client):
        """A scrape renders the per-rule families from the shard tallies."""
        REGISTRY.reset()
        set_enabled(True)
        _drive(client)
        points, advances, active = _scraped_rule_samples()
        # Both rules: one satisfied point ("good"), one violated ("bad"),
        # armed once per session, and active in both sessions.
        for rule in ("open -> use, close", "lock -> unlock"):
            assert points[(rule, "opened")] == 2
            assert points[(rule, "satisfied")] == 1
            assert points[(rule, "violated")] == 1
            assert advances[rule] == 2
            assert active[rule] == 2
        text = REGISTRY.render_text()
        assert 'repro_rule_points_total{rule="lock -> unlock",outcome="violated"} 1' in text
        assert 'repro_rule_active_seconds_count{rule="open -> use, close"} 2' in text
        # A second scrape exports nothing twice.
        assert _scraped_rule_samples() == (points, advances, active)

    def test_concurrent_scrapes_export_every_close_exactly_once(self):
        """Scrapes racing session closes on four shards neither lose nor
        double-count tally growth: the registry ends equal to the tallies."""
        REGISTRY.reset()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MonitorPool(RULES, shards=4, queue_depth=1024) as pool:
                stop = threading.Event()

                def scrape():
                    while not stop.is_set():
                        REGISTRY.snapshot()

                scrapers = [threading.Thread(target=scrape) for _ in range(6)]
                for scraper in scrapers:
                    scraper.start()
                try:
                    tickets = []
                    for number in range(400):
                        events = ["open", "use", "close", "lock"] if number % 3 else ["open"]
                        pool.feed_batch(f"s{number}", events)
                        tickets.append(pool.end_session(f"s{number}"))
                    for ticket in tickets:
                        ticket.wait(timeout=30.0)
                finally:
                    stop.set()
                    for scraper in scrapers:
                        scraper.join(timeout=30.0)
                assert not any(scraper.is_alive() for scraper in scrapers)
                points, advances, _ = _scraped_rule_samples()
                analytics = pool.rule_analytics()
        finally:
            sys.setswitchinterval(previous)
        assert analytics["open -> use, close"]["opened"] == 400
        for rule, tally in analytics.items():
            for outcome in ("opened", "satisfied", "violated"):
                assert points.get((rule, outcome), 0) == tally[outcome]
            assert advances.get(rule, 0) == tally["trie_advances"]

    def test_close_exports_growth_no_scrape_has_recorded(self):
        """Closing the pool records the tallies' growth before its
        collector goes away, so closes after the last scrape still count."""
        REGISTRY.reset()
        with MonitorPool(RULES, shards=2, queue_depth=64) as pool:
            for session, events in (("good", ["open", "use", "close"]), ("bad", ["open"])):
                pool.feed_batch(session, events)
                pool.end_session(session).wait(timeout=10)
        text = REGISTRY.render_text()
        assert "repro_pool_sessions_closed_total 2" in text
        assert 'repro_rule_points_total{rule="open -> use, close",outcome="opened"} 2' in text
        assert 'repro_rule_points_total{rule="open -> use, close",outcome="violated"} 1' in text
        assert 'repro_rule_active_seconds_count{rule="open -> use, close"} 2' in text

    def test_muted_registry_leaves_rule_families_empty(self, client):
        REGISTRY.reset()
        set_enabled(False)
        try:
            _drive(client)
            assert _scraped_rule_samples() == ({}, {}, {})
        finally:
            set_enabled(True)
        assert _scraped_rule_samples() == ({}, {}, {})
        # The ANALYTICS verb reads the tallies, which muting leaves alone.
        assert client.analytics()["rules"]["lock -> unlock"]["violated"] == 1


class TestTracePropagation:
    def test_one_trace_threads_client_server_shard(self, served):
        server, _ = served
        host, port = server.address
        collector = tracing.install()
        with PushClient(host, port) as push_client:
            with tracing.span("client.push") as root:
                push_client.feed_batch("s", ["open", "use", "close"])
                push_client.end("s")
        entries = collector.snapshot()
        names = {entry["name"] for entry in entries}
        assert {"client.push", "server.request", "pool.batch", "pool.close"} <= names
        trace_ids = {entry["trace"] for entry in entries}
        assert len(trace_ids) == 1  # one trace covers all tiers
        requests = [e for e in entries if e["name"] == "server.request"]
        client_span = next(e for e in entries if e["name"] == "client.push")
        assert all(e["parent"] == client_span["span"] for e in requests)
        batch = next(e for e in entries if e["name"] == "pool.batch")
        assert batch["parent"] in {e["span"] for e in requests}

    def test_untraced_frames_stay_plain(self, served):
        server, _ = served
        host, port = server.address
        with PushClient(host, port) as push_client:
            push_client.send({"op": "PING"})
            sent = push_client._unanswered[-1]
            assert "trace" not in sent  # disarmed: no stamping
            assert push_client.read()["op"] == "PONG"


class TestReproTop:
    def test_cli_renders_frames_against_live_server(self, served, client, capsys):
        from repro.cli import main

        _drive(client)
        server, _ = served
        host, port = server.address
        code = main(
            [
                "top",
                "--host", host,
                "--port", str(port),
                "--iterations", "2",
                "--interval", "0.01",
                "--top", "5",
                "--no-clear",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top — generation 0" in out
        assert "open -> use, close" in out
        assert "violated" in out
        # Second frame carries sliding-window rates ("…/s").
        assert "/s" in out

    def test_cli_top_reports_connection_failure(self, capsys):
        from repro.cli import main

        assert main(["top", "--host", "127.0.0.1", "--port", "1", "--iterations", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_render_top_is_pure(self):
        from repro.cli import _render_top

        stats = {
            "generation": 1, "rules": 2, "uptime_seconds": 10.0,
            "sessions_active": 1, "sessions_closed": 5, "sessions_lost": 0,
            "events_processed": 100, "busy_rejections": 2,
            "queue_depth": 64,
            "per_shard": [
                {"shard": 0, "queued": 3, "restarts": 0},
                {"shard": 1, "queued": 0, "restarts": 1},
            ],
        }
        previous = dict(stats, events_processed=50, sessions_closed=3)
        analytics = {
            "rules": {
                "a -> b": {
                    "opened": 4, "satisfied": 1, "violated": 3, "trie_advances": 9,
                },
            },
        }
        frame = _render_top(stats, previous, analytics, elapsed=2.0, top_n=5)
        assert "generation 1" in frame
        assert "25.0/s" in frame  # (100 - 50) / 2.0
        assert "1.0/s" in frame  # (5 - 3) / 2.0 sessions
        assert "0:3 1:0" in frame  # queue depths
        assert "a -> b" in frame
        first_frame = _render_top(stats, None, analytics, elapsed=0.0, top_n=5)
        assert "-" in first_frame  # no rates without a previous sample
