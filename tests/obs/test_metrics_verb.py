"""Wire exposition tests: the METRICS verb, framing, pipelining, CLI scrape."""

import pytest

from repro.obs.metrics import REGISTRY
from repro.rules.rule import RecurrentRule
from repro.serving.pool import MonitorPool
from repro.serving.server import EventPushServer, PushClient

RULES = [
    RecurrentRule(
        premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0
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


def _parse_exposition(text):
    """Parse Prometheus text into {sample_name_with_labels: value}; every
    non-comment line must be well-formed ``name[{labels}] value``."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        assert name, f"malformed sample line: {line!r}"
        float(value)  # must parse
        samples[name] = float(value)
    return samples


def test_metrics_verb_returns_prometheus_text(client):
    reply = client.request({"op": "METRICS"})
    assert reply["op"] == "METRICS"
    assert reply["content_type"].startswith("text/plain")
    samples = _parse_exposition(reply["text"])
    # The whole catalogue is visible from one scrape: engine, pool,
    # server and durability families all render (the acceptance criterion).
    for family in (
        "repro_engine_units_total",
        "repro_pool_sessions_active",
        "repro_server_requests_total",
        "repro_durability_journal_appends_total",
    ):
        assert f"# TYPE {family}" in reply["text"], family
    assert "repro_pool_sessions_active" in samples


def test_metrics_reflect_served_traffic(client):
    REGISTRY.reset()
    assert client.feed("s1", "open")["op"] == "OK"
    assert client.feed("s1", "close")["op"] == "OK"
    client.end("s1")
    text = client.metrics()
    samples = _parse_exposition(text)
    assert samples['repro_server_requests_total{op="EVENT"}'] == 2
    assert samples['repro_server_requests_total{op="END"}'] == 1
    assert samples["repro_pool_events_total"] == 2
    assert samples["repro_pool_sessions_opened_total"] == 1
    assert samples["repro_pool_sessions_closed_total"] == 1
    # The scrape itself is counted on the request histogram by the time a
    # *second* scrape renders.
    again = _parse_exposition(client.metrics())
    assert again['repro_server_requests_total{op="METRICS"}'] >= 1
    assert again['repro_server_request_seconds_count{op="EVENT"}'] == 2


def test_metrics_pipelines_between_other_verbs(client):
    """METRICS replies keep frame order inside a pipelined burst."""
    payloads = [
        {"op": "PING"},
        {"op": "EVENT", "session": "p", "event": "open"},
        {"op": "METRICS"},
        {"op": "EVENT", "session": "p", "event": "close"},
        {"op": "METRICS"},
        {"op": "END", "session": "p"},
    ]
    replies = client.pipeline(payloads, window=3)
    assert [reply["op"] for reply in replies] == [
        "PONG",
        "OK",
        "METRICS",
        "OK",
        "METRICS",
        "SESSION",
    ]
    first, second = replies[2]["text"], replies[4]["text"]
    _parse_exposition(first)
    # The second scrape happened after one more EVENT was dispatched.
    assert (
        _parse_exposition(second)['repro_server_requests_total{op="EVENT"}']
        > _parse_exposition(first)['repro_server_requests_total{op="EVENT"}']
    )


def test_unknown_verbs_land_in_the_other_label(client):
    REGISTRY.reset()
    reply = client.request({"op": "NO_SUCH_VERB"})
    assert reply["op"] == "ERROR"
    samples = _parse_exposition(client.metrics())
    assert samples['repro_server_requests_total{op="other"}'] == 1
    assert samples["repro_server_errors_total"] == 1


def test_cli_metrics_scrapes_a_live_server(served, capsys):
    from repro.cli import main

    server, _ = served
    host, port = server.address
    assert main(["metrics", "--host", host, "--port", str(port)]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_server_requests_total counter" in out
    _parse_exposition(out)


def test_cli_metrics_reports_connection_failure(capsys):
    from repro.cli import main

    # A port nothing listens on: error on stderr, exit code 2.
    assert main(["metrics", "--host", "127.0.0.1", "--port", "1"]) == 2
    assert "error:" in capsys.readouterr().err
