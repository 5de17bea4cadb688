"""Tests for span tracing: arming, ring bounds, JSONL output, CLI plumbing,
trace-context propagation and counted (never silent) span loss."""

import json
import os
import threading

import pytest

from repro.obs import tracing
from repro.obs.metrics import OBS_SPANS_DROPPED_TOTAL


@pytest.fixture(autouse=True)
def disarm():
    """Every test starts and ends with tracing disarmed."""
    tracing.reset()
    yield
    tracing.reset()


class TestSpan:
    def test_disarmed_span_is_shared_noop(self):
        assert tracing.ACTIVE is None
        first = tracing.span("engine.execute", backend="serial")
        second = tracing.span("daemon.cycle")
        assert first is second  # the shared no-op: no allocation per site
        with first:
            pass

    def test_armed_span_records_name_duration_attrs(self):
        collector = tracing.install()
        with tracing.span("engine.unit", kind="grow", root=3):
            pass
        entries = collector.snapshot()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["name"] == "engine.unit"
        assert entry["attrs"] == {"kind": "grow", "root": 3}
        assert entry["dur"] >= 0.0
        assert isinstance(entry["pid"], int)

    def test_span_records_even_when_body_raises(self):
        collector = tracing.install()
        with pytest.raises(RuntimeError):
            with tracing.span("daemon.cycle"):
                raise RuntimeError("boom")
        assert [entry["name"] for entry in collector.snapshot()] == ["daemon.cycle"]

    def test_ring_is_bounded_oldest_evicted(self):
        collector = tracing.install(ring_size=3)
        for index in range(5):
            with tracing.span("s", i=index):
                pass
        kept = [entry["attrs"]["i"] for entry in collector.snapshot()]
        assert kept == [2, 3, 4]

    def test_install_replaces_and_reset_disarms(self):
        first = tracing.install()
        second = tracing.install()
        assert tracing.ACTIVE is second and first is not second
        tracing.reset()
        assert tracing.ACTIVE is None


class TestTraceContext:
    def test_nested_spans_share_trace_and_link_parent(self):
        collector = tracing.install()
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        inner, outer = collector.snapshot()
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]
        assert "parent" not in outer
        assert inner["span"] != outer["span"]

    def test_sibling_traces_are_distinct(self):
        collector = tracing.install()
        with tracing.span("a"):
            pass
        with tracing.span("b"):
            pass
        first, second = collector.snapshot()
        assert first["trace"] != second["trace"]

    def test_ensure_context_inside_span_is_that_span(self):
        tracing.install()
        with tracing.span("outer"):
            trace_id, span_id = tracing.ensure_context()
            assert (trace_id, span_id) == tracing.current_ids()
            assert span_id is not None

    def test_ensure_context_ambient_is_stable_per_thread(self):
        tracing.install()
        assert tracing.current_ids() is None
        first = tracing.ensure_context()
        second = tracing.ensure_context()
        assert first == second
        assert first[1] is None  # no parent span outside any span
        other = []
        thread = threading.Thread(target=lambda: other.append(tracing.ensure_context()))
        thread.start()
        thread.join()
        assert other[0][0] != first[0]  # each thread gets its own trace

    def test_remote_span_continues_wire_context(self):
        collector = tracing.install()
        with tracing.remote_span("server.request", "cafe1234cafe1234", "beef5678beef5678"):
            pass
        (entry,) = collector.snapshot()
        assert entry["trace"] == "cafe1234cafe1234"
        assert entry["parent"] == "beef5678beef5678"

    def test_remote_span_ignores_junk_wire_ids(self):
        collector = tracing.install()
        with tracing.remote_span("server.request", 42, ["junk"]):
            pass
        (entry,) = collector.snapshot()
        # Falls back to a fresh local trace instead of propagating junk.
        assert entry["trace"] not in (42, "42")
        assert "parent" not in entry

    def test_adopt_parents_top_level_spans(self):
        collector = tracing.install()
        tracing.adopt("feed0000feed0000", "abad1deaabad1dea")
        try:
            with tracing.span("engine.unit"):
                pass
        finally:
            tracing.adopt(None)
        (entry,) = collector.snapshot()
        assert entry["trace"] == "feed0000feed0000"
        assert entry["parent"] == "abad1deaabad1dea"


class TestSpanLoss:
    def test_ring_eviction_increments_dropped_counter(self):
        before = OBS_SPANS_DROPPED_TOTAL.value(reason="ring")
        tracing.install(ring_size=2)
        for index in range(5):
            with tracing.span("s", i=index):
                pass
        assert OBS_SPANS_DROPPED_TOTAL.value(reason="ring") == before + 3

    def test_write_failure_increments_dropped_counter_keeps_ring(self, tmp_path):
        before = OBS_SPANS_DROPPED_TOTAL.value(reason="write")
        collector = tracing.install(str(tmp_path / "trace.jsonl"))
        with tracing.span("ok"):
            pass
        collector._file.close()  # simulate the handle dying under us
        collector._file = open(os.devnull, "w")
        collector._file.close()  # a closed handle raises ValueError on write
        with tracing.span("lost"):
            pass
        assert OBS_SPANS_DROPPED_TOTAL.value(reason="write") == before + 1
        # The span itself survives in the ring; only the file is incomplete.
        assert [entry["name"] for entry in collector.snapshot()] == ["ok", "lost"]


class TestWorkerShipping:
    def test_drain_shipped_only_when_shipping(self):
        tracing.install()
        with tracing.span("s"):
            pass
        assert tracing.drain_shipped() is None  # coordinator collector: no
        tracing.reset()
        assert tracing.drain_shipped() is None  # disarmed: no
        tracing.install_shipping()
        assert tracing.shipping()
        assert tracing.drain_shipped() is None  # nothing recorded yet
        with tracing.span("engine.unit", root="a"):
            pass
        batch = tracing.drain_shipped()
        assert batch is not None and [e["name"] for e in batch] == ["engine.unit"]
        assert tracing.drain_shipped() is None  # drained

    def test_absorb_outcome_spans_folds_batches(self):
        class Outcome:
            def __init__(self, spans):
                self.spans = spans

        shipped = ({"name": "engine.unit", "ts": 1.0, "dur": 0.1, "pid": 999},)
        tracing.absorb_outcome_spans([Outcome(shipped)])  # disarmed: no-op
        collector = tracing.install()
        tracing.absorb_outcome_spans([Outcome(shipped), Outcome(None)])
        assert [entry["pid"] for entry in collector.snapshot()] == [999]

    def test_process_backend_ships_worker_spans_into_one_trace(self):
        from repro.core.sequence import SequenceDatabase
        from repro.engine import ProcessPoolBackend
        from repro.rules.nonredundant_miner import mine_non_redundant_rules

        collector = tracing.install()
        db = SequenceDatabase.from_sequences(
            [["a", "b"], ["a", "b"], ["a", "c"], ["b", "c"]]
        )
        mine_non_redundant_rules(
            db, min_s_support=2, min_confidence=0.5, backend=ProcessPoolBackend(workers=2)
        )
        entries = collector.snapshot()
        execute = next(e for e in entries if e["name"] == "engine.execute")
        units = [e for e in entries if e["name"] == "engine.unit"]
        assert units, entries
        # The worker-side spans were shipped back: they carry worker pids
        # and the coordinator's trace id.
        assert any(e["pid"] != os.getpid() for e in units)
        assert all(e["trace"] == execute["trace"] for e in units)


class TestJsonlFile:
    def test_spans_append_as_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.install(str(path))
        with tracing.span("engine.execute", backend="serial"):
            with tracing.span("engine.unit", kind="grow", root=0):
                pass
        tracing.reset()
        lines = path.read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line) for line in lines]
        # Inner span finishes (and lands) first.
        assert [entry["name"] for entry in entries] == ["engine.unit", "engine.execute"]
        assert entries[1]["dur"] >= entries[0]["dur"]

    def test_reinstall_appends_to_existing_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            tracing.install(str(path))
            with tracing.span("s"):
                pass
            tracing.reset()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2


class TestCliPlumbing:
    def test_trace_out_writes_engine_spans(self, tmp_path):
        from repro.cli import main
        from repro.traces.io import write_traces
        from repro.core.sequence import SequenceDatabase

        trace_file = tmp_path / "in.txt"
        write_traces(
            SequenceDatabase.from_sequences([["a", "b"], ["a", "b"], ["a", "c"]]),
            trace_file,
        )
        out = tmp_path / "trace.jsonl"
        code = main(
            [
                "mine-rules",
                "--input",
                str(trace_file),
                "--trace-out",
                str(out),
            ]
        )
        assert code == 0
        assert tracing.ACTIVE is None  # main() disarms on the way out
        names = {
            json.loads(line)["name"]
            for line in out.read_text(encoding="utf-8").splitlines()
        }
        assert "engine.execute" in names

    def test_trace_summary_tool_aggregates(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "trace_summary",
            Path(__file__).resolve().parents[2] / "tools" / "trace_summary.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        path = tmp_path / "trace.jsonl"
        entries = [
            {"name": "engine.unit", "ts": 1.0, "dur": 0.25, "pid": 1},
            {"name": "engine.unit", "ts": 2.0, "dur": 0.75, "pid": 1},
            {"name": "daemon.cycle", "ts": 3.0, "dur": 2.0, "pid": 1},
        ]
        text = "\n".join(json.dumps(entry) for entry in entries) + "\nnot json\n"
        path.write_text(text, encoding="utf-8")
        assert module.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "daemon.cycle" in out and "engine.unit" in out
        assert "3 spans, 2 distinct names" in out
        rows = module.summarise(module.load_spans([str(path)]))
        assert rows[0]["name"] == "daemon.cycle"  # sorted by total desc
        assert rows[1]["count"] == 2
        assert rows[1]["total"] == pytest.approx(1.0)

    @staticmethod
    def _load_tool():
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "trace_summary",
            Path(__file__).resolve().parents[2] / "tools" / "trace_summary.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_trace_summary_tolerates_empty_file(self, tmp_path, capsys):
        module = self._load_tool()
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert module.main([str(path)]) == 0
        assert "0 spans, 0 distinct names" in capsys.readouterr().out

    def test_trace_summary_tolerates_torn_final_line(self, tmp_path, capsys):
        """A crash can tear the last line mid-way through a multibyte
        UTF-8 sequence; the valid prefix must still summarise."""
        module = self._load_tool()
        path = tmp_path / "torn.jsonl"
        good = json.dumps({"name": "engine.unit", "ts": 1.0, "dur": 0.5, "pid": 1})
        torn = json.dumps({"name": "daemon.cycle", "attrs": {"file": "tracé"}})
        payload = (good + "\n" + torn).encode("utf-8")[:-4]  # tear inside "é"…
        path.write_bytes(payload)
        assert module.main([str(path)]) == 0
        assert "1 spans, 1 distinct names" in capsys.readouterr().out
