"""Watch-daemon integration tests: the mine→serve→monitor loop end to end."""

import json
from pathlib import Path

import pytest

from repro.ingest import TraceRecord, TraceStore, write_trace_records
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.serving import WatchDaemon
from repro.specs.repository import SpecificationRepository


def _miner():
    return NonRedundantRecurrentRuleMiner(
        RuleMiningConfig(min_s_support=2, min_confidence=0.5)
    )


def _write(path, traces):
    write_trace_records(
        path, [TraceRecord(tuple(trace), f"{path.stem}-{i}") for i, trace in enumerate(traces)]
    )


@pytest.fixture
def dirs(tmp_path):
    watch = tmp_path / "watch"
    watch.mkdir()
    return watch, tmp_path / "store"


def test_daemon_runs_the_full_loop_end_to_end(dirs, tmp_path):
    """tail → ingest → incremental re-mine → hot-swap → monitor, one process."""
    watch, store = dirs
    repo_path = tmp_path / "specs.json"
    cycles = []
    daemon = WatchDaemon(
        watch, store, _miner(),
        repository_path=repo_path, persist_cache=True, on_cycle=cycles.append,
    )

    # Cycle 0: empty directory, empty store — primes a vacuous automaton.
    first = daemon.run_once()
    assert first.ingested == [] and not first.swapped and first.rules_served == 0
    assert first.refresh is not None and first.refresh.full_remine

    # Cycle 1: a file appears; its traces establish the rule a -> b.
    _write(watch / "day1.jsonl", [["a", "b"], ["a", "b"], ["a", "b"], ["a", "c", "b"]])
    second = daemon.run_once()
    assert [path.name for path, _ in second.ingested] == ["day1.jsonl"]
    assert second.traces_added == 4
    assert second.swapped and second.rules_served > 0
    premises = {rule.premise for rule in daemon.compiled.rules}
    assert ("a",) in premises
    # The new traces were monitored against the freshly swapped automaton.
    assert second.monitoring is not None
    assert second.monitoring.violation_count == 0
    assert second.monitoring.total_points > 0

    # Cycle 2: a violating trace arrives; the rule survives the re-mine
    # (confidence drops but stays above the threshold) and flags it.
    _write(watch / "day2.jsonl", [["a", "b"], ["a", "x"]])
    third = daemon.run_once()
    assert third.swapped  # the rule statistics moved: a new generation
    assert third.refresh is not None and not third.refresh.full_remine
    assert third.violation_count == 1
    (violation,) = third.monitoring.violations
    assert violation.rule.premise == ("a",)
    # Corpus-wide trace index: [a, x] is the 6th trace ever ingested.
    assert violation.trace_index == 5
    assert violation.trace_name == "day2-1"

    # Cycle 3: nothing new — no re-mine, no swap, no monitoring.
    fourth = daemon.run_once()
    assert fourth.ingested == [] and fourth.refresh is None
    assert not fourth.swapped and fourth.monitoring is None

    # Cumulative daemon state and the hot-swapped repository artifact.
    assert daemon.monitoring.violation_count == 1
    assert daemon.cycles_run == 4 and daemon.swaps == 2
    assert len(cycles) == 4
    saved = SpecificationRepository.load(repo_path)
    assert saved.rules == list(daemon.compiled.rules)
    assert saved.source["fingerprint"] == TraceStore.open(store).fingerprint
    assert saved.source["traces"] == 6


def test_prepopulated_store_is_served_before_any_file_appears(dirs):
    watch, store_dir = dirs
    store = TraceStore(store_dir)
    store.append_batch([["open", "close"], ["open", "close"]])
    daemon = WatchDaemon(watch, store, _miner())
    cycle = daemon.run_once()
    assert cycle.refresh is not None
    assert cycle.rules_served > 0
    assert cycle.monitoring is None  # nothing newly ingested to monitor


def test_unparseable_file_is_retried_only_after_it_changes(dirs):
    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner())
    bad = watch / "broken.jsonl"
    bad.write_text("this is not json\n", encoding="utf-8")

    cycle = daemon.run_once()
    assert [path.name for path, _ in cycle.failed] == ["broken.jsonl"]
    assert cycle.ingested == []

    # Unchanged file: not re-attempted (no tight retry loop on a bad file).
    again = daemon.run_once()
    assert again.failed == [] and again.ingested == []

    # The file is fixed (content and stat change): picked up again.
    _write(bad, [["a", "b"], ["a", "b"]])
    fixed = daemon.run_once()
    assert [path.name for path, _ in fixed.ingested] == ["broken.jsonl"]
    assert len(daemon.store) == 2


def test_undecodable_and_truncated_files_do_not_kill_the_daemon(dirs):
    """Parse failures beyond DataFormatError (bad UTF-8, torn gzip) are
    recorded as failed files, never daemon crashes."""
    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner())
    (watch / "binary.txt").write_bytes(b"\xff\xfe\x00garbage\x80")
    (watch / "torn.jsonl.gz").write_bytes(b"\x1f\x8b\x08\x00cut")
    cycle = daemon.run_once()
    assert cycle.ingested == []
    assert sorted(path.name for path, _ in cycle.failed) == ["binary.txt", "torn.jsonl.gz"]
    # Both carry the exception type for the operator's log line.
    reasons = dict((path.name, reason) for path, reason in cycle.failed)
    assert "UnicodeDecodeError" in reasons["binary.txt"] or "DataFormatError" in reasons["binary.txt"]
    # Unchanged bad files are not re-attempted; the daemon keeps serving.
    assert daemon.run_once().failed == []
    _write(watch / "good.jsonl", [["a", "b"], ["a", "b"]])
    assert [p.name for p, _ in daemon.run_once().ingested] == ["good.jsonl"]


def test_store_side_oserror_propagates_instead_of_blaming_the_file(dirs, monkeypatch):
    """A full disk / unwritable store must surface loudly — recording it
    as a per-file failure would silently drop traffic forever."""
    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner())
    _write(watch / "good.jsonl", [["a", "b"]])

    def disk_full(path, format=None):
        raise OSError(28, "No space left on device")  # no filename: store-side

    monkeypatch.setattr(daemon.store, "append_trace_file", disk_full)
    with pytest.raises(OSError, match="No space left"):
        daemon.run_once()
    # The file was not poisoned: once the store recovers it ingests fine.
    monkeypatch.undo()
    cycle = daemon.run_once()
    assert [path.name for path, _ in cycle.ingested] == ["good.jsonl"]


def test_watch_state_is_saved_per_committed_append(dirs, monkeypatch):
    """A crash between two appends must not lose the first file's state
    (a restart would re-append it, duplicating its traces)."""
    watch, store_dir = dirs
    daemon = WatchDaemon(watch, store_dir, _miner())
    _write(watch / "a.jsonl", [["a", "b"]])
    _write(watch / "b.jsonl", [["c", "d"]])
    original = type(daemon.store).append_trace_file
    calls = []

    def crash_on_second(self, path, format=None):
        if calls:
            raise KeyboardInterrupt  # the daemon dies mid-cycle
        calls.append(path)
        return original(self, path, format=format)

    monkeypatch.setattr(type(daemon.store), "append_trace_file", crash_on_second)
    with pytest.raises(KeyboardInterrupt):
        daemon.run_once()
    monkeypatch.undo()

    restarted = WatchDaemon(watch, daemon.store.directory, _miner())
    cycle = restarted.run_once()
    # Only the file whose append never committed is (re-)ingested.
    assert [path.name for path, _ in cycle.ingested] == ["b.jsonl"]
    assert len(restarted.store) == 2


def test_empty_file_is_marked_ingested_without_a_batch(dirs):
    """An empty trace file commits no batch: the daemon records it as
    ingested but neither reports nor monitors it."""
    watch, store_dir = dirs
    daemon = WatchDaemon(watch, store_dir, _miner())
    daemon.run_once()
    _write(watch / "empty.jsonl", [])
    cycle = daemon.run_once()
    assert cycle.ingested == [] and cycle.traces_added == 0
    assert cycle.monitoring is None
    assert daemon.store.batches == []
    state = json.loads((store_dir / "watch_state.json").read_text())
    assert [Path(path).name for path in state["ingested"]] == ["empty.jsonl"]

    _write(watch / "day1.jsonl", [["a", "b"], ["a", "b"]])
    restarted = WatchDaemon(watch, store_dir, _miner())
    cycle = restarted.run_once()
    assert [path.name for path, _ in cycle.ingested] == ["day1.jsonl"]
    assert [info.index for _, info in cycle.ingested] == [0]
    assert cycle.monitoring is not None and cycle.monitoring.total_points > 0


def test_restart_with_a_different_directory_spelling_does_not_reingest(dirs):
    watch, store_dir = dirs
    daemon = WatchDaemon(watch, store_dir, _miner())
    _write(watch / "one.jsonl", [["a", "b"], ["a", "b"]])
    daemon.run_once()
    # Same directory, different spelling (unresolved, via ..).
    alias = watch.parent / f"{watch.name}-alias" / ".." / watch.name
    restarted = WatchDaemon(alias, store_dir, _miner())
    cycle = restarted.run_once()
    assert cycle.ingested == []
    assert len(restarted.store) == 2


def test_files_vanishing_mid_scan_are_skipped(dirs, monkeypatch):
    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner())
    ghost = watch / "ghost.jsonl"
    _write(ghost, [["a", "b"]])
    original_stat_key = WatchDaemon._stat_key

    def vanish_then_stat(path):
        if path.name == "ghost.jsonl":
            path.unlink(missing_ok=True)
        return original_stat_key(path)

    monkeypatch.setattr(WatchDaemon, "_stat_key", staticmethod(vanish_then_stat))
    cycle = daemon.run_once()
    assert cycle.ingested == [] and cycle.failed == []


def test_non_trace_files_are_ignored(dirs):
    watch, store = dirs
    (watch / "notes.log").write_text("not a trace format\n", encoding="utf-8")
    (watch / "README").write_text("also ignored\n", encoding="utf-8")
    daemon = WatchDaemon(watch, store, _miner())
    cycle = daemon.run_once()
    assert cycle.ingested == [] and cycle.failed == []


def test_identical_remine_does_not_swap(dirs):
    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner())
    _write(watch / "one.jsonl", [["a", "b"], ["a", "b"]])
    assert daemon.run_once().swapped
    # New traces over a fresh alphabet leave the a -> b statistics alone
    # only if the mined set is unchanged; appending an exact repeat of the
    # corpus *does* change supports, so use a rule-free alphabet instead.
    _write(watch / "two.jsonl", [["q"], ["r"]])
    cycle = daemon.run_once()
    assert cycle.ingested and not cycle.swapped
    assert daemon.swaps == 1


def test_daemon_restart_resumes_from_the_persisted_state(dirs):
    """A restart neither re-ingests old files nor re-mines untouched roots."""
    from repro.rules.nonredundant_miner import mine_non_redundant_rules

    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner(), persist_cache=True)
    _write(watch / "one.jsonl", [["a", "b"], ["a", "b"], ["c", "d"], ["c", "d"]])
    daemon.run_once()

    restarted = WatchDaemon(watch, store, _miner(), persist_cache=True)
    assert restarted.incremental.resumed_from_cache
    # one.jsonl is still in the watched directory but already in the store:
    # the persisted watch state prevents a duplicating re-append.
    _write(watch / "two.jsonl", [["a", "b"]])
    cycle = restarted.run_once()
    assert [path.name for path, _ in cycle.ingested] == ["two.jsonl"]
    assert len(restarted.store) == 5
    # The resumed record cache makes the refresh a delta, not a full mine.
    assert cycle.refresh is not None and not cycle.refresh.full_remine
    assert cycle.refresh.roots_remined < cycle.refresh.roots_total
    # And the served rules are exactly a from-scratch mine of the store.
    expected = mine_non_redundant_rules(
        restarted.store.snapshot(), min_s_support=2, min_confidence=0.5
    ).rules
    assert list(restarted.compiled.rules) == expected


def test_run_forever_honours_max_cycles(dirs):
    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner())
    assert daemon.run_forever(poll_interval=0.0, max_cycles=3) == 3
    assert daemon.cycles_run == 3


def test_watch_cycle_json_friendly_summary(dirs):
    """Cycle payloads serialise for log shipping (the CLI prints them)."""
    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner())
    _write(watch / "one.jsonl", [["a", "b"], ["a", "b"]])
    cycle = daemon.run_once()
    payload = {
        "cycle": cycle.index,
        "ingested": [str(path) for path, _ in cycle.ingested],
        "traces_added": cycle.traces_added,
        "rules": cycle.rules_served,
        "swapped": cycle.swapped,
        "violations": cycle.violation_count,
    }
    assert json.loads(json.dumps(payload)) == payload


def test_idle_cycles_count_toward_max_cycles(dirs):
    """--max-cycles bounds wall-clock polling: cycles that find no new
    files still count (the pinned semantics the CLI help documents)."""
    watch, store = dirs
    cycles = []
    daemon = WatchDaemon(watch, store, _miner(), on_cycle=cycles.append)
    _write(watch / "one.jsonl", [["a", "b"], ["a", "b"]])
    assert daemon.run_forever(poll_interval=0.0, max_cycles=4) == 4
    assert daemon.cycles_run == 4
    productive = [cycle for cycle in cycles if cycle.ingested]
    assert len(productive) == 1  # only the first cycle found work
    assert len(cycles) == 4  # ...but all four counted


def test_push_mode_serves_sessions_and_hot_swaps_the_pool(dirs):
    """Push mode: the daemon hosts the socket front end, and a re-mine
    swap reaches the pool — in-flight sessions finish on their admission
    generation while fresh sessions monitor the new rules."""
    from repro.serving import PushClient

    watch, store = dirs
    daemon = WatchDaemon(watch, store, _miner(), push_port=0)
    try:
        assert daemon.push_address is not None
        host, port = daemon.push_address
        with PushClient(host, port) as client:
            assert client.ping() == {"op": "PONG"}
            # Admitted under generation 0: the vacuous pre-mine rule set.
            client.feed("early", "a")
            _write(watch / "day1.jsonl", [["a", "b"], ["a", "b"], ["a", "b"]])
            cycle = daemon.run_once()
            assert cycle.swapped
            assert daemon.pool.generation == 1
            # No rules existed when "early" was admitted: nothing to violate.
            early = client.end("early")
            assert early["points"] == 0 and early["violation_count"] == 0
            # A fresh session monitors the freshly mined a -> b.
            client.feed_batch("late", ["a", "x"])
            late = client.end("late")
            assert late["violation_count"] >= 1
            assert late["violations"][0]["trace_name"] == "late"
            stats = client.stats()
            assert stats["generation"] == 1
            assert stats["sessions_closed"] == 2
    finally:
        daemon.close()
    daemon.close()  # idempotent
