"""TraceStore: append-only persistence, manifest integrity, snapshots."""

import json

import pytest

from repro.core.errors import DataFormatError
from repro.ingest.formats import EncodedTrace, TraceRecord, write_trace_records
from repro.ingest.store import TraceStore


def test_append_iter_snapshot_round_trip(tmp_path):
    store = TraceStore(tmp_path / "store")
    info = store.append_batch(
        [TraceRecord(("lock", "use", "unlock"), "t0"), ["lock", "unlock"]]
    )
    assert info.index == 0 and info.traces == 2 and info.events == 5
    assert info.alphabet == (0, 1, 2)

    traces = list(store.iter_traces())
    assert traces == [EncodedTrace((0, 1, 2), "t0"), EncodedTrace((0, 2), None)]

    database = store.snapshot()
    assert len(database) == 2
    assert database[0] == ("lock", "use", "unlock")
    assert database.name(0) == "t0"
    assert database.name(1) is None


def test_fingerprints_chain_and_batches_accumulate(tmp_path):
    store = TraceStore(tmp_path / "store")
    assert store.fingerprint == ""
    first = store.append_batch([["a", "b"]])
    second = store.append_batch([["b", "c"]])
    assert first.fingerprint != second.fingerprint
    assert store.fingerprint == second.fingerprint
    assert len(store) == 2
    assert store.total_events() == 4
    assert store.alphabet_since(0) == (0, 1, 2)
    assert store.alphabet_since(1) == (1, 2)
    assert store.alphabet_since(2) == ()

    # Identical content appended in a different order fingerprints differently.
    other = TraceStore(tmp_path / "other")
    other.append_batch([["b", "c"]])
    other.append_batch([["a", "b"]])
    assert other.fingerprint != store.fingerprint


def test_reopen_preserves_everything(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([TraceRecord(("x", "y"), "named")])
    store.append_batch([["y", "z"]])

    reopened = TraceStore.open(tmp_path / "store")
    assert reopened.vocabulary.labels() == ("x", "y", "z")
    assert [batch.fingerprint for batch in reopened.batches] == [
        batch.fingerprint for batch in store.batches
    ]
    assert list(reopened.iter_traces()) == list(store.iter_traces())

    # And appending to the reopened store continues the chain.
    reopened.append_batch([["z"]])
    assert len(reopened) == 3


def test_open_missing_store_fails(tmp_path):
    with pytest.raises(DataFormatError):
        TraceStore.open(tmp_path / "nowhere")


def test_partial_batch_reads(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a"]])
    store.append_batch([["b"]])
    store.append_batch([["c"]])
    assert [trace.events for trace in store.iter_traces(start_batch=1)] == [(1,), (2,)]
    assert len(store.snapshot(stop_batch=2)) == 2


def test_torn_append_is_tolerated_but_corruption_is_not(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a", "b", "a"]])
    # Trailing bytes the manifest does not know about: a torn append, fine.
    with open(store.data_path, "ab") as handle:
        handle.write(b"garbage")
    reopened = TraceStore.open(tmp_path / "store")
    assert [trace.events for trace in reopened.iter_traces()] == [(0, 1, 0)]
    # Appending overwrites the torn tail — offsets stay manifest-true.
    reopened.append_batch([["b", "b"]])
    assert [trace.events for trace in reopened.iter_traces()] == [(0, 1, 0), (1, 1)]
    assert reopened.data_path.stat().st_size == reopened._data_size()
    # A data file *shorter* than the manifest promises is corruption.
    store.data_path.write_bytes(b"\x00")
    with pytest.raises(DataFormatError, match="bytes"):
        TraceStore.open(tmp_path / "store")


def test_append_batch_is_atomic_when_the_source_raises(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a", "b"]])
    fingerprint = store.fingerprint

    def exploding_traces():
        yield ["a", "a"]
        raise DataFormatError("bad line")

    with pytest.raises(DataFormatError):
        store.append_batch(exploding_traces())
    assert len(store.batches) == 1 and store.fingerprint == fingerprint
    # The torn bytes are invisible and overwritten by the next append.
    store.append_batch([["b", "b"]])
    assert [trace.events for trace in store.iter_traces()] == [(0, 1), (1, 1)]
    reopened = TraceStore.open(tmp_path / "store")
    assert [trace.events for trace in reopened.iter_traces()] == [(0, 1), (1, 1)]


def test_failed_append_rolls_back_interned_labels(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a"]])

    def exploding_traces():
        yield ["phantom-1", "phantom-2"]
        raise DataFormatError("bad line")

    with pytest.raises(DataFormatError):
        store.append_batch(exploding_traces())
    assert store.vocabulary.labels() == ("a",)
    store.append_batch([["b"]])
    assert store.vocabulary.labels() == ("a", "b")
    assert TraceStore.open(tmp_path / "store").vocabulary.labels() == ("a", "b")


def test_append_batches_commits_all_or_nothing(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a"]])
    fingerprint = store.fingerprint

    def chunks():
        yield [["a", "b"]]
        yield [["b", "c"]]
        raise DataFormatError("bad chunk")

    with pytest.raises(DataFormatError):
        store.append_batches(chunks())
    # Nothing committed: in-memory state rolled back, manifest untouched.
    assert len(store.batches) == 1 and store.fingerprint == fingerprint
    assert len(TraceStore.open(tmp_path / "store").batches) == 1

    infos = store.append_batches([[["a", "b"]], [["b", "c"]]])
    assert [info.index for info in infos] == [1, 2]
    assert len(store) == 3


def test_encoded_traces_must_use_known_ids(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a", "b"]])
    store.append_batch([EncodedTrace((0, 1), "ok")])
    with pytest.raises(DataFormatError, match="unknown event id"):
        store.append_batch([EncodedTrace((7,), "bad")])


def test_append_trace_file_streams_any_format(tmp_path):
    records = [TraceRecord(("a", "b"), None), TraceRecord(("b", "c"), None)]
    path = tmp_path / "traces.jsonl.gz"
    write_trace_records(path, records)
    store = TraceStore(tmp_path / "store")
    info = store.append_trace_file(path)
    assert info.traces == 2 and info.events == 4
    assert store.snapshot()[1] == ("b", "c")


def test_empty_append_commits_nothing(tmp_path):
    """A zero-trace append leaves the fingerprint alone, so one corpus
    fingerprints identically however it arrived."""
    records = [TraceRecord(("a", "b"), "t0"), TraceRecord(("b",), "t1")]
    empty, traces = tmp_path / "empty.jsonl", tmp_path / "traces.jsonl"
    write_trace_records(empty, [])
    write_trace_records(traces, records)

    with_empty = TraceStore(tmp_path / "with-empty")
    initial = with_empty.fingerprint
    assert with_empty.append_trace_file(empty) is None
    assert with_empty.append_batch([]) is None
    assert with_empty.batches == [] and with_empty.fingerprint == initial
    assert with_empty.append_trace_file(traces).index == 0

    alone = TraceStore(tmp_path / "alone")
    alone.append_trace_file(traces)
    batched = TraceStore(tmp_path / "batched")
    batched.append_batches([[], records])
    assert len(with_empty.batches) == len(alone.batches) == len(batched.batches) == 1
    assert with_empty.fingerprint == alone.fingerprint == batched.fingerprint
    assert TraceStore.open(tmp_path / "with-empty").fingerprint == alone.fingerprint


def test_snapshot_vocabulary_is_isolated(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a"]])
    database = store.snapshot()
    database.add(["brand-new-label"])
    assert "brand-new-label" not in store.vocabulary
    store.append_batch([["other"]])
    assert len(database.vocabulary) == 2  # unaffected by store growth


def test_manifest_is_json_with_version(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a"]])
    payload = json.loads(store.manifest_path.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert payload["labels"] == ["a"]
    assert len(payload["batches"]) == 1
    description = store.describe()
    assert description["traces"] == 1 and description["batches"] == 1

def test_manifest_write_failure_rolls_back_the_append(tmp_path):
    """The store.manifest fault point: an ENOSPC between writing the batch
    payload and replacing the manifest must leave memory and disk agreed
    on the pre-append state (and the next append must succeed)."""
    from repro.testing import faults

    store = TraceStore(tmp_path / "store")
    store.append_batch([["a", "b"]])
    fingerprint = store.fingerprint
    faults.install("store.manifest", "enospc")
    try:
        with pytest.raises(OSError):
            store.append_batch([["b", "c", "d"]])
    finally:
        faults.reset()
    assert len(store.batches) == 1 and store.fingerprint == fingerprint
    assert store.vocabulary.labels() == ("a", "b")
    assert len(TraceStore.open(tmp_path / "store").batches) == 1
    # The rolled-back store keeps working, in memory and on disk.
    info = store.append_batch([["b", "c"]])
    assert info.index == 1
    assert TraceStore.open(tmp_path / "store").vocabulary.labels() == ("a", "b", "c")


def test_batch_source_round_trips_and_is_queryable(tmp_path):
    store = TraceStore(tmp_path / "store")
    source = {"path": "/inputs/run1.txt", "sha256": "ab" * 32}
    store.append_batches([[["a", "b"]]], source=source)
    store.append_batch([["b", "c"]])
    assert store.has_source(source)
    assert not store.has_source({"path": "/inputs/run2.txt", "sha256": "cd" * 32})
    reopened = TraceStore.open(tmp_path / "store")
    assert reopened.has_source(source)
    assert reopened.batches[0].source == source
    assert reopened.batches[1].source is None
