"""repro fsck: chain re-hash, torn-tail repair, stale-state detection."""

import pickle

from repro.cli import main
from repro.durability.checkpoint import MiningCheckpoint
from repro.durability.fsck import EXIT_CLEAN, EXIT_CORRUPT, EXIT_REPAIRED, audit_store
from repro.ingest.incremental import CACHE_VERSION, IncrementalMiner
from repro.ingest.store import TraceStore
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig


def make_store(path):
    store = TraceStore(path)
    store.append_batch([["lock", "use", "unlock"], ["lock", "unlock"]])
    store.append_batch([["lock", "read", "unlock"]])
    return store


def test_clean_store_exits_zero(tmp_path):
    make_store(tmp_path / "store")
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_CLEAN
    assert report.lines() == []


def test_missing_manifest_is_corrupt(tmp_path):
    assert audit_store(tmp_path / "nowhere").exit_code == EXIT_CORRUPT


def test_flipped_payload_byte_is_corrupt(tmp_path):
    store = make_store(tmp_path / "store")
    with open(store.data_path, "r+b") as handle:
        handle.seek(2)
        byte = handle.read(1)
        handle.seek(2)
        handle.write(bytes([byte[0] ^ 0xFF]))
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_CORRUPT
    assert any("does not re-hash" in line for line in report.corruption)


def test_truncated_data_file_is_corrupt(tmp_path):
    store = make_store(tmp_path / "store")
    with open(store.data_path, "r+b") as handle:
        handle.truncate(store.batches[-1].offset - 1)
    assert audit_store(tmp_path / "store").exit_code == EXIT_CORRUPT


def test_torn_tail_repaired_then_clean(tmp_path):
    store = make_store(tmp_path / "store")
    with open(store.data_path, "ab") as handle:
        handle.write(b"\x00halfwritten")
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_REPAIRED
    assert any("torn tail" in line for line in report.issues)
    # Second pass: the repair held, and the store reopens cleanly.
    assert audit_store(tmp_path / "store").exit_code == EXIT_CLEAN
    assert len(TraceStore.open(tmp_path / "store")) == 3


def test_no_repair_reports_without_fixing(tmp_path):
    store = make_store(tmp_path / "store")
    with open(store.data_path, "ab") as handle:
        handle.write(b"\x00halfwritten")
    report = audit_store(tmp_path / "store", repair=False)
    assert report.exit_code == EXIT_REPAIRED
    assert report.repairs == []
    # Nothing was touched: a second audit sees the same torn tail.
    assert audit_store(tmp_path / "store", repair=False).issues == report.issues


def test_stray_tmp_file_removed(tmp_path):
    make_store(tmp_path / "store")
    (tmp_path / "store" / "manifest.json.tmp").write_text("{}")
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_REPAIRED
    assert not (tmp_path / "store" / "manifest.json.tmp").exists()


def test_orphan_data_file_removed(tmp_path):
    make_store(tmp_path / "store")
    (tmp_path / "store" / "traces-gen1.bin").write_bytes(b"abandoned")
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_REPAIRED
    assert not (tmp_path / "store" / "traces-gen1.bin").exists()


def test_stale_cache_removed_valid_cache_kept(tmp_path):
    store = make_store(tmp_path / "store")
    cache_dir = tmp_path / "store" / "cache"
    cache_dir.mkdir()
    stale = cache_dir / "Stale.records.pkl"
    stale.write_bytes(
        pickle.dumps(
            {"version": CACHE_VERSION, "synced_batches": 1, "fingerprint": "not-in-lineage"}
        )
    )
    valid = cache_dir / "Valid.records.pkl"
    valid.write_bytes(
        pickle.dumps(
            {
                "version": CACHE_VERSION,
                "synced_batches": 2,
                "fingerprint": store.batches[1].fingerprint,
            }
        )
    )
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_REPAIRED
    assert not stale.exists()
    assert valid.exists()


def test_cache_of_another_version_is_flagged_and_removed(tmp_path, capsys):
    """A cache the miner would discard for its version is stale to fsck too."""
    store = make_store(tmp_path / "store")
    miner = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2))
    IncrementalMiner(miner, store, persist=True).refresh()
    cache = IncrementalMiner.default_cache_path(store, miner)
    assert main(["fsck", str(store.directory)]) == EXIT_CLEAN
    payload = pickle.loads(cache.read_bytes())
    payload["version"] = CACHE_VERSION + 1
    cache.write_bytes(pickle.dumps(payload))
    capsys.readouterr()

    assert main(["fsck", "--no-repair", str(store.directory)]) == EXIT_REPAIRED
    assert f"cache version {CACHE_VERSION + 1}" in capsys.readouterr().out
    assert cache.exists()
    reopened = TraceStore.open(store.directory)
    assert not IncrementalMiner(miner, reopened, persist=True).resumed_from_cache

    assert main(["fsck", str(store.directory)]) == EXIT_REPAIRED
    assert f"removed cache/{cache.name}" in capsys.readouterr().out
    assert not cache.exists()
    assert main(["fsck", str(store.directory)]) == EXIT_CLEAN


def test_checkpoint_outside_lineage_removed_matching_kept(tmp_path):
    store = make_store(tmp_path / "store")
    good = MiningCheckpoint(
        tmp_path / "store" / "ckpt-good",
        {"database": store.fingerprint, "miner": "M", "config": "M()"},
    )
    good.close()
    bad = MiningCheckpoint(
        tmp_path / "store" / "ckpt-bad",
        {"database": "deadbeef", "miner": "M", "config": "M()"},
    )
    bad.close()
    flat = MiningCheckpoint(
        tmp_path / "store" / "ckpt-flat",
        {"database": "file:cafe", "miner": "M", "config": "M()"},
    )
    flat.close()
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_REPAIRED
    assert not (tmp_path / "store" / "ckpt-bad").exists()
    # In-lineage and flat-file checkpoints are out of scope for removal.
    assert (tmp_path / "store" / "ckpt-good").exists()
    assert (tmp_path / "store" / "ckpt-flat").exists()


def test_torn_checkpoint_journal_truncated(tmp_path):
    store = make_store(tmp_path / "store")
    ckpt_dir = tmp_path / "store" / "ckpt"
    with MiningCheckpoint(
        ckpt_dir, {"database": store.fingerprint, "miner": "M", "config": "M()"}
    ) as ckpt:
        ckpt.record_unit(type("U", (), {"kind": "grow", "path": (1, 2)})(), "outcome")
    journal = ckpt_dir / "checkpoint.bin"
    journal.write_bytes(journal.read_bytes() + b"\x09\x00")
    report = audit_store(tmp_path / "store")
    assert report.exit_code == EXIT_REPAIRED
    assert any("torn checkpoint journal" in line for line in report.issues)
    assert audit_store(tmp_path / "store").exit_code == EXIT_CLEAN
