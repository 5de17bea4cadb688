"""Whole-process crash safety: SIGKILL the *main* process, restart, verify.

The engine-recovery suite kills workers; these scenarios kill the process
that owns the journal, the store manifest, or the compaction swap — the
failure a power cut or OOM kill of the mining run itself produces.  Each
scenario runs the CLI in a subprocess with a fault plan in the
environment, asserts the SIGKILL actually landed (returncode -9), then
restarts and verifies recovery: resumed mines emit byte-identical output,
re-run ingests append exactly the missing files, and fsck turns crash
debris back into a clean store.

Heavier than the in-process tests (several interpreter launches each), so
gated behind ``REPRO_FAULTS=1`` like the other chaos scenarios.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.durability.fsck import EXIT_CLEAN, EXIT_REPAIRED, audit_store
from repro.ingest.store import TraceStore

chaos = pytest.mark.skipif(
    not os.environ.get("REPRO_FAULTS"),
    reason="process-crash chaos scenario; set REPRO_FAULTS=1 to run",
)

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])
SIGKILLED = -9


def run_cli(args, faults_spec=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT
    env.pop("REPRO_FAULTS_SPEC", None)
    env.pop("REPRO_FAULTS_DIR", None)
    if faults_spec is not None:
        env["REPRO_FAULTS_SPEC"] = faults_spec
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def write_workload(path, *, offset=0):
    """A small store-able workload: eight distinct frequent roots, so an
    in-process one-worker mine journals one entry per root unit."""
    chunks = []
    for _ in range(2):
        for i in range(8):
            events = [f"e{(i + j + offset) % 8}" for j in range(3)]
            chunks.append("\n".join(events))
    path.write_text("\n\n".join(chunks) + "\n", encoding="utf-8")


def mine_args(workload, save, checkpoint=None):
    args = [
        "mine-patterns",
        "--input", str(workload),
        "--min-support", "2",
        "--backend", "process",
        "--workers", "1",
        "--save", str(save),
    ]
    if checkpoint is not None:
        args += ["--checkpoint", str(checkpoint)]
    return args


@chaos
@pytest.mark.parametrize(
    ("site", "kill_entry"),
    [
        # Mid-append: the frame header reached the file, the payload never
        # did — the classic torn tail the framing must truncate on resume.
        ("checkpoint.append", "1"),
        ("checkpoint.append", "3"),
        # Post-append: the journal tail is clean; resume reuses everything
        # up to and including the killed entry.
        ("checkpoint.commit", "5"),
    ],
)
def test_sigkill_mid_journal_append_resumes_byte_identical(tmp_path, site, kill_entry):
    workload = tmp_path / "workload.txt"
    write_workload(workload)
    cold = run_cli(mine_args(workload, tmp_path / "cold.json"))
    assert cold.returncode == 0, cold.stderr

    ckpt = tmp_path / "ckpt"
    crashed = run_cli(
        mine_args(workload, tmp_path / "crashed.json", checkpoint=ckpt),
        faults_spec=f"{site}:kill:key={kill_entry}",
    )
    assert crashed.returncode == SIGKILLED, crashed.stderr
    assert not (tmp_path / "crashed.json").exists()

    resumed = run_cli(mine_args(workload, tmp_path / "resumed.json", checkpoint=ckpt))
    assert resumed.returncode == 0, resumed.stderr
    match = re.search(r"checkpoint: resumed (\d+) completed units", resumed.stderr)
    assert match is not None, resumed.stderr
    # Strictly fewer units were re-mined than a cold start runs: every
    # entry journaled before the kill was reused.
    assert int(match.group(1)) >= int(kill_entry)
    cold_bytes = (tmp_path / "cold.json").read_bytes()
    assert (tmp_path / "resumed.json").read_bytes() == cold_bytes
    assert json.loads(cold_bytes)["patterns"]


@chaos
def test_sigkill_between_payload_and_manifest_commit_in_multi_file_ingest(tmp_path):
    files = []
    for index in range(3):
        path = tmp_path / f"in{index}.txt"
        write_workload(path, offset=index)
        files.append(str(path))

    reference = run_cli(["ingest", "--store", str(tmp_path / "ref"), "--input", *files])
    assert reference.returncode == 0, reference.stderr

    store_dir = tmp_path / "store"
    # The store.manifest fault point sits after the batch payload is
    # written and fsynced, before the manifest replace: killing at
    # key=2 dies mid-commit of the second file.
    crashed = run_cli(
        ["ingest", "--store", str(store_dir), "--input", *files],
        faults_spec="store.manifest:kill:key=2",
    )
    assert crashed.returncode == SIGKILLED, crashed.stderr

    interrupted = TraceStore.open(store_dir)
    assert len(interrupted.batches) == 1  # second commit never landed

    # Re-running the same command appends exactly the remaining files:
    # file 0 is skipped by source identity, file 1's torn payload is
    # truncated by the append path, files 1 and 2 are committed.
    rerun = run_cli(["ingest", "--store", str(store_dir), "--input", *files])
    assert rerun.returncode == 0, rerun.stderr
    assert f"skipping {files[0]}" in rerun.stderr
    assert f"skipping {files[1]}" not in rerun.stderr

    recovered = TraceStore.open(store_dir)
    expected = TraceStore.open(tmp_path / "ref")
    assert len(recovered.batches) == 3
    assert recovered.fingerprint == expected.fingerprint  # chain intact, no duplicates
    assert len(recovered) == len(expected)
    assert audit_store(store_dir).exit_code == EXIT_CLEAN


@chaos
def test_sigkill_mid_compaction_leaves_recoverable_store(tmp_path):
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    write_workload(first)
    write_workload(second, offset=3)
    store_dir = tmp_path / "store"
    ingest = run_cli(["ingest", "--store", str(store_dir), "--input", str(first), str(second)])
    assert ingest.returncode == 0, ingest.stderr
    before = TraceStore.open(store_dir)

    crashed = run_cli(
        ["compact", str(store_dir), "--delete-batch", "0"],
        faults_spec="compact.swap:kill",
    )
    assert crashed.returncode == SIGKILLED, crashed.stderr

    # The manifest never swapped: the old lineage is fully intact, the
    # half-written generation is debris fsck removes.
    report = audit_store(store_dir)
    assert report.exit_code == EXIT_REPAIRED
    assert any("orphaned data file" in line for line in report.issues)
    assert audit_store(store_dir).exit_code == EXIT_CLEAN
    surviving = TraceStore.open(store_dir)
    assert surviving.fingerprint == before.fingerprint
    assert surviving.generation == 0

    # And the retried compaction completes on the repaired store.
    # (--delete-batch was journaled into the manifest pre-crash, so the
    # tombstone is still set.)
    retried = run_cli(["compact", str(store_dir)])
    assert retried.returncode == 0, retried.stderr
    compacted = TraceStore.open(store_dir)
    assert compacted.generation == 1
    assert compacted.compacted_from == before.fingerprint
    assert len(compacted.batches) == 1
    assert audit_store(store_dir).exit_code == EXIT_CLEAN
