"""Checkpoint resume through the engine: interrupted mines finish identical."""

import pickle

import pytest

from repro.cli import main
from repro.core.sequence import SequenceDatabase
from repro.durability.checkpoint import JOURNAL_NAME, MiningCheckpoint
from repro.durability.journal import JournalWriter, read_frames
from repro.engine import resolve_backend
from repro.jboss.workloads import generate_security_traces
from repro.obs.metrics import DURABILITY_RESUMED_TOTAL, ENGINE_UNITS_TOTAL, REGISTRY
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.testing import faults

IDENTITY = {"database": "test-db", "miner": "M", "config": "M()"}


def pattern_miner():
    return ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2.0))


def pattern_database():
    """Eight distinct roots, all frequent: enough planned units that a
    fault at journal entry 3 interrupts a genuinely unfinished mine."""
    sequences = [
        [f"e{i}", f"e{(i + 1) % 8}", f"e{(i + 2) % 8}"] for i in range(8)
    ] * 2
    return SequenceDatabase.from_sequences(sequences)


def interrupted_then_resumed(tmp_path, database, make_miner, backend_name):
    """Kill a mine at the Nth journal append, resume, return both results."""
    cold = make_miner().mine(database, backend=resolve_backend(backend_name, 1, None))

    ckpt_dir = tmp_path / "ckpt"
    backend = resolve_backend(backend_name, 1, None)
    backend.checkpoint = MiningCheckpoint(ckpt_dir, IDENTITY)
    faults.install("checkpoint.append", "raise", key="3")
    try:
        with pytest.raises(faults.FaultInjected):
            make_miner().mine(database, backend=backend)
    finally:
        faults.reset()
        backend.checkpoint.close()

    resumed_backend = resolve_backend(backend_name, 1, None)
    resumed_backend.checkpoint = MiningCheckpoint(ckpt_dir, IDENTITY)
    result = make_miner().mine(database, backend=resumed_backend)
    resumed_backend.checkpoint.close()
    return cold, result


def test_stealing_resume_is_identical_and_cheaper(tmp_path):
    database = pattern_database()
    cold, resumed = interrupted_then_resumed(
        tmp_path, database, pattern_miner, "process"
    )
    assert resumed.as_rows() == cold.as_rows()
    # At least the units journaled before the injected crash were reused,
    # so strictly fewer units were re-mined than a cold start runs.
    assert resumed.stats.extra.get("units_resumed", 0) >= 3
    # Cached outcomes carry their original counters, so merged stats stay
    # identical to an uninterrupted run — part of the byte-identity story.
    assert resumed.stats.visited == cold.stats.visited


def test_rule_mining_resume_is_identical(tmp_path):
    database = generate_security_traces()
    config = RuleMiningConfig(
        min_s_support=0.5,
        min_confidence=0.6,
        max_premise_length=1,
        max_consequent_length=2,
    )
    cold, resumed = interrupted_then_resumed(
        tmp_path,
        database,
        lambda: NonRedundantRecurrentRuleMiner(config),
        "process",
    )
    assert resumed.as_rows() == cold.as_rows()
    assert resumed.stats.extra.get("units_resumed", 0) >= 3


def test_completed_checkpoint_resumes_everything(tmp_path):
    database = pattern_database()
    backend = resolve_backend("process", 1, None)
    backend.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
    first = pattern_miner().mine(database, backend=backend)
    backend.checkpoint.close()

    again = resolve_backend("process", 1, None)
    again.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
    second = pattern_miner().mine(database, backend=again)
    again.checkpoint.close()
    assert second.as_rows() == first.as_rows()
    # Every planned unit came from the journal; nothing was re-mined.
    assert second.stats.extra.get("units_resumed", 0) >= 1
    assert second.stats.visited == first.stats.visited



def _executed_units():
    """Units recorded as executed so far: (counter total, histogram count)."""
    snapshot = REGISTRY.snapshot()
    counted = sum(value for _, value in snapshot[ENGINE_UNITS_TOTAL.name]["samples"])
    observed = sum(
        sample[3] for sample in snapshot["repro_engine_unit_seconds"]["samples"]
    )
    return counted, observed


def test_fully_resumed_run_records_no_executed_units(tmp_path):
    # The unit counter and histogram count work done by *this* run; units
    # reused from the journal are counted by the resume counter instead.
    database = pattern_database()
    backend = resolve_backend("serial", None, None)
    backend.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
    first = pattern_miner().mine(database, backend=backend)
    backend.checkpoint.close()

    executed_before = _executed_units()
    resumed_before = DURABILITY_RESUMED_TOTAL.value(kind="unit")
    again = resolve_backend("serial", None, None)
    again.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
    second = pattern_miner().mine(database, backend=again)
    again.checkpoint.close()
    assert second.as_rows() == first.as_rows()
    resumed = second.stats.extra.get("units_resumed", 0)
    assert resumed >= 1
    assert DURABILITY_RESUMED_TOTAL.value(kind="unit") - resumed_before == resumed
    assert _executed_units() == executed_before

def test_serial_backend_resumes_shards(tmp_path):
    # The serial backend journals per unit, so a mine killed partway
    # resumes at unit grain instead of starting over.
    database = pattern_database()
    cold, resumed = interrupted_then_resumed(tmp_path, database, pattern_miner, "serial")
    assert resumed.as_rows() == cold.as_rows()
    assert resumed.stats.extra.get("units_resumed", 0) >= 1
    assert resumed.stats.visited == cold.stats.visited


#: A ``("shard", roots, ShardOutcome)`` frame as older versions journaled
#: it, pickled by hand because the outcome class no longer exists.
LEGACY_SHARD_FRAME = (
    b"(Vshard\n(I0\nI1\ntcrepro.engine.sharding\nShardOutcome\n)Rt."
)


def test_legacy_shard_frames_are_skipped_on_replay(tmp_path):
    database = pattern_database()
    cold = pattern_miner().mine(database, backend=resolve_backend("serial", None, None))
    MiningCheckpoint(tmp_path / "ckpt", IDENTITY).close()
    journal = JournalWriter(tmp_path / "ckpt" / "checkpoint.bin")
    journal.append(LEGACY_SHARD_FRAME)
    journal.append(pickle.dumps(("shard", (0, 1), "outcome")))
    journal.close()

    backend = resolve_backend("serial", None, None)
    backend.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
    resumed = pattern_miner().mine(database, backend=backend)
    backend.checkpoint.close()
    assert resumed.as_rows() == cold.as_rows()
    # Nothing was reused: every unit was mined again.
    assert resumed.stats.extra.get("units_resumed", 0) == 0
    assert resumed.stats.visited == cold.stats.visited


def _journal_entries(directory):
    payloads, _ = read_frames(directory / JOURNAL_NAME)
    return payloads


def _make_first_unit_frame_unloadable(directory):
    """Rewrite the journal so its first ``unit`` frame no longer unpickles.

    The frame stays intact (its CRC matches its payload), but the pickle
    names a record type the program does not have, as a journal written
    by an older version of the record types would.  Returns the unit key.
    """
    payloads = _journal_entries(directory)
    (directory / JOURNAL_NAME).unlink()
    stale_key = None
    with JournalWriter(directory / JOURNAL_NAME) as journal:
        for payload in payloads:
            entry = pickle.loads(payload)
            if stale_key is None and entry[0] == "unit" and entry[2].records:
                stale_key = entry[1]
                # Protocol 2 names classes as text lines, so the rename
                # keeps every other byte of the pickle valid.
                payload = pickle.dumps(entry, protocol=2).replace(
                    b"\nPatternRecord\n", b"\nRetiredRecord\n"
                )
                with pytest.raises(AttributeError):
                    pickle.loads(payload)
            journal.append(payload)
    assert stale_key is not None
    return stale_key


def test_unloadable_unit_frame_is_re_mined(tmp_path, capsys):
    """A journaled unit whose outcome no longer loads is mined again, and
    the resumed run prints and saves exactly what an uninterrupted mine
    does."""
    traces = tmp_path / "traces.txt"
    traces.write_text(
        "\n\n".join("\n".join(sequence) for sequence in pattern_database())
        + "\n",
        encoding="utf-8",
    )
    checkpoint = tmp_path / "ckpt"
    saved = tmp_path / "patterns.json"
    mine = ["mine-patterns", "--input", str(traces), "--min-support", "2"]

    assert main(mine + ["--save", str(saved)]) == 0
    cold = capsys.readouterr().out
    cold_json = saved.read_bytes()
    assert main(mine + ["--checkpoint", str(checkpoint)]) == 0
    capsys.readouterr()
    units = sum(pickle.loads(p)[0] == "unit" for p in _journal_entries(checkpoint))
    assert units >= 2

    stale_key = _make_first_unit_frame_unloadable(checkpoint)
    assert main(mine + ["--checkpoint", str(checkpoint), "--save", str(saved)]) == 0
    captured = capsys.readouterr()

    assert f"resumed {units - 1} completed units" in captured.err
    # The re-mined unit was journaled afresh, in loadable form.
    reloaded = [pickle.loads(p) for p in _journal_entries(checkpoint)[units:]]
    assert [entry[1] for entry in reloaded if entry[0] == "unit"] == [stale_key]
    # Below the summary line (which carries the wall time).
    assert captured.out.splitlines()[1:] == cold.splitlines()[1:]
    assert saved.read_bytes() == cold_json
