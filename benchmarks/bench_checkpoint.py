"""Checkpoint-journal overhead on the canonical mine.

Runs the same closed-pattern mine three ways on the one-worker process
backend (the configuration where journal appends sit directly on
the mining path, so the measured overhead is an upper bound):

* **baseline** — no checkpoint attached;
* **journaled** — a fresh :class:`~repro.durability.checkpoint.MiningCheckpoint`
  per run, every completed unit appended and periodically fsynced;
* **resume** — re-running against the completed journal (everything
  cached, nothing re-mined) — the payoff side of the ledger.

All three produce bit-identical pattern rows.  The record appended to the
``BENCH_hot_paths.json`` trajectory keys on ``benchmark: "checkpoint"``,
so the regression gate tracks the journaled wall clock PR over PR in its
own lineage.  The <10% overhead contract is asserted at canonical scale
(or under ``REPRO_REQUIRE_SPEEDUP=1``); smoke scales only verify
bit-identity, since sub-second runs make the ratio noise.

Scale with ``REPRO_CHECKPOINT_SCALE`` (default 1.0).
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

from repro.core.sequence import SequenceDatabase
from repro.durability.checkpoint import MiningCheckpoint
from repro.engine import ProcessPoolBackend
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig

from conftest import append_bench_record, write_result

SCALE = float(os.environ.get("REPRO_CHECKPOINT_SCALE", "1.0"))
REPO_ROOT = Path(__file__).resolve().parents[1]
CANONICAL_SCALE = SCALE == 1.0
JSON_PATH = (
    REPO_ROOT / "BENCH_hot_paths.json"
    if CANONICAL_SCALE
    else Path(__file__).parent / "results" / "BENCH_hot_paths.json"
)

LOOP_BODY = tuple(range(8))
NOISE_ALPHABET = tuple(range(20, 32))
NOISE_RATE = 0.15
MAX_PATTERN_LENGTH = 12

IDENTITY = {"database": "bench-checkpoint", "miner": "Closed", "config": "canonical"}


def _generate_workload(scale: float):
    """The hot-paths loop workload: repetitive bodies with seeded noise."""
    rng = random.Random(20080823)
    num_sequences = max(4, int(24 * scale))
    repeats = max(3, int(9 * scale))
    sequences = []
    for _ in range(num_sequences):
        events = []
        for _ in range(repeats):
            for event in LOOP_BODY:
                while rng.random() < NOISE_RATE:
                    events.append(rng.choice(NOISE_ALPHABET))
                events.append(event)
        sequences.append([str(event) for event in events])
    min_support = max(2, (num_sequences * repeats) // 2)
    return SequenceDatabase.from_sequences(sequences), min_support


def _miner(min_support: int) -> ClosedIterativePatternMiner:
    return ClosedIterativePatternMiner(
        IterativeMiningConfig(
            min_support=float(min_support), max_pattern_length=MAX_PATTERN_LENGTH
        )
    )


def _timed_mine(database, min_support, checkpoint=None):
    backend = ProcessPoolBackend(workers=1)
    backend.checkpoint = checkpoint
    start = time.perf_counter()
    result = _miner(min_support).mine(database, backend=backend)
    elapsed = time.perf_counter() - start
    return result, elapsed


def bench_checkpoint(benchmark, tmp_path):
    database, min_support = _generate_workload(SCALE)
    total_events = sum(len(database[i]) for i in range(len(database)))
    runs = 4 if SCALE <= 1.0 else 1

    baseline_seconds = journaled_seconds = float("inf")
    baseline = journaled = None
    entries = journal_bytes = 0
    for attempt in range(runs):
        baseline_run, seconds = _timed_mine(database, min_support)
        baseline_seconds = min(baseline_seconds, seconds)
        baseline = baseline_run
        # A fresh journal directory per run: reusing one would resume
        # (measuring nothing) instead of journaling every unit again.
        ckpt_dir = tmp_path / f"ckpt-{attempt}"
        checkpoint = MiningCheckpoint(ckpt_dir, IDENTITY)
        journaled_run, seconds = _timed_mine(database, min_support, checkpoint)
        checkpoint.close()
        journaled_seconds = min(journaled_seconds, seconds)
        journaled = journaled_run
        entries = checkpoint.entries
        journal_bytes = (ckpt_dir / "checkpoint.bin").stat().st_size

    # The payoff: resuming from the last completed journal re-mines nothing.
    resume_checkpoint = MiningCheckpoint(tmp_path / f"ckpt-{runs - 1}", IDENTITY)
    resumed, resume_seconds = _timed_mine(database, min_support, resume_checkpoint)
    resume_checkpoint.close()

    assert journaled.as_rows() == baseline.as_rows()
    assert resumed.as_rows() == baseline.as_rows()
    assert resumed.stats.extra.get("units_resumed", 0) >= 1

    benchmark.pedantic(
        _timed_mine, args=(database, min_support), rounds=1, iterations=1
    )

    overhead = (
        journaled_seconds / baseline_seconds - 1.0 if baseline_seconds > 0 else 0.0
    )
    payload = {
        "benchmark": "checkpoint",
        "workload": {
            "sequences": len(database),
            "events": total_events,
            "min_support": min_support,
            "max_pattern_length": MAX_PATTERN_LENGTH,
            "scale": SCALE,
            "host_cpus": os.cpu_count(),
        },
        "baseline_seconds": round(baseline_seconds, 4),
        "journaled_seconds": round(journaled_seconds, 4),
        "resume_seconds": round(resume_seconds, 4),
        "overhead_fraction": round(overhead, 4),
        "journal_entries": entries,
        "journal_bytes": journal_bytes,
        # The regression gate watches the journaled mine: a slowdown here
        # is either the search itself or the durability tax growing.
        "wall_clock_seconds": round(journaled_seconds, 4),
    }
    append_bench_record(JSON_PATH, payload)

    lines = [
        f"workload: {len(database)} sequences, {total_events} events, "
        f"min_support={min_support} (scale {SCALE})",
        f"baseline:   {baseline_seconds:.3f}s",
        f"journaled:  {journaled_seconds:.3f}s ({overhead:+.1%} overhead, "
        f"{entries} entries, {journal_bytes} B)",
        f"resume:     {resume_seconds:.3f}s (all units from the journal)",
        "outputs: bit-identical across baseline, journaled and resumed runs",
        f"json: {JSON_PATH.name}",
    ]
    write_result("checkpoint", "\n".join(lines))

    if os.environ.get("REPRO_REQUIRE_SPEEDUP") == "1" or SCALE >= 1.0:
        assert overhead < 0.10, (
            f"checkpoint journal overhead {overhead:+.1%} exceeds the 10% budget"
        )
