"""Work stealing vs. the serial reference on a skewed search space.

The workload is engineered so that no plan made per root can balance it:
a hot five-event loop alphabet owns the entire closed-pattern search tree
(the noise events never clear the support threshold), leaving exactly
five heavy first-level roots for four workers.  Without splitting, one
worker would be left holding two whole subtrees.  The stealing
coordinator subdivides the straggler's subtree on demand and keeps the
whole pool busy to the end.

The closed iterative-pattern miner runs on the same data serially
(reference) and on the ``process`` backend; the parallel result is
checked bit-identical to the serial reference, and the run record (serial
/ stealing wall clocks, the speedup and the split counters) is appended
to the ``BENCH_hot_paths.json`` trajectory next to the hot-loop records.

Scale with ``REPRO_STEALING_SCALE`` (default 1.0, a sub-minute run at 4
workers).
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

from repro.core.sequence import SequenceDatabase
from repro.engine import ProcessPoolBackend, SerialBackend
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig

from conftest import append_bench_record, write_result

SCALE = float(os.environ.get("REPRO_STEALING_SCALE", "1.0"))
WORKERS = 4
REPO_ROOT = Path(__file__).resolve().parents[1]
#: Canonical-scale runs append to the tracked trajectory; smoke runs at
#: other scales append to a results-local copy instead.
JSON_PATH = (
    REPO_ROOT / "BENCH_hot_paths.json"
    if SCALE == 1.0
    else Path(__file__).parent / "results" / "BENCH_hot_paths.json"
)

#: The hot loop body: five events, each a heavy first-level root.  With
#: four workers and no splitting, one worker would hold two of these
#: subtrees.
LOOP_BODY = tuple(range(5))
NOISE_ALPHABET = tuple(range(20, 32))
NOISE_RATE = 0.2
MAX_PATTERN_LENGTH = 12


def _generate_skewed_workload(scale: float):
    """Deterministic skewed-alphabet traces: the hot loop owns the tree.

    Every trace repeats the five-event loop body with interleaved rare
    noise; noise events never reach the support threshold, so the plan
    sees exactly ``len(LOOP_BODY)`` frequent roots of near-equal heavy
    cost — maximal quantisation skew for four workers.
    """
    rng = random.Random(20080824)
    num_sequences = max(4, int(40 * scale))
    repeats = max(3, int(64 * scale))
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
    return sequences, min_support


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def bench_work_stealing(benchmark):
    sequences, min_support = _generate_skewed_workload(SCALE)
    database = SequenceDatabase.from_sequences(sequences)
    total_events = sum(len(sequence) for sequence in sequences)
    miner = ClosedIterativePatternMiner(
        IterativeMiningConfig(
            min_support=float(min_support),
            max_pattern_length=MAX_PATTERN_LENGTH,
            collect_instances=False,
            adjacent_absorption_pruning=False,
        )
    )

    serial_result, serial_seconds = _timed(
        lambda: miner.mine(database, backend=SerialBackend())
    )
    stealing_backend = ProcessPoolBackend(workers=WORKERS)

    def mine_stealing():
        return miner.mine(database, backend=stealing_backend)

    stealing_result, stealing_seconds = _timed(
        lambda: benchmark.pedantic(mine_stealing, rounds=1, iterations=1)
    )

    assert stealing_result.patterns == serial_result.patterns, (
        "stealing backend diverged from serial on the skewed workload"
    )

    speedup = serial_seconds / stealing_seconds if stealing_seconds > 0 else float("inf")
    units_split = int(stealing_result.stats.extra.get("units_split", 0))
    closure_offloads = int(stealing_result.stats.extra.get("closure_offloads", 0))

    record = {
        "benchmark": "work_stealing",
        "workload": {
            "sequences": len(sequences),
            "events": total_events,
            "min_support": min_support,
            "scale": SCALE,
            "workers": WORKERS,
            "host_cpus": os.cpu_count(),
        },
        "patterns": len(serial_result),
        "serial_seconds": round(serial_seconds, 4),
        "stealing_seconds": round(stealing_seconds, 4),
        "stealing_vs_serial": round(speedup, 2),
        "units_split": units_split,
        "closure_offloads": closure_offloads,
        "wall_clock_seconds": round(stealing_seconds, 4),
    }
    append_bench_record(JSON_PATH, record)

    lines = [
        f"workload: {len(sequences)} sequences, {total_events} events, "
        f"min_support={min_support} (scale {SCALE}), "
        f"{len(LOOP_BODY)} hot roots for {WORKERS} workers",
        f"{'backend':<34} {'seconds':>9} {'vs serial':>10}",
        f"{'serial':<34} {serial_seconds:>9.2f} {'1.00x':>10}",
        f"{stealing_backend.describe():<34} {stealing_seconds:>9.2f} {speedup:>9.2f}x",
        f"units_split={units_split}, closure_offloads={closure_offloads}",
        "parity: stealing bit-identical to serial",
        f"json: {JSON_PATH.name}",
    ]
    write_result("work_stealing", "\n".join(lines))
