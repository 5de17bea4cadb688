"""Pattern-growth hot-loop microbenchmark: columnar blocks vs. tuple lists.

Drives the exact per-node work of the iterative-pattern search over a
repetitive loop workload twice: once on the tuple-based reference path of
the test oracles (``tests/oracles``: ``List[PatternInstance]`` + per-event
boundary scans) and once on the
columnar block path the miners run (``InstanceBlock`` + per-node
``AlphabetIndex`` boundary cache).  Two loops are timed separately:

* the **growth loop** — forward projection + support pruning, the
  full-miner hot path and the core cost driver of Section 4 mining; the
  ≥3x speedup target applies here;
* the **closed loop** — growth plus the forward/backward/infix closedness
  checks.  The tuple path verifies infix candidates with the exact QRE
  matcher, the block path with the span-local test on the block's rows.

Both traversals are asserted bit-identical before any time is reported.
On top of the loop timings the benchmark records the worker-to-coordinator
transfer volume: the pickle size of the mined instance lists in tuple form
vs. block form, plus the engine's own ``instances_materialized`` /
``shipped_bytes`` counters from a real miner run.

Results go to ``benchmarks/results/hot_paths.txt`` (human-readable) and are
*appended* as one run record to the ``BENCH_hot_paths.json`` trajectory at
the repository root — stable, before/after comparable fields so the perf
history of this hot loop accumulates PR over PR (the regression gate in
``check_bench_regression.py`` compares the newest record to its
predecessor).  The ≥3x assertion fires when ``REPRO_REQUIRE_SPEEDUP=1`` or
when the baseline run is long enough to measure reliably; tiny smoke
scales still verify bit-identity.

Scale with ``REPRO_HOTPATH_SCALE`` (default 1.0; the default workload runs
in a few seconds on a laptop).
"""

from __future__ import annotations

import os
import pickle
import random
import time
from pathlib import Path

from repro.core.positions import PositionIndex
from repro.core.projection import AlphabetIndex, forward_extensions_block, singleton_blocks
from repro.core.sequence import SequenceDatabase
from repro.patterns.closure import is_closed_block
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from tests.oracles.closure import is_closed
from tests.oracles.projection import forward_extensions, singleton_instances

from conftest import append_bench_record, write_result

SCALE = float(os.environ.get("REPRO_HOTPATH_SCALE", "1.0"))
REPO_ROOT = Path(__file__).resolve().parents[1]
#: The tracked trajectory file only records canonical-scale runs; smoke runs
#: at other scales write next to the other benchmark outputs instead, so
#: they never clobber the comparable PR-over-PR numbers.
CANONICAL_SCALE = SCALE == 1.0
JSON_PATH = (
    REPO_ROOT / "BENCH_hot_paths.json"
    if CANONICAL_SCALE
    else Path(__file__).parent / "results" / "BENCH_hot_paths.json"
)

#: Loop body repeated through every trace — long instance lists, deep growth
#: with a realistically wide pattern alphabet (the paper's JBoss transaction
#: pattern is 28 events long; boundary queries scale with alphabet size).
LOOP_BODY = tuple(range(8))
NOISE_ALPHABET = tuple(range(20, 32))
NOISE_RATE = 0.15
MAX_PATTERN_LENGTH = 12


def _generate_workload(scale: float):
    """Repetitive loop traces with interleaved noise (seeded, deterministic)."""
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
        sequences.append(tuple(events))
    min_support = max(2, (num_sequences * repeats) // 2)
    return sequences, min_support


def _grow_tuple_path(encoded, index, min_support, closed):
    """The pre-columnar hot loop: projection (+ closure) over instance tuples."""
    nodes = visited_rows = 0
    emitted = []
    singletons = singleton_instances(encoded)

    def grow(pattern, instances):
        nonlocal nodes, visited_rows
        nodes += 1
        visited_rows += len(instances)
        extensions = forward_extensions(encoded, index, pattern, instances)
        at_cap = len(pattern) >= MAX_PATTERN_LENGTH
        if at_cap or not closed or is_closed(encoded, index, pattern, instances, extensions):
            emitted.append((pattern, tuple(instances)))
        if at_cap:
            return
        for event in sorted(extensions):
            extension_instances = extensions[event]
            if len(extension_instances) >= min_support:
                grow(pattern + (event,), extension_instances)

    for event in sorted(singletons):
        instances = singletons[event]
        if len(instances) >= min_support:
            grow((event,), instances)
    return emitted, nodes, visited_rows


def _grow_block_path(encoded, index, min_support, closed):
    """The columnar hot loop: identical traversal over InstanceBlock columns."""
    nodes = visited_rows = 0
    emitted = []
    singletons = singleton_blocks(encoded)

    def grow(pattern, block, node):
        nonlocal nodes, visited_rows
        nodes += 1
        visited_rows += len(block)
        extensions = forward_extensions_block(encoded, index, node, block)
        at_cap = len(pattern) >= MAX_PATTERN_LENGTH
        if at_cap or not closed or is_closed_block(encoded, index, node, block, extensions):
            emitted.append((pattern, block))
        if at_cap:
            return
        for event in sorted(extensions):
            extension_block = extensions[event]
            if len(extension_block) >= min_support:
                grow(pattern + (event,), extension_block, node.extend(event))

    for event in sorted(singletons):
        block = singletons[event]
        if len(block) >= min_support:
            grow((event,), block, AlphabetIndex(index, (event,)))
    return emitted, nodes, visited_rows


def _best_of(runs, fn):
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _compare_paths(encoded, index, min_support, closed, runs):
    """Time both paths on one loop variant and assert bit-identical output."""
    (tuple_result, tuple_nodes, tuple_rows), tuple_seconds = _best_of(
        runs, lambda: _grow_tuple_path(encoded, index, min_support, closed)
    )
    (block_result, block_nodes, block_rows), block_seconds = _best_of(
        runs, lambda: _grow_block_path(encoded, index, min_support, closed)
    )
    assert block_nodes == tuple_nodes and block_rows == tuple_rows
    assert len(block_result) == len(tuple_result)
    for (block_pattern, block), (tuple_pattern, instances) in zip(block_result, tuple_result):
        assert block_pattern == tuple_pattern
        assert block.to_tuple() == instances
    speedup = tuple_seconds / block_seconds if block_seconds > 0 else float("inf")
    return {
        "nodes": tuple_nodes,
        "instance_rows": tuple_rows,
        "patterns_emitted": len(tuple_result),
        "tuple_seconds": round(tuple_seconds, 4),
        "block_seconds": round(block_seconds, 4),
        "speedup": round(speedup, 2),
    }, tuple_result, block_result


def bench_hot_paths(benchmark):
    sequences, min_support = _generate_workload(SCALE)
    database = SequenceDatabase.from_sequences(
        [[str(event) for event in sequence] for sequence in sequences]
    )
    encoded = [tuple(sequence) for sequence in sequences]
    index = PositionIndex(encoded)
    total_events = sum(len(sequence) for sequence in sequences)
    # Best-of-N timing: the paths are deterministic, so the minimum is the
    # least noise-contaminated estimate of each loop's true cost.
    runs = 4 if SCALE <= 1.0 else 1

    growth, _, _ = _compare_paths(encoded, index, min_support, closed=False, runs=runs)
    closed, tuple_result, block_result = _compare_paths(
        encoded, index, min_support, closed=True, runs=runs
    )
    # One extra run as the pytest-benchmark probe (the fixture is single-use).
    benchmark.pedantic(
        _grow_block_path, args=(encoded, index, min_support, False), rounds=1, iterations=1
    )

    # Worker-to-coordinator transfer volume: the same instance lists as the
    # tuples the engine used to pickle vs. the block buffers it ships now.
    tuple_payload = len(pickle.dumps([instances for _, instances in tuple_result]))
    block_payload = len(pickle.dumps([block for _, block in block_result]))

    # A real miner run, for the engine-side counters.
    miner = ClosedIterativePatternMiner(
        IterativeMiningConfig(
            min_support=float(min_support),
            max_pattern_length=MAX_PATTERN_LENGTH,
            collect_instances=True,
        )
    )
    mined = miner.mine(database)
    assert len(mined.patterns) == len(tuple_result)

    payload = {
        "benchmark": "hot_paths",
        "workload": {
            "sequences": len(sequences),
            "events": total_events,
            "loop_body": len(LOOP_BODY),
            "noise_alphabet": len(NOISE_ALPHABET),
            "noise_rate": NOISE_RATE,
            "min_support": min_support,
            "max_pattern_length": MAX_PATTERN_LENGTH,
            "scale": SCALE,
            "host_cpus": os.cpu_count(),
        },
        "growth_loop": growth,
        "closed_loop": closed,
        "pickle_bytes_tuple": tuple_payload,
        "pickle_bytes_block": block_payload,
        "pickle_ratio": round(tuple_payload / block_payload, 2) if block_payload else None,
        "miner_stats": {
            "instances_materialized": mined.stats.instances_materialized,
            "shipped_bytes": mined.stats.shipped_bytes,
            "visited": mined.stats.visited,
            "emitted": mined.stats.emitted,
            "elapsed_seconds": round(mined.stats.elapsed_seconds, 4),
        },
        # The optimised-path cost the regression gate watches.
        "wall_clock_seconds": round(
            growth["block_seconds"] + closed["block_seconds"], 4
        ),
    }
    append_bench_record(JSON_PATH, payload)

    lines = [
        f"workload: {len(sequences)} sequences, {total_events} events, "
        f"min_support={min_support}, max_len={MAX_PATTERN_LENGTH} (scale {SCALE})",
        f"{'loop':<14} {'nodes':>7} {'rows':>9} {'tuple s':>9} {'block s':>9} {'speedup':>9}",
    ]
    for name, figures in [("growth", growth), ("closed", closed)]:
        lines.append(
            f"{name:<14} {figures['nodes']:>7} {figures['instance_rows']:>9} "
            f"{figures['tuple_seconds']:>9.3f} {figures['block_seconds']:>9.3f} "
            f"{figures['speedup']:>8.2f}x"
        )
    lines += [
        "outputs: bit-identical between paths on both loops",
        f"pickle volume: {tuple_payload} B (tuples) vs {block_payload} B (blocks), "
        f"{payload['pickle_ratio']}x smaller on the wire",
        f"miner counters: instances_materialized={mined.stats.instances_materialized}, "
        f"shipped_bytes={mined.stats.shipped_bytes}",
        f"json: {JSON_PATH.name}",
    ]
    write_result("hot_paths", "\n".join(lines))

    # The hot-loop claims are asserted only on workloads big enough that
    # they are falsifiable: at smoke scales timing is noise and fixed
    # per-array pickle overhead dominates the tiny blocks (bit-identity is
    # still verified above).  The gate keys on workload size, not elapsed
    # time — a slow host must not flip a smoke run into an asserting one.
    if os.environ.get("REPRO_REQUIRE_SPEEDUP") == "1" or SCALE >= 1.0:
        assert growth["speedup"] >= 3.0, (
            f"expected >=3x growth-loop speedup, got {growth['speedup']:.2f}x"
        )
        assert block_payload < tuple_payload
