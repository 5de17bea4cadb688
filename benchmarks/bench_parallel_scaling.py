"""Parallel engine scaling: speedup vs. worker count on the paper profile.

Runs the closed iterative-pattern miner and the non-redundant rule miner on
the scaled D5C20N10S20 dataset, serially and on the process backend
with increasing worker counts, and reports wall-clock speedups.  Every
parallel run is also checked bit-identical to the serial reference — the
engine's core contract.

The workload scale is ``REPRO_SCALING_SCALE`` (default: the larger of
``REPRO_BENCH_SCALE`` and 0.02, so there is enough work per unit for the
workers to amortise their start-up).  The >1.5x-at-4-workers assertion only
fires on hosts that can physically deliver it (>= 4 CPUs and a serial run
long enough to measure); set ``REPRO_REQUIRE_SPEEDUP=1`` to force it.
"""

import os
import time

from repro.datagen.profiles import PAPER_PROFILE, generate_profile
from repro.engine import ProcessPoolBackend, SerialBackend
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner

from conftest import BENCH_SCALE, write_result

SCALING_SCALE = float(os.environ.get("REPRO_SCALING_SCALE", str(max(BENCH_SCALE, 0.02))))
WORKER_COUNTS = [2, 4]
MIN_SUPPORT = 0.08
MIN_S_SUPPORT = 0.2
MIN_CONFIDENCE = 0.5


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def bench_parallel_scaling(benchmark):
    database = generate_profile(PAPER_PROFILE, scale=SCALING_SCALE)
    pattern_miner = ClosedIterativePatternMiner(
        IterativeMiningConfig(
            min_support=MIN_SUPPORT,
            collect_instances=False,
            adjacent_absorption_pruning=True,
        )
    )
    rule_miner = NonRedundantRecurrentRuleMiner(
        RuleMiningConfig(
            min_s_support=MIN_S_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            max_consequent_length=4,
        )
    )

    lines = [
        f"dataset: D5C20N10S20 scaled by {SCALING_SCALE} ({len(database)} sequences), "
        f"host cpus: {os.cpu_count()}",
        f"{'miner':<10} {'backend':<22} {'seconds':>9} {'speedup':>9} {'results':>9}",
    ]
    speedups = {}
    for name, miner in [("patterns", pattern_miner), ("rules", rule_miner)]:
        reference, serial_seconds = _timed(lambda: miner.mine(database, backend=SerialBackend()))
        lines.append(
            f"{name:<10} {'serial':<22} {serial_seconds:>9.2f} {'1.00x':>9} {len(reference):>9}"
        )
        for workers in WORKER_COUNTS:
            backend = ProcessPoolBackend(workers=workers)

            def mine_once(miner=miner, backend=backend):
                return miner.mine(database, backend=backend)

            if name == "patterns" and workers == WORKER_COUNTS[-1]:
                # The widest pattern run doubles as the pytest-benchmark probe.
                result, seconds = _timed(
                    lambda: benchmark.pedantic(mine_once, rounds=1, iterations=1)
                )
            else:
                result, seconds = _timed(mine_once)
            outputs = getattr(result, "patterns", None)
            reference_outputs = getattr(reference, "patterns", None)
            if outputs is None:
                outputs, reference_outputs = result.rules, reference.rules
            assert outputs == reference_outputs, (
                f"{name} parallel output diverged from serial at {workers} workers"
            )
            speedup = serial_seconds / seconds if seconds > 0 else float("inf")
            speedups[(name, workers)] = (speedup, serial_seconds)
            lines.append(
                f"{name:<10} {backend.describe():<22} {seconds:>9.2f} "
                f"{speedup:>8.2f}x {len(result):>9}"
            )

    lines.append("paper:    parallel output verified bit-identical to serial at every width")
    write_result("parallel_scaling", "\n".join(lines))

    # The speedup claim is only falsifiable on hardware that can deliver it:
    # enough physical cores and a serial run long enough to out-weigh pool
    # start-up.  Smoke runs (tiny scales, 1-2 CPU containers) still verify
    # parity above.
    pattern_speedup, serial_seconds = speedups[("patterns", WORKER_COUNTS[-1])]
    must_assert = os.environ.get("REPRO_REQUIRE_SPEEDUP") == "1" or (
        (os.cpu_count() or 1) >= 4 and serial_seconds >= 2.0
    )
    if must_assert:
        assert pattern_speedup > 1.5, (
            f"expected >1.5x pattern-mining speedup at 4 workers, got {pattern_speedup:.2f}x"
        )
