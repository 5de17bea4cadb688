"""Mining workloads: trace file -> TraceStore -> snapshot -> mined result.

The harness side (:func:`run`) generates the input file, starts a fresh
Python process that mines it through the program's public API (the path
``repro ingest`` / ``repro mine-*`` take), and checks every mined result
against a serial in-process mine of the same traces.  The child side
(``python3 perfbench/mine.py REQUEST.json``) is the process under test:
its peak RSS is the mining coordinator's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import (
    BENCH_DIR,
    ROOT,
    median,
    percentile,
    pin,
    proc_status_kb,
    program_cpus,
    program_env,
    Calibrator,
    SpeedSamples,
    run_setups,
    use_program_sources,
)

#: Seconds the mining process may take from "go" to its exit.
CHILD_TIMEOUT_S = 150


def build_miner(name: str, params: Dict):
    if name == "mine-loops":
        from repro.patterns.closed_miner import ClosedIterativePatternMiner
        from repro.patterns.config import IterativeMiningConfig

        return ClosedIterativePatternMiner(
            IterativeMiningConfig(
                min_support=float(loops_min_support(params)),
                max_pattern_length=params["max_pattern_length"],
                collect_instances=False,
            )
        )
    from repro.rules.config import RuleMiningConfig
    from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner

    return NonRedundantRecurrentRuleMiner(RuleMiningConfig(**params["rule_config"]))


def loops_min_support(params: Dict) -> int:
    shape = params["generator"]
    instances = shape["sequences"] * shape["repeats"]
    return max(2, int(instances * params["min_support_fraction_of_loop_instances"]))


def digest(result) -> str:
    """Order-sensitive fingerprint of a mined result (labels, not ids)."""
    if hasattr(result, "patterns"):
        rows = [[list(p.events), p.support] for p in result.patterns]
    else:
        rows = [
            [list(r.premise), list(r.consequent), r.s_support, r.i_support, repr(r.confidence)]
            for r in result.rules
        ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# --------------------------------------------------------------------- #
# Child: the mining process under test
# --------------------------------------------------------------------- #
def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def mine_once(name: str, params: Dict, trace_path: Path, store_dir: Path, workers: int) -> Dict:
    from repro.engine import resolve_backend
    from repro.ingest.store import TraceStore
    from repro.obs import metrics as obs_metrics
    from repro.specs.repository import SpecificationRepository

    shutil.rmtree(store_dir, ignore_errors=True)
    miner = build_miner(name, params)
    backend = resolve_backend("auto", workers)
    cpu = _cpu_seconds()
    window_start = time.monotonic()
    started = time.perf_counter()
    store = TraceStore(store_dir)
    store.append_trace_file(str(trace_path))
    database = store.snapshot()
    result = miner.mine(database, backend=backend)
    mine_s = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu

    started = time.perf_counter()
    repository = SpecificationRepository(name=name)
    if hasattr(result, "patterns"):
        repository.add_pattern_result(result)
    else:
        repository.add_rule_result(result)
    repository.save(str(store_dir.with_suffix(".json")))
    save_s = time.perf_counter() - started

    started = time.perf_counter()
    obs_metrics.REGISTRY.render_text()
    render_s = time.perf_counter() - started
    stats = result.stats
    return {
        "window": [window_start, window_start + mine_s],
        "workers": workers,
        "mine_s": mine_s,
        "cpu_s": cpu,
        "save_s": save_s,
        "render_s": render_s,
        "digest": digest(result),
        "events": store.total_events(),
        "traces": len(store),
        "stats": {
            "pruned_confidence": stats.pruned_confidence,
            "shipped_bytes": stats.shipped_bytes,
            "retries": sum(
                stats.extra.get(key, 0)
                for key in ("shards_retried", "units_retried", "pool_restarts", "workers_lost")
            ),
        },
    }


def child_measure(request: Dict) -> Dict:
    name, params = request["workload"], request["params"]
    trace_path, workdir = Path(request["trace_path"]), Path(request["workdir"])
    reps: List[Dict] = []
    started = time.perf_counter()
    while len(reps) < params["min_reps"] or time.perf_counter() - started < request["seconds"]:
        reps.append(mine_once(name, params, trace_path, workdir / f"store-{len(reps)}", params["workers"]))
    return {"reps": reps, "peak_rss_kb": proc_status_kb(os.getpid(), "VmHWM"), "pid": os.getpid()}


def child_trace(request: Dict) -> Dict:
    """Untraced and traced mines of the same input, for the layer ledger."""
    import tracer as tracing_wrappers

    name, params = request["workload"], request["params"]
    trace_path, workdir = Path(request["trace_path"]), Path(request["workdir"])
    tracer = tracing_wrappers.Tracer()
    tracer.min_support = loops_min_support(params) if name == "mine-loops" else 0

    # In-miner layers: serial, in process (mine-loops' own configuration).
    plain = mine_once(name, params, trace_path, workdir / "store-plain", 1)
    tracing_wrappers.install_ingest(tracer)
    tracing_wrappers.install_engine(tracer)
    tracing_wrappers.install_miner(tracer)
    traced = mine_once(name, params, trace_path, workdir / "store-traced", 1)
    tracer.restore()
    reps = [plain, traced]
    serial = tracer.snapshot()
    engine = None
    if params["workers"] > 1:
        # Dispatch layers: the parallel run, wrappers on the coordinator
        # only (forked workers would inherit in-miner wrappers and lose
        # their tallies).
        parallel_plain = mine_once(name, params, trace_path, workdir / "store-pplain", params["workers"])
        engine_tracer = tracing_wrappers.Tracer()
        tracing_wrappers.install_engine(engine_tracer)
        parallel = mine_once(name, params, trace_path, workdir / "store-ptraced", params["workers"])
        engine_tracer.restore()
        reps += [parallel_plain, parallel]
        engine = {"snapshot": engine_tracer.snapshot(), "wall_s": parallel["mine_s"], "stats": parallel["stats"]}
    return {
        "reps": reps,
        "serial": {"snapshot": serial, "wall_s": traced["mine_s"], "plain_s": plain["mine_s"], "stats": traced["stats"]},
        "engine": engine,
        "events": traced["events"],
        "peak_rss_kb": proc_status_kb(os.getpid(), "VmHWM"),
        "pid": os.getpid(),
    }


def child_main() -> int:
    """Import the program, report ready, then mine when told to go."""
    request = json.loads(Path(sys.argv[1]).read_text())
    use_program_sources()
    build_miner(request["workload"], request["params"])
    import repro.engine  # noqa: F401 - everything mine_once touches, loaded up front
    import repro.ingest.store  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.specs.repository  # noqa: F401

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    parallel = request["params"]["workers"] > 1
    # Set-up ran on the benchmark's CPU; the measured mines run on the program's.
    pin(0, program_cpus(parallel=parallel))
    calibrator = Calibrator(program_cpus(parallel=True) if parallel else None).start()
    outcome = child_trace(request) if request["trace"] else child_measure(request)
    outcome["calibration"] = calibrator.stop()
    Path(request["result_path"]).write_text(json.dumps(outcome))
    return 0


# --------------------------------------------------------------------- #
# Harness side
# --------------------------------------------------------------------- #
def generate(name: str, seed: int, params: Dict):
    import gen

    if name == "mine-loops":
        return gen.loops_traces(seed, params["generator"])
    return gen.quest_traces(seed, params["generator"])


def reference_digest(name: str, params: Dict, traces) -> str:
    from repro.core.sequence import SequenceDatabase

    return digest(build_miner(name, params).mine(SequenceDatabase.from_sequences(traces)))


def start_child(request_path: Path, log_path: Path) -> subprocess.Popen:
    """Start the mining process and wait until it has imported the program."""
    with open(log_path, "w") as log:
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "mine.py"), str(request_path)],
            cwd=ROOT, env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log, text=True,
        )
    if child.stdout.readline().strip() != "ready":
        child.kill()
        child.wait()
        raise RuntimeError(f"mining process failed to start: {log_path.read_text()[-2000:]}")
    return child


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, params: Dict) -> Dict:
    """Set up (traces, trace file, mining process) ``setup_repeats`` times,
    mine with the last process, then check every result."""
    import gen

    def attempt(index: int):
        traces = generate(name, seed, params)
        trace_path = workdir / f"input-{index}.jsonl"
        gen.write_jsonl(trace_path, traces)
        request = {
            "workload": name,
            "params": params,
            "trace_path": str(trace_path),
            "workdir": str(workdir),
            "seconds": seconds,
            "trace": trace,
            "result_path": str(workdir / "child.json"),
        }
        request_path = workdir / f"request-{index}.json"
        request_path.write_text(json.dumps(request))
        log_path = workdir / f"child-{index}.log"
        return start_child(request_path, log_path), traces, request, log_path

    def release(built) -> None:
        built[0].communicate("exit\n", timeout=60)

    setup_times, (child, traces, request, log_path) = run_setups(
        params["setup_repeats"], attempt, release
    )
    try:
        child.communicate("go\n", timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"mining process failed: {log_path.read_text()[-2000:]}")
    outcome = json.loads(Path(request["result_path"]).read_text())
    speed = SpeedSamples(outcome["calibration"])
    for rep in outcome["reps"]:
        rep["scale"] = speed.scale(*rep["window"])
        # The coordinator's CPU without the calibration thread's.
        rep["cpu_s"] -= speed.cpu(*rep["window"])

    expected = reference_digest(name, params, traces)
    reps = outcome["reps"]
    failed = sum(1 for rep in reps if rep["digest"] != expected)
    measured = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "setup_s": median(setup_times),
        "info": {"mines": len(reps), "reference_digest": expected[:16], "under_test_pid": outcome["pid"]},
    }
    if trace:
        measured["layers"] = trace_layers(name, outcome)
        return measured
    # Every duration is expressed at the reference CPU speed (common.py).
    times = [rep["mine_s"] * rep["scale"] for rep in reps]
    events, traces_count = reps[0]["events"], reps[0]["traces"]
    mine_s = median(times)
    measured["metrics"] = {
        "latency_p50_ms": mine_s * 1000,
        "latency_p95_ms": percentile(times, 0.95) * 1000,
        "events_per_s": events / mine_s,
        "sessions_per_s": traces_count / mine_s,
        "cpu_us_per_event": median(rep["cpu_s"] * rep["scale"] for rep in reps) / events * 1e6,
        "peak_rss_mb": outcome["peak_rss_kb"] / 1024,
        "report_ms": median(rep["save_s"] * rep["scale"] for rep in reps) * 1000,
        "scrape_p50_ms": median(rep["render_s"] * rep["scale"] for rep in reps) * 1000,
    }
    raw_s = median(rep["mine_s"] for rep in reps)
    measured["raw"] = {
        "events_per_s": events / raw_s,
        "sessions_per_s": traces_count / raw_s,
        "cpu_us_per_event": median(rep["cpu_s"] for rep in reps) / events * 1e6,
    }
    measured["info"].update({
        "speed_scales": [round(rep["scale"], 4) for rep in reps],
        "events": events,
        "traces": traces_count,
    })
    return measured


def trace_layers(name: str, outcome: Dict) -> Dict:
    import tracer as tracing_wrappers

    serial = outcome["serial"]
    engine = outcome["engine"]
    extra = {
        "ingest.events": outcome["events"],
        "consequent.pruned_confidence": serial["stats"]["pruned_confidence"],
        "engine.shipped_bytes": (engine or serial)["stats"]["shipped_bytes"],
        "engine.retries": (engine or serial)["stats"]["retries"],
    }
    values = tracing_wrappers.layer_metrics(serial["snapshot"], extra)
    walls = {"default": serial["wall_s"]}
    if engine is not None:
        dispatch = tracing_wrappers.layer_metrics(engine["snapshot"], {})
        for metric in ("engine.execute_s", "engine.collect_s", "engine.units"):
            values[metric] = dispatch[metric]
        walls["engine.execute_s"] = walls["engine.collect_s"] = engine["wall_s"]
    attributed = sum(
        values[metric] for _, metric in tracing_wrappers.TIMED_LAYERS
        if metric not in ("engine.execute_s", "engine.collect_s") or engine is None
    )
    values["trace.wall_s"] = serial["wall_s"]
    values["trace.unattributed_s"] = max(0.0, serial["wall_s"] - attributed)
    plain_rep, traced_rep = outcome["reps"][0], outcome["reps"][1]
    values["trace.overhead"] = (traced_rep["mine_s"] * traced_rep["scale"]) / (
        plain_rep["mine_s"] * plain_rep["scale"]
    ) - 1
    return {"values": values, "table": tracing_wrappers.render_table(name, values, walls)}


if __name__ == "__main__":
    sys.exit(child_main())
