"""The repository benchmark: four seeded workloads across mine and serve.

Run from the repository root::

    python3 perfbench/run.py --workload mine-loops --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with timing wrappers installed from
outside the program and reports the per-layer metrics plus a "where the
time went" table.  Every run checks the program's outputs (outside the
timed phase) and prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` carry the error rate: mined results checked and
wrong, or wire requests sent and answered with anything but the expected
reply.  ``--tiny`` shrinks every workload for the self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, SPEC, SRC, WORK_ROOT, bench_cpus, host_facts, pin, use_program_sources


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (self-check)")
    return parser.parse_args(argv)


def workload_params(name: str, tiny: bool) -> dict:
    params = dict(SPEC["workloads"][name])
    if tiny:
        for key, value in params.pop("tiny", {}).items():
            params[key] = {**params[key], **value} if isinstance(value, dict) else value
    params.pop("tiny", None)
    return params


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, exactly as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer"] if trace else declared["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    use_program_sources()
    pin(0, bench_cpus())
    params = workload_params(args.workload, args.tiny)
    units = declared_metrics(bool(args.trace))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if params["kind"] == "mine":
            import mine as workload
        else:
            import serve as workload
        measured = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, params
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    separate = measured["info"].pop("under_test_pid") != os.getpid()
    print("host: " + json.dumps(host_facts(separate_processes=separate)))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("info: " + json.dumps(measured["info"], sort_keys=True))
    if args.trace:
        print(measured["layers"]["table"])
        values = dict(measured["layers"]["values"])
    else:
        values = dict(measured.get("metrics", {}))
        values["setup_s"] = measured["setup_s"]
    attempted, failed = measured["attempted"], measured["failed"]
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.6f}")
    correct = measured["correct"]
    metrics = {}
    if correct:
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"workload emitted no value for {missing}")
        for name, unit in units.items():
            metrics[name] = {"value": float(values[name]), "unit": unit}
            print(f"metric {name} = {values[name]:.6g} {unit}")
        for name in sorted(set(values) - set(units)):
            if not args.trace:
                print(f"also {name} = {values[name]:.6g} ms (not gated: see perfbench/README.md)")
        for name, value in sorted(measured.get("raw", {}).items()):
            print(f"raw {name} = {value:.6g} {units[name]} (as measured, not scaled to the reference speed)")
    else:
        print("output check FAILED or run invalid: no timings reported")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
