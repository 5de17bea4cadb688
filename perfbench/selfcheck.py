"""Fast self-check of the benchmark at tiny size (about a minute).

Run from the repository root::

    python3 perfbench/selfcheck.py

For every workload, in both modes, it runs ``run.py --tiny`` and asserts
that the result line is well formed, that every metric ``BENCHMARK.json``
names is emitted with its declared unit, that no request or mine failed,
and that the output checks ran (mining: the reference digest; serving: the
REPORT byte-identity and counter checks).  Last, it checks that the
benchmark fails cleanly, without a result line, in a directory holding
only ``BENCHMARK.json`` and the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, SPEC, WORK_ROOT


def run(arguments, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py")] + arguments,
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def check_workload(name: str, trace: int, declared: dict) -> None:
    completed = run(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"])
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, completed.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    section = declared["per_layer"] if trace else declared["end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in section}
    emitted = {key: value["unit"] for key, value in result["metrics"].items()}
    assert emitted == expected, sorted(set(expected) ^ set(emitted))
    info = json.loads(next(line for line in lines if line.startswith("info: "))[len("info: "):])
    if SPEC["workloads"][name]["kind"] == "mine":
        assert info["reference_digest"], "mining output check did not run"
    else:
        assert info["checks"] and all(
            check["report_identical"] and check["counts_match"] for check in info["checks"]
        ), "serving output check did not run"
    if trace:
        assert any(line.startswith("where the time went:") for line in lines)
    print(f"ok  {name} trace={trace}: {len(emitted)} metrics, attempted {result['attempted']}")


def check_without_program() -> None:
    """In a directory with only BENCHMARK.json and perfbench/, fail cleanly."""
    bare = WORK_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mine-loops", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
    print("ok  without the program: exit", completed.returncode, "and no result line")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in declared["workloads"]:
        for trace in (0, 1):
            check_workload(entry["name"], trace, declared)
    check_without_program()
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
