"""Shared helpers of the repository benchmark: paths, statistics, /proc reads."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The checkout root: the benchmark is run as ``python3 perfbench/run.py``
#: from it, and every file it reads or writes lives below it.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for generated inputs, stores and server logs (git-ignored,
#: removed at the end of every run).
WORK_ROOT = ROOT / ".perfbench_work"

#: Workload parameters, pinned rates and the layer -> end-to-end map.
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text())

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def program_env() -> Dict[str, str]:
    """Environment for a child process running the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHASHSEED", None)
    return env


def use_program_sources() -> None:
    """Import the program from the checkout's ``src`` tree, never elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return float(ordered[rank])


def proc_status_kb(pid: int, field: str) -> Optional[int]:
    """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``), or None."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, in seconds (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at state (field 3): utime is
    # field 14 and stime field 15 of the full line.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def host_facts(separate_processes: bool) -> Dict[str, object]:
    return {
        "nproc": len(all_cpus()),
        "python": sys.version.split()[0],
        "separate_processes": separate_processes,
    }


# --------------------------------------------------------------------- #
# CPU placement and host-speed calibration
# --------------------------------------------------------------------- #
# The sandbox's virtual CPUs change speed every few seconds (by up to 2x,
# independently per CPU, with the neighbours' load), which moves every
# CPU-bound timing by tens of percent from run to run.  So the benchmark
# sits on the last CPU, and so does all of set-up; once started, the
# process under test moves to the first CPU (mine-quest: every CPU, for its
# workers).  A Calibrator thread inside each timed process runs a fixed burst of random reads from an 8 kB array every
# period_s.  The array stays in L1, so the burst measures the CPU's speed
# and not the cache the program itself leaves behind: a program change
# that grows its working set slows the program, not the burst.  A time
# measured over a window is reported multiplied by SpeedSamples.scale():
# the reference burst time over the mean burst time in that window, i.e.
# as the time on a CPU at the reference speed.  The thread's own CPU time
# is recorded too, so CPU metrics can leave it out (SpeedSamples.cpu()).
def all_cpus() -> List[int]:
    """Every CPU the benchmark may use (inherited by its children)."""
    cpus = os.environ.get("PERFBENCH_CPUS")
    if not cpus:
        cpus = ",".join(str(cpu) for cpu in sorted(os.sched_getaffinity(0)))
        os.environ["PERFBENCH_CPUS"] = cpus
    return [int(cpu) for cpu in cpus.split(",")]


def program_cpus(parallel: bool = False) -> List[int]:
    cpus = all_cpus()
    return cpus if parallel else cpus[:1]


def bench_cpus() -> List[int]:
    return all_cpus()[-1:]


def pin(pid: int, cpus: List[int]) -> None:
    os.sched_setaffinity(pid, set(cpus))


def pin_process(pid: int, cpus: List[int]) -> None:
    """Pin every thread of a running process (``pin`` moves one thread)."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), set(cpus))
        except ProcessLookupError:
            pass


class Calibrator:
    """A thread timing the calibration burst every ``period_s``.

    Samples are ``(monotonic start, burst seconds, thread CPU seconds so
    far)``; ``time.monotonic`` is system-wide, so windows timed in another
    process line up with them.  With ``cpus``, the thread moves to the next
    of them before each burst, so the samples average over the CPUs
    parallel workers run on.
    """

    def __init__(self, cpus: Optional[List[int]] = None) -> None:
        import random
        import threading
        from array import array

        generator = random.Random(0)
        self._table = array("i", range(1 << 11))
        self._reads = array("i", (generator.randrange(1 << 11) for _ in range(2000)))
        self.samples: List[Tuple[float, float, float]] = []
        self._cpus = cpus or []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="calibrator", daemon=True)

    def _burst(self) -> int:
        table, total, seen = self._table, 0, {}
        for index in self._reads:
            total += table[index]
            seen[index & 1023] = total
        return total

    def _run(self) -> None:
        import threading
        import time

        period = SPEC["calibration"]["period_s"]
        turn = 0
        while not self._stop.wait(period):
            if self._cpus:
                os.sched_setaffinity(threading.get_native_id(), {self._cpus[turn % len(self._cpus)]})
                turn += 1
            started_at = time.monotonic()
            started = time.perf_counter()
            self._burst()
            self.samples.append((started_at, time.perf_counter() - started, time.thread_time()))

    def start(self) -> "Calibrator":
        self._thread.start()
        return self

    def stop(self) -> List[Tuple[float, float, float]]:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.samples


class SpeedSamples:
    """Calibration samples, queried by time window."""

    def __init__(self, samples) -> None:
        ordered = sorted(tuple(sample) for sample in samples)
        self._starts = [at for at, _, _ in ordered]
        self._thread_cpu = [cpu for _, _, cpu in ordered]
        self._prefix = [0.0]
        for _, seconds, _ in ordered:
            self._prefix.append(self._prefix[-1] + seconds)

    def scale(self, start: float, end: float) -> float:
        """Reference burst time / mean burst time in ``[start, end]``.

        Multiply a duration measured in that window by this (divide a rate
        by it).  A window holding fewer than two samples widens to the two
        nearest.
        """
        import bisect

        starts = self._starts
        low, high = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        if high - low < 2:
            middle = bisect.bisect_left(starts, (start + end) / 2)
            low, high = max(0, middle - 1), min(len(starts), middle + 1)
        mean = (self._prefix[high] - self._prefix[low]) / (high - low)
        return SPEC["calibration"]["burst_reference_s"] / mean

    def cpu(self, start: float, end: float) -> float:
        """CPU seconds the calibration thread used in ``[start, end]``, to
        subtract from the process's CPU time over that window."""
        import bisect

        low = bisect.bisect_left(self._starts, start)
        high = bisect.bisect_right(self._starts, end)
        if high <= low:
            return 0.0
        before = self._thread_cpu[low - 1] if low else 0.0
        return self._thread_cpu[high - 1] - before


def run_setups(repeats: int, attempt: Callable, release: Callable) -> Tuple[List[float], object]:
    """Set up ``repeats`` times; return the durations and the last set-up.

    ``attempt(index)`` performs one set-up and returns what it built;
    ``release(built)`` tears down all but the last, outside the timing.
    Set-up runs on the benchmark's CPU, processes it starts included, so a
    calibrator there expresses each duration at the reference speed.
    """
    import time

    calibrator = Calibrator().start()
    windows = []
    built = None
    try:
        for index in range(repeats):
            if built is not None:
                release(built)
            started = time.monotonic()
            built = attempt(index)
            windows.append((started, time.monotonic()))
    finally:
        speed = SpeedSamples(calibrator.stop())
    return [(end - start) * speed.scale(start, end) for start, end in windows], built
