"""Runtime monitoring with mined specifications (the verification use case).

Section 1 of the paper motivates specification mining as a way to obtain
properties for automated verification.  This example closes that loop:

1. instrument a small file-handle component with the proxy instrumenter and
   drive it with a passing test suite to collect traces;
2. mine non-redundant recurrent rules from those traces;
3. monitor a *new* set of runs — one of which forgets to close the handle —
   and report the violations the mined rules catch.

Run with:  python examples/runtime_monitoring.py
"""

from repro import StreamingMonitor, mine_non_redundant_rules
from repro.traces import TraceCollector, TestSuiteRunner, instrument


class FileHandle:
    """A toy resource with an open/use/close discipline."""

    def __init__(self) -> None:
        self.is_open = False

    def open(self) -> None:
        self.is_open = True

    def read(self) -> str:
        return "bytes" if self.is_open else ""

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.is_open = False


def _passing_suite() -> "TraceCollector":
    runner = TestSuiteRunner()

    def read_twice(collector, iteration):
        handle = instrument(FileHandle(), collector, class_name="FileHandle")
        handle.open()
        handle.read()
        handle.read()
        handle.close()

    def flush_then_close(collector, iteration):
        handle = instrument(FileHandle(), collector, class_name="FileHandle")
        handle.open()
        handle.read()
        handle.flush()
        handle.close()

    runner.add("read-twice", read_twice, repetitions=3)
    runner.add("flush-then-close", flush_then_close, repetitions=3)
    return runner


def main() -> None:
    print("== collecting traces from the instrumented test suite ==")
    traces = _passing_suite().run()
    for index in range(len(traces)):
        print(f"  {traces.name(index)}: {list(traces[index])}")

    print("\n== mining non-redundant rules (100% confidence) ==")
    rules = mine_non_redundant_rules(traces, min_s_support=6, min_confidence=1.0)
    for rule in rules.sorted_by_confidence():
        print(f"  {rule}")

    print("\n== monitoring new runs ==")
    monitor = StreamingMonitor(rules.rules)
    collector = TraceCollector()
    with collector.trace("good-run"):
        handle = instrument(FileHandle(), collector, class_name="FileHandle")
        handle.open()
        handle.read()
        handle.close()
    with collector.trace("buggy-run (close is missing)"):
        handle = instrument(FileHandle(), collector, class_name="FileHandle")
        handle.open()
        handle.read()
        handle.flush()

    report = monitor.check_database(collector.to_database())
    print(report.summary())
    for violation in report.violations:
        print(f"  VIOLATION: {violation.describe()}")


if __name__ == "__main__":
    main()
