"""Program-trace framework: events, traces, instrumentation, IO, test driving."""

from .._lazy import lazy_exports

# ``instrument`` names both a submodule and the function it defines.  A lazy
# export would be shadowed by the submodule as soon as anything imported
# ``repro.traces.instrument``, so the function is bound at once.
from .instrument import instrument  # noqa: F401 - re-exported

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "event_model": ("MethodCallEvent", "event_label", "split_label"),
        "instrument": ("InstrumentedProxy",),
        "io": ("read_traces", "write_traces"),
        "testsuite": ("TestCase", "TestSuiteRunner", "run_test_suite"),
        "trace": ("Trace", "TraceCollector", "database_to_traces", "traces_to_database"),
    },
)
__all__ += ["instrument"]
