"""Program-trace framework: events, traces, instrumentation, IO, test driving."""

from .event_model import MethodCallEvent, event_label, split_label
from .instrument import InstrumentedProxy, instrument
from .io import read_traces, write_traces
from .testsuite import TestCase, TestSuiteRunner, run_test_suite
from .trace import Trace, TraceCollector, database_to_traces, traces_to_database

__all__ = [
    "MethodCallEvent",
    "event_label",
    "split_label",
    "InstrumentedProxy",
    "instrument",
    "read_traces",
    "write_traces",
    "TestCase",
    "TestSuiteRunner",
    "run_test_suite",
    "Trace",
    "TraceCollector",
    "database_to_traces",
    "traces_to_database",
]
