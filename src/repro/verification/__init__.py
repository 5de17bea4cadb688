"""Monitoring reports and coverage analysis of mined specifications.

The runtime monitor itself is :class:`repro.serving.StreamingMonitor`;
this package holds the report types it emits and the coverage analysis.
"""

from .coverage import CoverageReport, coverage_of, specification_events
from .violations import MonitoringReport, RuleViolation

__all__ = [
    "CoverageReport",
    "coverage_of",
    "specification_events",
    "MonitoringReport",
    "RuleViolation",
]
