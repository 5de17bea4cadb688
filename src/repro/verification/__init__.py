"""Monitoring reports and coverage analysis of mined specifications.

The runtime monitor itself is :class:`repro.serving.StreamingMonitor`;
this package holds the report types it emits and the coverage analysis.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "coverage": ("CoverageReport", "coverage_of", "specification_events"),
        "violations": ("MonitoringReport", "RuleViolation"),
    },
)
