"""Experiment harness: threshold sweeps, comparisons and reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "compare": (
            "HeadlineRatios",
            "closed_result_is_consistent",
            "headline_ratios",
            "nonredundant_result_is_consistent",
        ),
        "experiment": (
            "SweepRow",
            "iterative_pattern_sweep",
            "rule_sweep_vs_confidence",
            "rule_sweep_vs_s_support",
        ),
        "reporting": ("format_series", "format_sweep", "format_table"),
    },
)
