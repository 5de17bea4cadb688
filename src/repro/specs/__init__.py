"""Specification model: charts, rendering, ranking and storage of mined specs."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "chart": ("ChartMessage", "SequenceChart", "chart_from_pattern"),
        "ranking": ("pattern_score", "rank_patterns", "rank_rules", "rule_score"),
        "render": ("render_chart", "render_pattern_blocks", "render_rule"),
        "repository": ("SpecificationRepository",),
    },
)
