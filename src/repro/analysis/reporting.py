"""Plain-text table formatting for experiment results.

The benchmark harness prints, for every figure of the paper, the same series
the figure plots (threshold on the x-axis, runtime and result counts for the
baseline and the proposed miner).  The formatters here keep that output
consistent across benchmarks, examples and the CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence as TypingSequence

if TYPE_CHECKING:  # the sweeps import every miner; table formatting needs none
    from .experiment import SweepRow


def format_table(rows: TypingSequence[Dict[str, object]], columns: TypingSequence[str] = None) -> str:
    """Render dictionaries as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render_value(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    table: List[List[str]] = [[str(column) for column in columns]]
    for row in rows:
        table.append([render_value(row.get(column, "")) for column in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = []
    for line_index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if line_index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    return "\n".join(lines)


def format_sweep(
    rows: TypingSequence[SweepRow],
    baseline_label: str = "Full",
    proposed_label: str = "Proposed",
) -> str:
    """Render a Figure 1/2/3 style sweep as a table with friendly column names."""
    if not rows:
        return "(no sweep rows)"
    threshold_name = rows[0].threshold_name
    friendly_rows: List[Dict[str, object]] = []
    for row in rows:
        friendly_rows.append(
            {
                threshold_name: row.threshold,
                f"{baseline_label} runtime (s)": row.baseline_runtime,
                f"{proposed_label} runtime (s)": row.proposed_runtime,
                f"{baseline_label} results": row.baseline_count,
                f"{proposed_label} results": row.proposed_count,
                "runtime ratio": row.runtime_ratio,
                "count ratio": row.count_ratio,
            }
        )
    return format_table(friendly_rows)


def format_series(rows: TypingSequence[SweepRow]) -> Dict[str, List[float]]:
    """The sweep as plottable series (x values plus the four y series of a figure)."""
    return {
        "x": [row.threshold for row in rows],
        "baseline_runtime": [row.baseline_runtime for row in rows],
        "proposed_runtime": [row.proposed_runtime for row in rows],
        "baseline_count": [float(row.baseline_count) for row in rows],
        "proposed_count": [float(row.proposed_count) for row in rows],
    }
