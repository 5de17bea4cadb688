#!/usr/bin/env python3
"""Summarise a span-trace JSONL file (the ``--trace-out`` output).

Every mining/serving command accepts ``--trace-out FILE``; the collector
appends one JSON object per finished span::

    {"name": "engine.unit", "ts": ..., "dur": 0.0123, "pid": 4711,
     "attrs": {"kind": "grow", "root": 12}}

This tool reads one or more such files and prints, per span name, the
count and the total / mean / p95 / max duration — a quick answer to
"where did the run's wall-clock go" without loading the file into a
notebook.  Durations of nested spans overlap (a ``daemon.refresh`` runs
inside its ``daemon.cycle``), so the per-name totals are not additive
across names.

Usage::

    python tools/trace_summary.py trace.jsonl [more.jsonl ...]

Stdlib only; exits 2 on an unreadable file, 0 otherwise (a file with no
valid span lines prints an empty table).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def load_spans(paths: List[str]) -> List[dict]:
    """Read span entries, skipping torn or foreign lines.

    A crash mid-write can tear the last line — possibly inside a multibyte
    UTF-8 sequence; a span file is diagnostics, so a bad line is skipped
    silently (and torn bytes replaced) rather than failing the summary.
    An empty file is an empty summary, not an error.
    """
    spans: List[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (
                    isinstance(entry, dict)
                    and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("dur"), (int, float))
                ):
                    spans.append(entry)
    return spans


def percentile(durations: List[float], fraction: float) -> float:
    """Nearest-rank percentile over a sorted list."""
    if not durations:
        return 0.0
    rank = max(0, min(len(durations) - 1, int(round(fraction * (len(durations) - 1)))))
    return durations[rank]


def summarise(spans: List[dict]) -> List[dict]:
    by_name: Dict[str, List[float]] = {}
    for entry in spans:
        by_name.setdefault(entry["name"], []).append(float(entry["dur"]))
    rows = []
    for name in sorted(by_name, key=lambda key: -sum(by_name[key])):
        durations = sorted(by_name[name])
        total = sum(durations)
        rows.append(
            {
                "name": name,
                "count": len(durations),
                "total": total,
                "mean": total / len(durations),
                "p95": percentile(durations, 0.95),
                "max": durations[-1],
            }
        )
    return rows


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: trace_summary.py TRACE.jsonl [more.jsonl ...]", file=sys.stderr)
        return 2
    try:
        spans = load_spans(argv)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = summarise(spans)
    header = f"{'span':<28} {'count':>7} {'total_s':>9} {'mean_s':>9} {'p95_s':>9} {'max_s':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['name']:<28} {row['count']:>7} {row['total']:>9.4f} "
            f"{row['mean']:>9.4f} {row['p95']:>9.4f} {row['max']:>9.4f}"
        )
    print(f"{len(spans)} spans, {len(rows)} distinct names")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
