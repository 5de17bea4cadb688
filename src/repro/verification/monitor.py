"""Runtime monitoring of mined specifications over traces.

Section 1 motivates specification mining with two uses: program
comprehension and *program verification / runtime monitoring*.  This module
provides the second use: given mined recurrent rules (or rules written by
hand), it checks traces for temporal points where a rule's premise completed
but its consequent never followed, and reports them as violations.

Checking agrees by construction with both the rule semantics used by the
miners (temporal points + "followed by") and the LTL translation of
Table 2 — the property tests assert all three views coincide.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence as TypingSequence

from ..core.events import EventLabel
from ..core.sequence import SequenceDatabase
from ..rules.rule import RecurrentRule
from ..rules.temporal_points import is_followed_by, temporal_points_in_sequence
from .violations import MonitoringReport, RuleViolation


class RuleMonitor:
    """Checks recurrent rules against traces and collects violations.

    An empty rule set is a valid (if vacuous) specification: every trace
    satisfies it and every report is all zeroes.  A repository that mined
    zero rules must monitor cleanly, not crash.
    """

    def __init__(self, rules: Iterable[RecurrentRule]) -> None:
        self.rules: List[RecurrentRule] = list(rules)

    # ------------------------------------------------------------------ #
    # Single-trace checks
    # ------------------------------------------------------------------ #
    def check_trace(
        self,
        trace: TypingSequence[EventLabel],
        trace_index: int = 0,
        trace_name: str = None,
    ) -> MonitoringReport:
        """Check every rule against one trace."""
        report = MonitoringReport()
        events = tuple(trace)
        for rule in self.rules:
            points = temporal_points_in_sequence(events, rule.premise)
            if not points:
                continue  # per_rule_points is sparse: no entry for zero points
            key = rule.signature()
            report.per_rule_points[key] = report.per_rule_points.get(key, 0) + len(points)
            for position in points:
                report.total_points += 1
                if is_followed_by(events, position, rule.consequent):
                    report.satisfied_points += 1
                else:
                    report.violations.append(
                        RuleViolation(
                            rule=rule,
                            trace_index=trace_index,
                            position=position,
                            trace_name=trace_name,
                        )
                    )
        return report

    def satisfies(self, trace: TypingSequence[EventLabel]) -> bool:
        """Whether the trace satisfies every monitored rule (no violations)."""
        return self.check_trace(trace).violation_count == 0

    # ------------------------------------------------------------------ #
    # Database checks
    # ------------------------------------------------------------------ #
    def check_database(self, database: SequenceDatabase) -> MonitoringReport:
        """Check every rule against every trace of a database."""
        combined = MonitoringReport()
        for index in range(len(database)):
            combined.merge(
                self.check_trace(database[index], trace_index=index, trace_name=database.name(index))
            )
        return combined


def monitor_database(
    database: SequenceDatabase, rules: Iterable[RecurrentRule]
) -> MonitoringReport:
    """Convenience wrapper: monitor ``rules`` over every trace of ``database``."""
    return RuleMonitor(rules).check_database(database)
