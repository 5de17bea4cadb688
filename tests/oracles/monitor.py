"""Reference runtime monitor: re-derive every rule's temporal points per trace.

Checks recurrent rules against traces straight from the rule semantics
used by the miners (temporal points + "followed by", Definition 5.1): for
every rule and trace it recomputes the premise's temporal points and
scans the suffix after each for the consequent.  The shipped
:class:`repro.serving.StreamingMonitor` compiles the rules instead and
must report byte-for-byte the same violations, and its per-rule analytics
must count the same points per rule (:meth:`RuleMonitor.rule_counts`
against :func:`analytics_counts`); the parity suites and the serving
benchmark compare it against this monitor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence as TypingSequence, Tuple

from repro.core.events import EventLabel
from repro.core.sequence import SequenceDatabase
from repro.rules.rule import RecurrentRule
from repro.serving.compile import rule_key
from repro.verification.violations import MonitoringReport, violation_fragment
from tests.oracles.temporal_points import is_followed_by, temporal_points_in_sequence

#: ``(opened, satisfied, violated)`` temporal points of one rule.
PointCounts = Tuple[int, int, int]


class RuleMonitor:
    """Checks recurrent rules against traces and collects violations.

    An empty rule set is a valid (if vacuous) specification: every trace
    satisfies it and every report is all zeroes.  A repository that mined
    zero rules must monitor cleanly, not crash.
    """

    def __init__(self, rules: Iterable[RecurrentRule]) -> None:
        self.rules: List[RecurrentRule] = list(rules)
        #: The rule table a report's violation log points into (rule id =
        #: position in :attr:`rules`).
        self.fragments = tuple(violation_fragment(rule) for rule in self.rules)
        #: Rule key -> ``[opened, satisfied, violated]`` summed over every
        #: trace checked so far; rules without points have no entry.
        self.counts: Dict[str, List[int]] = {}

    def check_trace(
        self,
        trace: TypingSequence[EventLabel],
        trace_index: int = 0,
        trace_name: str = None,
    ) -> MonitoringReport:
        """Check every rule against one trace."""
        report = MonitoringReport()
        events = tuple(trace)
        rule_ids: List[int] = []
        positions: List[int] = []
        for rule_id, rule in enumerate(self.rules):
            points = temporal_points_in_sequence(events, rule.premise)
            if not points:
                continue
            counts = self.counts.setdefault(rule_key(rule), [0, 0, 0])
            counts[0] += len(points)
            for position in points:
                report.total_points += 1
                if is_followed_by(events, position, rule.consequent):
                    report.satisfied_points += 1
                    counts[1] += 1
                else:
                    counts[2] += 1
                    rule_ids.append(rule_id)
                    positions.append(position)
        if positions:
            report.log.append_trace(self, trace_index, trace_name, rule_ids, positions)
        return report

    def rule_counts(self) -> Dict[str, PointCounts]:
        """Per-rule point counts over every trace checked so far, by rule key."""
        return {key: tuple(counts) for key, counts in sorted(self.counts.items())}

    def satisfies(self, trace: TypingSequence[EventLabel]) -> bool:
        """Whether the trace satisfies every monitored rule (no violations)."""
        return self.check_trace(trace).violation_count == 0

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


def analytics_counts(
    analytics: Mapping[str, Mapping[str, int]],
) -> Dict[str, PointCounts]:
    """A serving monitor's ``rule_analytics()`` in :meth:`RuleMonitor.rule_counts` form.

    Rules that opened no point are dropped: a monitor tallies every rule a
    trace armed, the oracle only rules with points.
    """
    return {
        key: (row["opened"], row["satisfied"], row["violated"])
        for key, row in sorted(analytics.items())
        if row["opened"]
    }
