"""Violation records produced by runtime monitoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rules.rule import RecurrentRule


@dataclass(frozen=True, slots=True)
class RuleViolation:
    """One unsatisfied temporal point of a monitored rule.

    The rule's premise completed at ``position`` of trace ``trace_index``
    (named ``trace_name`` when available) but the consequent never occurred
    in the remainder of the trace.

    Slotted: a serving process creates one per violating point at session
    close and the monitor pool keeps them until ``REPORT``, so the record
    is kept to one small allocation with no per-instance dict.
    """

    rule: RecurrentRule
    trace_index: int
    position: int
    trace_name: Optional[str] = None

    def describe(self) -> str:
        """A one-line human-readable description of the violation."""
        where = self.trace_name if self.trace_name else f"trace {self.trace_index}"
        return (
            f"{where}@{self.position}: premise {self.rule.premise} completed "
            f"but consequent {self.rule.consequent} never followed"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (what the push server puts on the wire)."""
        return {
            "premise": list(self.rule.premise),
            "consequent": list(self.rule.consequent),
            "trace_index": self.trace_index,
            "position": self.position,
            "trace_name": self.trace_name,
        }


@dataclass
class MonitoringReport:
    """Aggregated outcome of monitoring a set of rules over a trace database.

    Per-rule counts are not kept here: a serving monitor tallies them per
    rule key (:class:`~repro.serving.stream_monitor.RuleTally`, the
    ``ANALYTICS`` verb and the ``repro_rule_*`` metrics).
    """

    total_points: int = 0
    satisfied_points: int = 0
    violations: List[RuleViolation] = field(default_factory=list)

    @property
    def violation_count(self) -> int:
        """Number of violating temporal points."""
        return len(self.violations)

    @property
    def satisfaction_rate(self) -> float:
        """Fraction of monitored temporal points that were satisfied (1.0 if none)."""
        if self.total_points == 0:
            return 1.0
        return self.satisfied_points / self.total_points

    def merge(self, other: "MonitoringReport") -> "MonitoringReport":
        """Fold another report into this one (returns ``self`` for chaining).

        Point counts add up and violations append in order — the
        aggregation both the streaming monitor's database check and its
        cumulative report use.
        """
        self.merge_counts(other)
        self.violations.extend(other.violations)
        return self

    def merge_counts(self, other: "MonitoringReport") -> "MonitoringReport":
        """Fold another report's point counts, not its violations (returns
        ``self``).

        Counts commute, so callers may fold them in any order and keep only
        the violations in a canonical order — the monitor pool does this to
        keep memory proportional to violations, not to sessions served.
        """
        self.total_points += other.total_points
        self.satisfied_points += other.satisfied_points
        return self

    def violations_of(self, rule: RecurrentRule) -> List[RuleViolation]:
        """All recorded violations of one rule."""
        return [violation for violation in self.violations if violation.rule == rule]

    def violated_rules(self) -> List[RecurrentRule]:
        """The distinct rules with at least one violation."""
        seen = []
        for violation in self.violations:
            if violation.rule not in seen:
                seen.append(violation.rule)
        return seen

    def summary(self) -> str:
        """A short multi-line summary suitable for CLI output."""
        lines = [
            f"monitored temporal points : {self.total_points}",
            f"satisfied                 : {self.satisfied_points}",
            f"violations                : {self.violation_count}",
            f"satisfaction rate         : {self.satisfaction_rate:.3f}",
        ]
        return "\n".join(lines)
