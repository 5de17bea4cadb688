"""Violation records produced by runtime monitoring."""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..rules.rule import RecurrentRule


@dataclass(frozen=True, slots=True)
class RuleViolation:
    """One unsatisfied temporal point of a monitored rule.

    The rule's premise completed at ``position`` of trace ``trace_index``
    (named ``trace_name`` when available) but the consequent never occurred
    in the remainder of the trace.

    A monitor does not keep these: it logs each violating point as two
    ints in a :class:`ViolationLog`, and a report builds the records from
    the log only when :attr:`MonitoringReport.violations` is read.
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


def violation_fragment(rule: RecurrentRule) -> bytes:
    """The JSON text every :meth:`RuleViolation.as_dict` of ``rule`` opens
    with, up to the trace index: ``{"premise":[…],"consequent":[…],"trace_index":``.

    Encoded with the push protocol's frame settings (compact separators,
    ASCII escapes), so :meth:`ViolationLog.encode_json` writes the bytes
    ``json.dumps`` of the records would.
    """
    head = json.dumps(
        {"premise": list(rule.premise), "consequent": list(rule.consequent)},
        separators=(",", ":"),
    )
    return head[:-1].encode("utf-8") + b',"trace_index":'


class RuleTable:  # pragma: no cover - typing helper only
    """Duck type for the rule set a trace was monitored under
    (:class:`~repro.serving.compile.CompiledRuleSet`): rule id -> rule,
    and rule id -> :func:`violation_fragment`."""

    rules: Sequence[RecurrentRule]
    fragments: Sequence[bytes]


#: One logged trace: ``(trace index, trace name, rule table, start, end)``;
#: its violations are the log's ints at ``start:end``.
LoggedTrace = Tuple[int, Optional[str], RuleTable, int, int]


class ViolationLog:
    """Violations as plain ints: a rule id and a position per violation.

    What a violation shares with the rest of its trace — the trace index,
    its name and the rule table the ids point into — is stored once per
    trace, so a retained violation costs 12 bytes (a 4-byte rule id and an
    8-byte position in two arrays).  Rule ids are local to the rule table,
    so traces monitored under different compile generations can share one
    log.  The log turns back into records (:meth:`violations`) or straight
    into wire JSON (:meth:`encode_json`) only when asked.
    """

    __slots__ = ("traces", "rule_ids", "positions")

    def __init__(self) -> None:
        self.traces: List[LoggedTrace] = []
        self.rule_ids = array("i")
        self.positions = array("q")

    def __len__(self) -> int:
        return len(self.positions)

    def __eq__(self, other: object) -> bool:
        """Logs are equal when their records are (reports compare by value)."""
        return isinstance(other, ViolationLog) and self.violations() == other.violations()

    def append_trace(
        self,
        rules: RuleTable,
        trace_index: int,
        trace_name: Optional[str],
        rule_ids: Iterable[int],
        positions: Iterable[int],
    ) -> None:
        """Log one trace's violations (``rule_ids`` and ``positions`` pair up)."""
        start = len(self.positions)
        self.rule_ids.extend(rule_ids)
        self.positions.extend(positions)
        self.traces.append((trace_index, trace_name, rules, start, len(self.positions)))

    def extend(self, other: "ViolationLog") -> None:
        """Append every trace of ``other``, in its order."""
        offset = len(self.positions)
        self.rule_ids += other.rule_ids
        self.positions += other.positions
        self.traces += [
            (index, name, rules, start + offset, end + offset)
            for index, name, rules, start, end in other.traces
        ]

    def copy(self) -> "ViolationLog":
        """An independent log with the same traces."""
        duplicate = ViolationLog()
        duplicate.extend(self)
        return duplicate

    @classmethod
    def in_trace_order(cls, logs: Iterable["ViolationLog"]) -> "ViolationLog":
        """One log holding every trace of ``logs``, by ascending trace index."""
        merged = cls()
        entries = sorted(
            ((trace, log) for log in logs for trace in log.traces),
            key=lambda entry: entry[0][0],
        )
        for (index, name, rules, start, end), log in entries:
            merged.append_trace(
                rules, index, name, log.rule_ids[start:end], log.positions[start:end]
            )
        return merged

    def violations(self) -> List[RuleViolation]:
        """The logged violations as records, in log order."""
        rule_ids, positions = self.rule_ids, self.positions
        return [
            RuleViolation(rules.rules[rule_ids[at]], index, positions[at], name)
            for index, name, rules, start, end in self.traces
            for at in range(start, end)
        ]

    def encode_json(self, out: bytearray, limit: Optional[int] = None) -> None:
        """Append the JSON array of the first ``limit`` (default: all)
        violations' :meth:`RuleViolation.as_dict` to ``out``.

        The bytes equal the push protocol's ``json.dumps`` of that list:
        each rule's :func:`violation_fragment` was encoded once, and each
        trace's name once here, so a violation costs one ``%`` format.
        """
        remaining = len(self) if limit is None else limit
        out += b"["
        rule_ids, positions = self.rule_ids, self.positions
        for index, name, rules, start, end in self.traces:
            if remaining <= 0:
                break
            end = min(end, start + remaining)
            remaining -= end - start
            fragments = rules.fragments
            head = b'%d,"position":' % index
            tail = b',"trace_name":%b},' % json.dumps(name).encode("utf-8")
            for rule_id, position in zip(rule_ids[start:end], positions[start:end]):
                out += b"%b%b%d%b" % (fragments[rule_id], head, position, tail)
        if out[-1] == ord(","):
            out[-1] = ord("]")
        else:
            out += b"]"


@dataclass
class MonitoringReport:
    """Aggregated outcome of monitoring a set of rules over a trace database.

    The violations live in :attr:`log`; :attr:`violations` builds their
    records on each read.  Per-rule counts are not kept here: a serving
    monitor tallies them per rule key
    (:class:`~repro.serving.stream_monitor.RuleTally`, the ``ANALYTICS``
    verb and the ``repro_rule_*`` metrics).
    """

    total_points: int = 0
    satisfied_points: int = 0
    log: ViolationLog = field(default_factory=ViolationLog)

    @property
    def violations(self) -> List[RuleViolation]:
        """The violating temporal points, in monitor order (a new list)."""
        return self.log.violations()

    @property
    def violation_count(self) -> int:
        """Number of violating temporal points."""
        return len(self.log)

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
        self.log.extend(other.log)
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
