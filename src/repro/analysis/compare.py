"""Comparisons between baseline and proposed result sets.

Two kinds of comparison back the paper's claims:

* *aggregate* — the headline "up to N× fewer results / less runtime" numbers
  quoted in Section 6, computed from a sweep (:func:`headline_ratios`);
* *semantic* — the closed / non-redundant result must be a lossless summary
  of the full result: every full pattern is a sub-pattern of some closed
  pattern with the same support, and every significant rule is either
  non-redundant or made redundant by a kept rule.  These checks are used by
  the integration tests and available to users as sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence as TypingSequence

from ..core.pattern import is_subsequence
from ..patterns.result import PatternMiningResult
from ..rules.redundancy import StatisticsKey, statistics_key
from ..rules.result import RuleMiningResult
from ..rules.rule import RecurrentRule
from .experiment import SweepRow


@dataclass(frozen=True)
class HeadlineRatios:
    """The best-case runtime and result-count reductions across a sweep."""

    max_runtime_ratio: float
    max_count_ratio: float
    at_threshold_runtime: float
    at_threshold_count: float

    def describe(self, what: str = "results") -> str:
        """The Section 6 style sentence for these ratios."""
        return (
            f"up to {self.max_runtime_ratio:.1f}x less runtime and "
            f"{self.max_count_ratio:.1f}x fewer {what}"
        )


def headline_ratios(rows: TypingSequence[SweepRow]) -> HeadlineRatios:
    """Compute the paper's "up to N times less" numbers from sweep rows."""
    if not rows:
        return HeadlineRatios(1.0, 1.0, 0.0, 0.0)
    best_runtime = max(rows, key=lambda row: row.runtime_ratio)
    best_count = max(rows, key=lambda row: row.count_ratio)
    return HeadlineRatios(
        max_runtime_ratio=best_runtime.runtime_ratio,
        max_count_ratio=best_count.count_ratio,
        at_threshold_runtime=best_runtime.threshold,
        at_threshold_count=best_count.threshold,
    )


def closed_result_is_consistent(
    full: PatternMiningResult, closed: PatternMiningResult
) -> List[str]:
    """Consistency problems between a full and a closed pattern result (empty = OK).

    Checks: the closed set is a subset of the full set with identical
    supports, and every full pattern has a closed super-pattern with support
    at least as large (the summary property that makes the closed set
    lossless for support queries along extensions).
    """
    problems: List[str] = []
    full_supports = {pattern.events: pattern.support for pattern in full.patterns}
    for pattern in closed.patterns:
        if pattern.events not in full_supports:
            problems.append(f"closed pattern {pattern.events} missing from the full set")
        elif full_supports[pattern.events] != pattern.support:
            problems.append(
                f"support mismatch for {pattern.events}: "
                f"closed={pattern.support} full={full_supports[pattern.events]}"
            )
    for pattern in full.patterns:
        has_cover = any(
            is_subsequence(pattern.events, closed_pattern.events)
            and closed_pattern.support >= pattern.support
            for closed_pattern in closed.patterns
        )
        if not has_cover:
            problems.append(f"full pattern {pattern.events} has no covering closed pattern")
    return problems


def nonredundant_result_is_consistent(
    full: RuleMiningResult, non_redundant: RuleMiningResult
) -> List[str]:
    """Consistency problems between a full and a non-redundant rule result (empty = OK)."""
    problems: List[str] = []
    full_signatures = {rule.signature(): rule for rule in full.rules}
    for rule in non_redundant.rules:
        if rule.signature() not in full_signatures:
            problems.append(f"non-redundant rule {rule.signature()} missing from the full set")
    kept_signatures = {rule.signature() for rule in non_redundant.rules}
    # Only a rule with the same statistics can make another redundant.
    kept_by_class: Dict[StatisticsKey, List[RecurrentRule]] = {}
    for kept_rule in non_redundant.rules:
        kept_by_class.setdefault(statistics_key(kept_rule), []).append(kept_rule)
    for rule in full.rules:
        if rule.signature() in kept_signatures:
            continue
        covered = any(
            rule.is_redundant_with_respect_to(kept_rule)
            for kept_rule in kept_by_class.get(statistics_key(rule), ())
        )
        if not covered:
            problems.append(
                f"significant rule {rule.signature()} is neither kept nor covered by a kept rule"
            )
    return problems
