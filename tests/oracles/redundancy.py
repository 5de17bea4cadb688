"""Reference Definition 5.2 redundancy filter: compare every pair in a class.

:func:`repro.rules.redundancy.filter_redundant` sweeps each statistics
class once, maximal rules first, and tests a rule only against the
survivors so far.  This module keeps the direct reading of the definition:
a rule is redundant when *any* rule of its class makes it redundant
(:meth:`~repro.rules.rule.RecurrentRule.is_redundant_with_respect_to`),
found by comparing every pair of decoded rules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.rules.redundancy import StatisticsKey, statistics_key
from repro.rules.rule import RecurrentRule


def find_redundant(rules: Iterable[RecurrentRule]) -> List[RecurrentRule]:
    """Return the rules that are redundant with respect to the given collection."""
    rules = list(rules)
    by_statistics: Dict[StatisticsKey, List[RecurrentRule]] = {}
    for rule in rules:
        by_statistics.setdefault(statistics_key(rule), []).append(rule)

    redundant: List[RecurrentRule] = []
    for rule in rules:
        candidates = by_statistics.get(statistics_key(rule), [])
        if any(rule.is_redundant_with_respect_to(other) for other in candidates):
            redundant.append(rule)
    return redundant


def filter_redundant(
    rules: Iterable[RecurrentRule],
) -> Tuple[List[RecurrentRule], List[RecurrentRule]]:
    """Split rules into ``(non_redundant, redundant)``, both in input order."""
    rules = list(rules)
    redundant_signatures = {rule.signature() for rule in find_redundant(rules)}
    kept: List[RecurrentRule] = []
    dropped: List[RecurrentRule] = []
    for rule in rules:
        if rule.signature() in redundant_signatures:
            dropped.append(rule)
        else:
            kept.append(rule)
    return kept, dropped
