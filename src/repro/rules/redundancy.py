"""Rule redundancy filtering (Definition 5.2, Step 5).

A rule ``RX`` is redundant when some other rule ``RY`` has the same
s-support, i-support and confidence and the concatenation
``premise ++ consequent`` of ``RX`` is a subsequence of that of ``RY``
(with the tie broken towards the rule with the *shorter premise* when the
concatenations coincide).

Within one statistics class "redundant with respect to" is a strict
partial order: ``RX < RY`` when the concatenation of ``RX`` is a proper
subsequence of that of ``RY``, or the two concatenations are equal and
``RX`` has the longer premise.  Both cases are irreflexive and compose
transitively, so the redundant rules of a class are exactly its
non-maximal elements, and every one of them lies below some maximal one.
Sorting a class longest concatenation first (ties: shorter premise first)
lists every rule after all the rules above it, so one sweep that tests
each rule only against the class's survivors so far drops exactly the
redundant ones.  The cost is proportional to the class size times the
number of survivors, not to the square of the class size.

The same order argument makes the filter hold against the set of emitted
rules even when intermediate dominating rules were suppressed early by
the miner.  The sweep reads only ``premise``, ``consequent`` and the three
statistics, so it runs unchanged on encoded rule records and on decoded
:class:`~repro.rules.rule.RecurrentRule` values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..core.pattern import is_subsequence

StatisticsKey = Tuple[int, int, float]


def statistics_key(rule: Any) -> StatisticsKey:
    """The ``(s-support, i-support, confidence)`` class a rule belongs to."""
    return (rule.s_support, rule.i_support, round(rule.confidence, 12))


def filter_redundant(rules: Sequence[Any]) -> Tuple[List[Any], List[Any]]:
    """Split rules into ``(non_redundant, redundant)`` per Definition 5.2.

    Both lists keep the input order.  Only rules with identical statistics
    can make each other redundant, so each statistics class is swept on its
    own, maximal rules first (see the module docstring).
    """
    classes: Dict[StatisticsKey, List[int]] = {}
    for position, rule in enumerate(rules):
        classes.setdefault(statistics_key(rule), []).append(position)
    concatenations = [tuple(rule.premise) + tuple(rule.consequent) for rule in rules]
    premise_lengths = [len(rule.premise) for rule in rules]

    redundant = set()
    for members in classes.values():
        members.sort(
            key=lambda position: (-len(concatenations[position]), premise_lengths[position])
        )
        survivors: List[Tuple[tuple, int]] = []
        for position in members:
            own, own_premise = concatenations[position], premise_lengths[position]
            if any(
                own_premise > premise
                if own == other
                else len(own) < len(other) and is_subsequence(own, other)
                for other, premise in survivors
            ):
                redundant.add(position)
            else:
                survivors.append((own, own_premise))

    kept = [rule for position, rule in enumerate(rules) if position not in redundant]
    dropped = [rule for position, rule in enumerate(rules) if position in redundant]
    return kept, dropped
