"""Compiling mined rules into a shared serving automaton.

Checking rules straight from their semantics re-derives the temporal
points of every rule from scratch for every trace: checking ``R`` rules
over a length-``n`` trace costs ``O(R * n)`` full scans plus one
``O(n)`` suffix re-scan per temporal point.  That is fine for a batch audit
and hopeless for serving a stream.  This module compiles a rule set *once*
into a :class:`CompiledRuleSet` whose per-trace state advances one event at
a time, so the streaming monitor pays amortized ``O(active states)`` per
event — independent of how long the trace has already run.

Three compiled structures, mirroring the two halves of the temporal-points
semantics (Definition 5.1):

* **a shared premise trie** over the encoded premise *prefixes*
  (``premise[:-1]``) of every rule, sharing common prefixes across rules
  the way an Aho–Corasick keyword trie shares them.  Because temporal
  points use the greedy (earliest) *subsequence* embedding rather than a
  contiguous substring match, the classic failure links degenerate — a
  mismatching event simply leaves every state where it is, so the failure
  function is the identity.  What replaces the failure links is the
  *watch index* the per-trace state keeps (symbol → trie nodes waiting on
  that symbol): a reached node registers its children once, each node is
  activated at most once per trace, and every event's work is exactly the
  states it actually advances.  A rule whose premise prefix completes at
  its trie node is *armed* from that position on;
* **per-rule point openers**: an armed rule opens one temporal point at
  every later occurrence of its premise's last event (``last(P)`` strictly
  after the prefix embedding end — the characterisation of
  :func:`~repro.rules.temporal_points.temporal_points_in_sequence`);
* **per-rule consequent trackers**: templates for the greedy subsequence
  match of the consequent over the suffix after each temporal point,
  compiled as symbol → descending matched-stage moves so one event advances
  every pending point of a rule in one list splice.

The compiled artifact is immutable and shared: any number of concurrent
:class:`~repro.serving.stream_monitor.StreamingMonitor` sessions can serve
from one :class:`CompiledRuleSet`.  A rule-set change never mutates a
compiled set — it compiles a new one and swaps the reference.  The watch
daemon swaps its serving automaton this way on every re-mine, and the
:class:`~repro.serving.pool.MonitorPool` numbers the swaps with a
*generation* counter: each session is pinned to the compiled set current
at its admission, so in-flight sessions finish on their generation while
new sessions pick up the swap (``docs/serving.md`` documents the
contract).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.events import EventLabel
from ..rules.rule import RecurrentRule

#: A compiled symbol id (dense, local to one compiled rule set).
Symbol = int
#: A premise-trie node id (0 is the root).
NodeId = int

#: Anything :func:`compile_rules` accepts: an iterable of rules or a
#: repository-like object exposing a ``rules`` attribute.
RuleSource = Union[Iterable[RecurrentRule], "SpecificationRepositoryLike"]


class SpecificationRepositoryLike:  # pragma: no cover - typing helper only
    """Duck type for :class:`~repro.specs.repository.SpecificationRepository`."""

    rules: List[RecurrentRule]


def rule_key(rule: RecurrentRule) -> str:
    """The stable string id the analytics layer keys rules by.

    Shape only — ``"open -> use, close"`` — never the mined statistics:
    the same rule re-mined at a new support must keep accumulating under
    one key, and the key must survive JSON framing (the ``ANALYTICS``
    verb) and Prometheus label quoting unchanged.
    """
    return f"{', '.join(rule.premise)} -> {', '.join(rule.consequent)}"


class CompiledRuleSet:
    """An immutable rule set compiled for one-event-at-a-time serving.

    Build one with :func:`compile_rules`; drive it with
    :class:`~repro.serving.stream_monitor.StreamingMonitor`.  The instance
    only holds static tables — all mutable matching state lives in the
    monitor's per-trace runs, so a single compiled set is safely shared
    across concurrent monitoring sessions and hot-swapped under them.
    """

    __slots__ = (
        "rules",
        "symbol_of",
        "children",
        "arm_at_node",
        "root_armed",
        "last_symbol",
        "consequents",
        "consequent_moves",
        "signatures",
        "keys",
    )

    def __init__(
        self,
        rules: Tuple[RecurrentRule, ...],
        symbol_of: Dict[EventLabel, Symbol],
        children: Tuple[Dict[Symbol, NodeId], ...],
        arm_at_node: Tuple[Tuple[int, ...], ...],
        last_symbol: Tuple[Symbol, ...],
        consequents: Tuple[Tuple[Symbol, ...], ...],
        consequent_moves: Tuple[Dict[Symbol, Tuple[int, ...]], ...],
    ) -> None:
        #: The monitored rules, in monitor order (violation reports follow it).
        self.rules = rules
        #: Event label -> dense symbol id; labels outside every rule are absent
        #: and skipped by the monitor in O(1).
        self.symbol_of = symbol_of
        #: Premise-prefix trie: node id -> {symbol: child node id}; node 0 is
        #: the root (the empty prefix).
        self.children = children
        #: Node id -> rule ids whose premise prefix ends exactly there (they
        #: arm the moment the node is reached).
        self.arm_at_node = arm_at_node
        #: Rule ids armed from the start of every trace (premise length 1).
        self.root_armed = arm_at_node[0]
        #: Rule id -> symbol of ``last(premise)`` (the point-opening event).
        self.last_symbol = last_symbol
        #: Rule id -> encoded consequent.
        self.consequents = consequents
        #: Rule id -> {symbol: descending matched-stage indices it advances}.
        self.consequent_moves = consequent_moves
        #: Rule id -> ``rule.signature()``, the report's per-rule point key.
        self.signatures = tuple(rule.signature() for rule in rules)
        #: Rule id -> :func:`rule_key`, the analytics key.
        self.keys = tuple(rule_key(rule) for rule in rules)

    def __len__(self) -> int:
        return len(self.rules)

    def describe(self) -> Dict[str, int]:
        """Compile statistics: how much structure the rules actually share."""
        prefix_events = sum(len(rule.premise) - 1 for rule in self.rules)
        return {
            "rules": len(self.rules),
            "symbols": len(self.symbol_of),
            "trie_nodes": len(self.children),
            # Prefix positions deduplicated away by sharing: a trie with no
            # sharing would hold one node per prefix event plus the root.
            "shared_prefix_events": prefix_events - (len(self.children) - 1),
            "consequent_stages": sum(len(consequent) for consequent in self.consequents),
        }


def _rules_of(source: RuleSource) -> Tuple[RecurrentRule, ...]:
    rules = getattr(source, "rules", source)
    return tuple(rules)


def compile_rules(source: RuleSource) -> CompiledRuleSet:
    """Compile rules (or a specification repository) into a serving automaton.

    Rules sharing premise prefixes share trie nodes; identical rules are
    kept distinct (the monitor reports each, exactly like checking the
    rules one by one does).  An empty rule
    set compiles to a valid automaton that matches nothing.
    """
    rules = _rules_of(source)
    symbol_of: Dict[EventLabel, Symbol] = {}

    def intern(label: EventLabel) -> Symbol:
        symbol = symbol_of.get(label)
        if symbol is None:
            symbol = len(symbol_of)
            symbol_of[label] = symbol
        return symbol

    children: List[Dict[Symbol, NodeId]] = [{}]
    arm_lists: List[List[int]] = [[]]
    last_symbol: List[Symbol] = []
    consequents: List[Tuple[Symbol, ...]] = []
    consequent_moves: List[Dict[Symbol, Tuple[int, ...]]] = []

    for rule_id, rule in enumerate(rules):
        node: NodeId = 0
        for label in rule.premise[:-1]:
            symbol = intern(label)
            successor: Optional[NodeId] = children[node].get(symbol)
            if successor is None:
                successor = len(children)
                children[node][symbol] = successor
                children.append({})
                arm_lists.append([])
            node = successor
        arm_lists[node].append(rule_id)
        last_symbol.append(intern(rule.premise[-1]))
        consequent = tuple(intern(label) for label in rule.consequent)
        consequents.append(consequent)
        stages_by_symbol: Dict[Symbol, List[int]] = {}
        for stage, symbol in enumerate(consequent):
            stages_by_symbol.setdefault(symbol, []).append(stage)
        # Descending stage order: one event advances each pending point by
        # at most one consequent position, even when the consequent repeats
        # the event (the later stage is spliced before the earlier one).
        consequent_moves.append(
            {
                symbol: tuple(reversed(stages))
                for symbol, stages in stages_by_symbol.items()
            }
        )

    return CompiledRuleSet(
        rules=rules,
        symbol_of=symbol_of,
        children=tuple(children),
        arm_at_node=tuple(tuple(arm) for arm in arm_lists),
        last_symbol=tuple(last_symbol),
        consequents=tuple(consequents),
        consequent_moves=tuple(consequent_moves),
    )
