"""Compiling mined rules into a shared serving automaton.

Checking rules straight from their semantics re-derives the temporal
points of every rule from scratch for every trace: checking ``R`` rules
over a length-``n`` trace costs ``O(R * n)`` full scans plus one
``O(n)`` suffix re-scan per temporal point.  That is fine for a batch audit
and hopeless for serving a stream.  This module compiles a rule set *once*
into a :class:`CompiledRuleSet` that lets the streaming monitor do O(1)
work per fed event and settle every rule once, when the trace closes.

Two compiled structures, mirroring the two halves of the temporal-points
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
  nodes it actually advances.  A rule whose premise prefix completes at
  its trie node is *armed* from that position on.  Each node groups the
  rules it arms by their ``last(premise)`` symbol (an armed rule has one
  temporal point at every later occurrence of it — the prefix
  characterisation of Definition 5.1 temporal points), so every rule of
  a group has the same points: the monitor stamps the clock when a
  group's first point opens, and settles the group's points once at
  close, without touching a rule until then;
* **per-rule tables** read only at trace close: the encoded consequent
  and the analytics key — plus
  the rule's JSON fragment, encoded once when a ``REPORT`` or ``END``
  reply is first written from a violation log.

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
from ..verification.violations import violation_fragment

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
        "arm_groups",
        "group_rules",
        "group_node",
        "root_armed",
        "consequents",
        "keys",
        "_fragments",
    )

    def __init__(
        self,
        rules: Tuple[RecurrentRule, ...],
        symbol_of: Dict[EventLabel, Symbol],
        children: Tuple[Dict[Symbol, NodeId], ...],
        arm_groups: Tuple[Dict[Symbol, int], ...],
        group_rules: Tuple[Tuple[int, ...], ...],
        group_node: Tuple[NodeId, ...],
        consequents: Tuple[Tuple[Symbol, ...], ...],
    ) -> None:
        #: The monitored rules, in monitor order (violation reports follow it).
        self.rules = rules
        #: Event label -> dense symbol id; labels outside every rule are absent
        #: and skipped by the monitor in O(1).
        self.symbol_of = symbol_of
        #: Premise-prefix trie: node id -> {symbol: child node id}; node 0 is
        #: the root (the empty prefix).
        self.children = children
        #: Node id -> ``{last(premise) symbol: group id}`` over the rules
        #: whose premise prefix ends exactly there (they arm the moment the
        #: node is reached).  The symbols are the events that open those
        #: rules' points; the rules of one group share every point.
        self.arm_groups = arm_groups
        #: Group id -> its rule ids, ascending.
        self.group_rules = group_rules
        #: Group id -> the trie node arming it.
        self.group_node = group_node
        #: Rule ids armed from the start of every trace (premise length 1).
        self.root_armed = tuple(
            sorted(rule_id for group in arm_groups[0].values() for rule_id in group_rules[group])
        )
        #: Rule id -> encoded consequent.
        self.consequents = consequents
        #: Rule id -> :func:`rule_key`, the analytics key.
        self.keys = tuple(rule_key(rule) for rule in rules)
        self._fragments: Optional[Tuple[bytes, ...]] = None

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def fragments(self) -> Tuple[bytes, ...]:
        """Rule id -> :func:`~repro.verification.violations.violation_fragment`,
        the rule's part of every violation ``REPORT`` puts on the wire.

        Encoded on first use and kept: only wire replies need them, so
        compiling (and in-process monitoring) never JSON-encodes a label.
        Two threads racing here build equal tuples.
        """
        if self._fragments is None:
            self._fragments = tuple(violation_fragment(rule) for rule in self.rules)
        return self._fragments

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
    arm_groups: List[Dict[Symbol, int]] = [{}]
    group_rules: List[List[int]] = []
    group_node: List[NodeId] = []
    consequents: List[Tuple[Symbol, ...]] = []

    for rule_id, rule in enumerate(rules):
        node: NodeId = 0
        for label in rule.premise[:-1]:
            symbol = intern(label)
            successor: Optional[NodeId] = children[node].get(symbol)
            if successor is None:
                successor = len(children)
                children[node][symbol] = successor
                children.append({})
                arm_groups.append({})
            node = successor
        last = intern(rule.premise[-1])
        group = arm_groups[node].setdefault(last, len(group_rules))
        if group == len(group_rules):
            group_rules.append([])
            group_node.append(node)
        group_rules[group].append(rule_id)
        consequents.append(tuple(intern(label) for label in rule.consequent))

    return CompiledRuleSet(
        rules=rules,
        symbol_of=symbol_of,
        children=tuple(children),
        arm_groups=tuple(arm_groups),
        group_rules=tuple(tuple(members) for members in group_rules),
        group_node=tuple(group_node),
        consequents=tuple(consequents),
    )
