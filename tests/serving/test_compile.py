"""Tests for the rule-set compiler: trie sharing, symbols, statistics."""

import pytest

from repro.core.errors import PatternError
from repro.rules.rule import RecurrentRule
from repro.serving import CompiledRuleSet, compile_rules
from repro.specs.repository import SpecificationRepository


def _rule(premise, consequent):
    return RecurrentRule(
        premise=tuple(premise),
        consequent=tuple(consequent),
        s_support=1,
        i_support=1,
        confidence=1.0,
    )


def test_compile_shares_premise_prefixes():
    compiled = compile_rules(
        [
            _rule(["a", "b", "c"], ["x"]),
            _rule(["a", "b", "d"], ["y"]),
            _rule(["a", "q"], ["z"]),
        ]
    )
    # Prefixes (a,b), (a,b) and (a): distinct prefix nodes are root, [a],
    # [a,b] — the second rule re-uses the whole (a, b) path.
    assert len(compiled.children) == 3
    stats = compiled.describe()
    assert stats["rules"] == 3
    assert stats["trie_nodes"] == 3
    assert stats["shared_prefix_events"] == 3  # 5 prefix events, 2 nodes
    assert stats["consequent_stages"] == 3


def test_compile_length_one_premises_arm_at_the_root():
    compiled = compile_rules([_rule(["a"], ["b"]), _rule(["c"], ["d"])])
    assert len(compiled.children) == 1
    assert compiled.root_armed == (0, 1)


def test_compile_empty_rule_set_is_valid():
    compiled = compile_rules(())
    assert len(compiled) == 0
    assert compiled.describe()["trie_nodes"] == 1


def test_compile_accepts_a_specification_repository():
    repository = SpecificationRepository()
    repository.add_rule(_rule(["open"], ["close"]))
    compiled = compile_rules(repository)
    assert compiled.rules == (repository.rules[0],)


def test_compile_keeps_duplicate_rules_distinct():
    duplicate = _rule(["a"], ["b"])
    compiled = compile_rules([duplicate, duplicate])
    assert len(compiled) == 2
    assert compiled.root_armed == (0, 1)


def test_compile_interns_symbols_only_for_rule_events():
    compiled = compile_rules([_rule(["a", "b"], ["c"])])
    assert set(compiled.symbol_of) == {"a", "b", "c"}
    assert "z" not in compiled.symbol_of


def test_compile_lists_the_point_opening_symbols_of_each_node():
    compiled = compile_rules(
        [_rule(["a", "b"], ["x"]), _rule(["a", "c"], ["y"]), _rule(["a", "b"], ["z"])]
    )
    a_node = compiled.children[0][compiled.symbol_of["a"]]
    assert compiled.arm_groups[0] == {}
    groups = compiled.arm_groups[a_node]
    assert list(groups) == [compiled.symbol_of["b"], compiled.symbol_of["c"]]
    # Rules sharing the node and last(premise) share one group.
    assert compiled.group_rules[groups[compiled.symbol_of["b"]]] == (0, 2)
    assert compiled.group_rules[groups[compiled.symbol_of["c"]]] == (1,)
    assert compiled.group_node == (a_node, a_node)


def test_compiled_rule_set_is_immutable_shape():
    compiled = compile_rules([_rule(["a"], ["b"])])
    assert isinstance(compiled, CompiledRuleSet)
    with pytest.raises(AttributeError):
        compiled.new_attribute = 1  # __slots__: no accidental mutable state


def test_rules_with_empty_parts_are_rejected_upstream():
    with pytest.raises(PatternError):
        _rule([], ["a"])
    with pytest.raises(PatternError):
        _rule(["a"], [])
