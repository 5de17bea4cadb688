"""Recurrent rule mining (Section 5 of the paper).

Public entry points:

* :class:`FullRecurrentRuleMiner` / :func:`mine_all_rules` — the baseline
  emitting every significant rule;
* :class:`NonRedundantRecurrentRuleMiner` / :func:`mine_non_redundant_rules`
  — the paper's non-redundant rule miner;
* :func:`filter_redundant` — the Definition 5.2 redundancy filter.
"""

from .config import RuleMiningConfig
from .consequent_miner import ConsequentGrower, GrownRule
from .full_miner import FullRecurrentRuleMiner, mine_all_rules
from .nonredundant_miner import NonRedundantRecurrentRuleMiner, mine_non_redundant_rules
from .redundancy import filter_redundant
from .result import RuleMiningResult
from .rule import RecurrentRule

__all__ = [
    "RuleMiningConfig",
    "ConsequentGrower",
    "GrownRule",
    "FullRecurrentRuleMiner",
    "mine_all_rules",
    "NonRedundantRecurrentRuleMiner",
    "mine_non_redundant_rules",
    "filter_redundant",
    "RuleMiningResult",
    "RecurrentRule",
]
