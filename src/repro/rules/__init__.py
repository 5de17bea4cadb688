"""Recurrent rule mining (Section 5 of the paper).

Public entry points:

* :class:`FullRecurrentRuleMiner` / :func:`mine_all_rules` — the baseline
  emitting every significant rule;
* :class:`NonRedundantRecurrentRuleMiner` / :func:`mine_non_redundant_rules`
  — the paper's non-redundant rule miner;
* :func:`filter_redundant` — the Definition 5.2 redundancy filter.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": ("RuleMiningConfig",),
        "consequent_miner": ("ConsequentGrower", "GrownRule"),
        "full_miner": ("FullRecurrentRuleMiner", "mine_all_rules"),
        "nonredundant_miner": ("NonRedundantRecurrentRuleMiner", "mine_non_redundant_rules"),
        "redundancy": ("filter_redundant",),
        "result": ("RuleMiningResult",),
        "rule": ("RecurrentRule",),
    },
)
