"""Iterative pattern mining (Section 4 of the paper).

Public entry points:

* :class:`FullIterativePatternMiner` / :func:`mine_frequent_patterns` — the
  baseline that emits every frequent iterative pattern;
* :class:`ClosedIterativePatternMiner` / :func:`mine_closed_patterns` — the
  paper's closed-pattern miner;
* :class:`GeneratorPatternMiner` / :func:`mine_generators` — the
  future-work generator miner.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "closed_miner": ("ClosedIterativePatternMiner", "mine_closed_patterns"),
        "closure": ("forward_closure_violation",),
        "config": ("IterativeMiningConfig",),
        "full_miner": ("FullIterativePatternMiner", "mine_frequent_patterns"),
        "generators": ("GeneratorPatternMiner", "mine_generators", "propose_generator_rules"),
        "result": ("MinedPattern", "PatternMiningResult"),
    },
)
