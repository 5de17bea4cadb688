"""Iterative pattern mining (Section 4 of the paper).

Public entry points:

* :class:`FullIterativePatternMiner` / :func:`mine_frequent_patterns` — the
  baseline that emits every frequent iterative pattern;
* :class:`ClosedIterativePatternMiner` / :func:`mine_closed_patterns` — the
  paper's closed-pattern miner;
* :class:`GeneratorPatternMiner` / :func:`mine_generators` — the
  future-work generator miner.
"""

from .closed_miner import ClosedIterativePatternMiner, mine_closed_patterns
from .closure import forward_closure_violation
from .config import IterativeMiningConfig
from .full_miner import FullIterativePatternMiner, mine_frequent_patterns
from .generators import GeneratorPatternMiner, mine_generators, propose_generator_rules
from .result import MinedPattern, PatternMiningResult

__all__ = [
    "ClosedIterativePatternMiner",
    "mine_closed_patterns",
    "forward_closure_violation",
    "IterativeMiningConfig",
    "FullIterativePatternMiner",
    "mine_frequent_patterns",
    "GeneratorPatternMiner",
    "mine_generators",
    "propose_generator_rules",
    "MinedPattern",
    "PatternMiningResult",
]
