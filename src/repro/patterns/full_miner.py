"""Mining the *full* set of frequent iterative patterns.

This is the baseline the paper compares against in Figure 1: every frequent
pattern is emitted, so at low support thresholds both the runtime and the
number of mined patterns blow up relative to the closed miner.
"""

from __future__ import annotations

from typing import Optional

from ..core.sequence import SequenceDatabase
from ..engine import ExecutionBackend
from .config import IterativeMiningConfig
from .miner_base import IterativePatternMinerBase
from .result import PatternMiningResult


class FullIterativePatternMiner(IterativePatternMinerBase):
    """Depth-first miner emitting every frequent iterative pattern.

    Example
    -------
    >>> from repro import SequenceDatabase
    >>> db = SequenceDatabase.from_sequences([
    ...     ["lock", "use", "unlock", "lock", "unlock"],
    ...     ["lock", "read", "unlock"],
    ... ])
    >>> miner = FullIterativePatternMiner(IterativeMiningConfig(min_support=3))
    >>> sorted(p.events for p in miner.mine(db))
    [('lock',), ('lock', 'unlock'), ('unlock',)]
    """

    closed_only = False


def mine_frequent_patterns(
    database: SequenceDatabase,
    min_support: float = 2.0,
    backend: Optional[ExecutionBackend] = None,
    **kwargs: object,
) -> PatternMiningResult:
    """Convenience wrapper: mine all frequent iterative patterns.

    ``backend`` selects the execution backend (serial by default); the
    remaining keyword arguments are forwarded to
    :class:`~repro.patterns.config.IterativeMiningConfig`.
    """
    config = IterativeMiningConfig(min_support=min_support, **kwargs)  # type: ignore[arg-type]
    return FullIterativePatternMiner(config).mine(database, backend=backend)
