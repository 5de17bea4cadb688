"""Mining the *full* set of significant recurrent rules.

This is the baseline of Figures 2 and 3: every rule satisfying the
``min_s-sup`` / ``min_i-sup`` / ``min_conf`` thresholds is emitted, including
all the redundant ones, so the result size (and with it the work spent
materialising rules) explodes as the thresholds drop.
"""

from __future__ import annotations

from typing import Optional

from ..core.sequence import SequenceDatabase
from ..engine import ExecutionBackend
from .config import RuleMiningConfig
from .miner_base import RecurrentRuleMinerBase
from .result import RuleMiningResult


class FullRecurrentRuleMiner(RecurrentRuleMinerBase):
    """Emit every significant recurrent rule.

    Example
    -------
    >>> from repro import SequenceDatabase
    >>> db = SequenceDatabase.from_sequences([
    ...     ["lock", "use", "unlock"],
    ...     ["lock", "unlock", "lock", "unlock"],
    ... ])
    >>> config = RuleMiningConfig(min_s_support=2, min_confidence=1.0)
    >>> rules = FullRecurrentRuleMiner(config).mine(db)
    >>> rules.contains(["lock"], ["unlock"])
    True
    """

    non_redundant_only = False


def mine_all_rules(
    database: SequenceDatabase,
    min_s_support: float = 2.0,
    min_i_support: int = 1,
    min_confidence: float = 0.5,
    backend: Optional[ExecutionBackend] = None,
    **kwargs: object,
) -> RuleMiningResult:
    """Convenience wrapper: mine the full set of significant recurrent rules."""
    config = RuleMiningConfig(
        min_s_support=min_s_support,
        min_i_support=min_i_support,
        min_confidence=min_confidence,
        **kwargs,  # type: ignore[arg-type]
    )
    return FullRecurrentRuleMiner(config).mine(database, backend=backend)
