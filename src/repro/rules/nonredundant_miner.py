"""Mining the *non-redundant* set of significant recurrent rules (Section 5).

The non-redundant miner differs from the full miner in two places:

* during consequent growth it never emits a rule that one of its own
  single-event consequent extensions dominates (same i-support and
  confidence) — such rules are redundant by Definition 5.2, and the
  dominating extension is always explored, so no information is lost;
* after mining it applies the full Definition 5.2 sweep, which also removes
  rules dominated across different premises (e.g. a rule whose shorter
  premise / longer consequent variant carries the same statistics).
"""

from __future__ import annotations

from typing import Optional

from ..core.sequence import SequenceDatabase
from ..engine import ExecutionBackend
from .config import RuleMiningConfig
from .miner_base import RecurrentRuleMinerBase
from .result import RuleMiningResult


class NonRedundantRecurrentRuleMiner(RecurrentRuleMinerBase):
    """Emit only non-redundant significant recurrent rules.

    Example
    -------
    >>> from repro import SequenceDatabase
    >>> db = SequenceDatabase.from_sequences([
    ...     ["lock", "use", "unlock"],
    ...     ["lock", "unlock", "lock", "unlock"],
    ... ])
    >>> config = RuleMiningConfig(min_s_support=2, min_confidence=1.0)
    >>> rules = NonRedundantRecurrentRuleMiner(config).mine(db)
    >>> all_rules = FullRecurrentRuleMiner(config).mine(db)  # doctest: +SKIP
    """

    non_redundant_only = True


def mine_non_redundant_rules(
    database: SequenceDatabase,
    min_s_support: float = 2.0,
    min_i_support: int = 1,
    min_confidence: float = 0.5,
    backend: Optional[ExecutionBackend] = None,
    **kwargs: object,
) -> RuleMiningResult:
    """Convenience wrapper: mine the non-redundant set of significant rules."""
    config = RuleMiningConfig(
        min_s_support=min_s_support,
        min_i_support=min_i_support,
        min_confidence=min_confidence,
        **kwargs,  # type: ignore[arg-type]
    )
    return NonRedundantRecurrentRuleMiner(config).mine(database, backend=backend)
