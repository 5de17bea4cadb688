"""Configuration for the recurrent-rule miners."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..core.errors import ConfigurationError
from ..core.events import EventLabel


@dataclass(frozen=True)
class RuleMiningConfig:
    """Thresholds and limits shared by the full and non-redundant rule miners.

    Parameters
    ----------
    min_s_support:
        Minimum sequence support of a rule's premise.  Values in ``(0, 1]``
        are relative to the number of sequences (the paper reports
        ``min_s-sup`` as a percentage of the database size); larger values
        are absolute sequence counts.
    min_i_support:
        Minimum instance support (occurrences of ``premise ++ consequent``).
        The paper uses 1 in its performance study; no pruning property exists
        for this threshold, it is a pure output filter (Step 4).
    min_confidence:
        Minimum confidence in ``[0, 1]``.
    max_premise_length / max_consequent_length:
        Optional caps on the search depth.  ``None`` explores rules of
        arbitrary length, as in the paper.
    allowed_premise_events:
        Optional restriction of the premise alphabet.  This implements the
        "domain knowledge" feedback sketched in the paper's future work: the
        JBoss security case study, for example, focuses premises on the
        authentication-configuration events.  Premises may only use events
        from this set; consequents remain unrestricted.
    """

    min_s_support: float = 2.0
    min_i_support: int = 1
    min_confidence: float = 0.5
    max_premise_length: Optional[int] = None
    max_consequent_length: Optional[int] = None
    allowed_premise_events: Optional[FrozenSet[EventLabel]] = None

    def __post_init__(self) -> None:
        if not (0 < self.min_s_support < math.inf):
            raise ConfigurationError(
                f"min_s_support must be positive and finite, got {self.min_s_support!r}"
            )
        if self.min_i_support < 1:
            raise ConfigurationError(
                f"min_i_support must be at least 1, got {self.min_i_support!r}"
            )
        if not (0.0 < self.min_confidence <= 1.0):
            raise ConfigurationError(
                f"min_confidence must be in (0, 1], got {self.min_confidence!r}"
            )
        for name, value in (
            ("max_premise_length", self.max_premise_length),
            ("max_consequent_length", self.max_consequent_length),
        ):
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be at least 1, got {value!r}")
        if self.allowed_premise_events is not None and not self.allowed_premise_events:
            raise ConfigurationError("allowed_premise_events must not be an empty set")
