"""Configuration for the iterative-pattern miners."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.errors import ConfigurationError


@dataclass(frozen=True)
class IterativeMiningConfig:
    """Thresholds and switches shared by the full and closed miners.

    Parameters
    ----------
    min_support:
        Minimum number of instances a pattern must have to be frequent.
        Values in ``(0, 1]`` are interpreted relative to the number of
        sequences in the database (the convention used by the paper's
        Figure 1); values above 1 are absolute instance counts.
    max_pattern_length:
        Optional cap on the pattern length explored by the search.  ``None``
        (the default) explores patterns of any length, as in the paper.
    collect_instances:
        When ``True`` (default) each mined pattern records its instances.
        Disable to reduce memory for very large results (the full miner at
        low thresholds).
    check_infix_extensions:
        Closed miner only: also reject patterns that a single-event *infix*
        insertion extends without changing support (Definition 4.2).  The
        forward / backward checks are always applied.
    adjacent_absorption_pruning:
        Search-space pruning in the spirit of the paper's non-closed pattern
        pruning strategies: when some event follows *every* instance of the
        current pattern immediately (adjacently), only that extension is
        explored further.  This collapses the search along deterministic
        protocol segments (the JBoss case study) and at low supports on the
        synthetic data, at the cost of possibly skipping closed patterns
        that interleave with such a segment; every emitted pattern is still
        verified closed.  Disabled by default so the default result is the
        exact closed set.
    """

    min_support: float = 2.0
    max_pattern_length: Optional[int] = None
    collect_instances: bool = True
    check_infix_extensions: bool = True
    adjacent_absorption_pruning: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.min_support < math.inf):
            raise ConfigurationError(
                f"min_support must be positive and finite, got {self.min_support!r}"
            )
        if self.max_pattern_length is not None and self.max_pattern_length < 1:
            raise ConfigurationError(
                f"max_pattern_length must be at least 1, got {self.max_pattern_length!r}"
            )
