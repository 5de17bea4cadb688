"""Mining the *closed* set of frequent iterative patterns (Section 4).

A frequent pattern is emitted only when it is closed per Definition 4.2 —
no single-event forward, backward or infix extension has the same support
with full instance correspondence.  Non-closed patterns are still grown
(their subtrees can contain closed descendants) but are not part of the
output, which is what collapses the result size by orders of magnitude in
the paper's Figure 1(b).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.blocks import InstanceBlock
from ..core.events import EventId
from ..core.sequence import SequenceDatabase
from ..core.projection import backward_extension_events_block
from ..core.stats import MiningStats
from ..engine import ExecutionBackend, SearchContext
from .closure import forward_closure_violation, infix_closure_violation_block
from .config import IterativeMiningConfig
from .miner_base import IterativePatternMinerBase, PatternNode
from .result import PatternMiningResult


class ClosedIterativePatternMiner(IterativePatternMinerBase):
    """Depth-first miner emitting only closed frequent iterative patterns.

    Example
    -------
    >>> from repro import SequenceDatabase
    >>> db = SequenceDatabase.from_sequences([
    ...     ["lock", "use", "unlock", "lock", "unlock"],
    ...     ["lock", "read", "unlock"],
    ... ])
    >>> miner = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=3))
    >>> sorted(p.events for p in miner.mine(db))
    [('lock', 'unlock')]
    """

    closed_only = True

    def _emit(
        self,
        context: SearchContext,
        node: PatternNode,
        extensions: Dict[EventId, InstanceBlock],
        records: List[object],
        stats: MiningStats,
        splitter: Any,
    ) -> None:
        """Closure-check sharding: free forward test inline, rest offloadable.

        The forward violation test reuses the extension blocks the growth
        step just computed, so it always runs in place.  The backward scan
        and the infix check are the expensive tail; when the splitter
        reports a hungry pool and the block is heavy enough, they leave as
        a ``verify`` unit with the block length as cost hint, and that
        unit emits the pattern if it is closed.
        """
        block, alphabet = node
        # Row counts stand for weighted counts (see ``miner_base``).
        if forward_closure_violation(extensions, len(block)) is not None:
            stats.pruned_closure += 1
            return
        self._offload_or_run(
            context, alphabet.pattern, node, len(block), records, stats, splitter
        )

    def _run_deferred(
        self,
        context: SearchContext,
        node: PatternNode,
        records: List[object],
        stats: MiningStats,
    ) -> None:
        """The offloadable closure tail: backward scan plus infix check.

        Emits the pattern unless a backward or infix extension violates
        its closure; runs in place or as a ``verify`` unit.
        """
        block, alphabet = node
        encoded, index = context.encoded, context.index
        if backward_extension_events_block(encoded, index, alphabet, block) or (
            self.config.check_infix_extensions
            and infix_closure_violation_block(encoded, index, alphabet, block) is not None
        ):
            stats.pruned_closure += 1
            return
        self._accept(context, node, records, stats)


def mine_closed_patterns(
    database: SequenceDatabase,
    min_support: float = 2.0,
    backend: Optional[ExecutionBackend] = None,
    **kwargs: object,
) -> PatternMiningResult:
    """Convenience wrapper: mine the closed set of frequent iterative patterns.

    ``backend`` selects the execution backend (serial by default); the
    remaining keyword arguments are forwarded to
    :class:`~repro.patterns.config.IterativeMiningConfig`.
    """
    config = IterativeMiningConfig(min_support=min_support, **kwargs)  # type: ignore[arg-type]
    return ClosedIterativePatternMiner(config).mine(database, backend=backend)
