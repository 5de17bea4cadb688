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
from ..core.projection import AlphabetIndex, backward_extension_events_block
from ..engine import ExecutionBackend, SearchContext, WorkUnit
from .closure import forward_closure_violation, infix_closure_violation_block
from .config import IterativeMiningConfig
from .miner_base import (
    VERIFY_UNIT,
    IterativePatternMinerBase,
    PatternRecord,
    PendingClosure,
)
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
        node: AlphabetIndex,
        block: InstanceBlock,
        extensions: Dict[EventId, InstanceBlock],
        stats: "Any",
        splitter: Any,
        records: List[object],
    ) -> None:
        """Closure-check sharding: free forward test inline, rest offloadable.

        The forward violation test reuses the extension blocks the growth
        step just computed, so it always runs in place.  The backward scan
        and the infix oracle are the expensive tail; when the splitter
        reports a hungry pool and the block is heavy enough, they leave as
        a ``verify`` unit with the block length as cost hint, and the
        pattern is emitted pending that unit's verdict.
        """
        pattern = node.pattern
        if forward_closure_violation(extensions, len(block)) is not None:
            stats.pruned_closure += 1
            return
        if splitter.should_offload(len(block)):
            records.append(
                PendingClosure(pattern, len(block), self._keep_instances(block))
            )
            splitter.submit([WorkUnit(VERIFY_UNIT, pattern[0], pattern, len(block))])
            stats.bump("closure_offloads")
            return
        if self._verify_deferred_closure(context, node, block):
            stats.emitted += 1
            records.append(
                PatternRecord(pattern, len(block), self._keep_instances(block))
            )
        else:
            stats.pruned_closure += 1

    def _verify_deferred_closure(
        self, context: SearchContext, node: AlphabetIndex, block: InstanceBlock
    ) -> bool:
        """The offloadable closure tail: backward scan plus infix oracle."""
        if backward_extension_events_block(context.encoded, context.index, node, block):
            return False
        if (
            self.config.check_infix_extensions
            and infix_closure_violation_block(
                context.encoded, context.index, node, block
            )
            is not None
        ):
            return False
        return True


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
