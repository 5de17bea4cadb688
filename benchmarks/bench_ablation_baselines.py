"""Ablation: the related-work baselines the paper argues against (Section 2).

Two comparisons on the same traces back the paper's qualitative claims:

* **the window barrier** — WINEPI-style episode mining cannot see a
  lock/unlock-style behaviour whose events lie further apart than the window,
  while iterative pattern mining recovers it regardless of the distance;
* **two-event rules only** — the Perracotta-style baseline (ref [33]) can
  only produce 1 -> 1 rules, whereas the recurrent-rule miner recovers the
  multi-event JAAS rule of Figure 5 from the same security traces.

The baselines are test code, not part of the ``repro`` package: they live in
``tests/baselines``, so run this from the checkout root
(``python -m pytest benchmarks/bench_ablation_baselines.py
-o python_files='bench_*.py' -o python_functions='bench_*'``).
"""

from repro.analysis.reporting import format_table
from repro.core.sequence import SequenceDatabase
from repro.core.stats import Timer
from repro.jboss.reference import FIGURE5_CONSEQUENT, FIGURE5_PREMISE
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from tests.baselines.episodes import WinepiMiner
from tests.baselines.sequential import TwoEventRuleMiner

from conftest import write_result


def _lock_unlock_database() -> SequenceDatabase:
    """Traces where acquire/release are separated by many unrelated events.

    The in-between work is unique to each trace so that the pair
    ``<acquire, release>`` itself is the closed pattern (nothing can be
    inserted into it across all traces), while the distance between the two
    events exceeds any reasonable episode window.
    """
    sequences = []
    for trace_index, spacing in enumerate(range(3, 11)):
        filler = [f"work_{trace_index}_{i}" for i in range(spacing)]
        sequences.append(["acquire"] + filler + ["release"])
    return SequenceDatabase.from_sequences(sequences)


def bench_ablation_window_barrier(benchmark):
    database = _lock_unlock_database()
    window_width = 4

    with Timer() as episode_timer:
        episodes = WinepiMiner(window_width=window_width, min_support=len(database)).mine(database)
    with Timer() as pattern_timer:
        patterns = ClosedIterativePatternMiner(
            IterativeMiningConfig(min_support=len(database), collect_instances=False)
        ).mine(database)

    rows = [
        {
            "technique": f"WINEPI episodes (window={window_width})",
            "finds <acquire, release>": episodes.support_of(("acquire", "release")) is not None,
            "results": len(episodes),
            "runtime (s)": episode_timer.seconds,
        },
        {
            "technique": "closed iterative patterns",
            "finds <acquire, release>": patterns.contains(("acquire", "release")),
            "results": len(patterns),
            "runtime (s)": pattern_timer.seconds,
        },
    ]
    write_result("ablation_window_barrier", format_table(rows))

    assert episodes.support_of(("acquire", "release")) is None
    assert patterns.contains(("acquire", "release"))

    benchmark.pedantic(
        lambda: ClosedIterativePatternMiner(
            IterativeMiningConfig(min_support=len(database), collect_instances=False)
        ).mine(database),
        rounds=1,
        iterations=1,
    )


def bench_ablation_two_event_baseline(benchmark, jboss_security_database):
    with Timer() as baseline_timer:
        two_event = TwoEventRuleMiner(min_s_support=0.5, min_confidence=0.5).mine(
            jboss_security_database
        )
    config = RuleMiningConfig(
        min_s_support=0.5,
        min_confidence=0.5,
        max_premise_length=2,
        allowed_premise_events=frozenset(FIGURE5_PREMISE),
    )
    with Timer() as recurrent_timer:
        recurrent = NonRedundantRecurrentRuleMiner(config).mine(jboss_security_database)

    longest_two_event = max((len(rule) for rule in two_event.rules), default=0)
    rows = [
        {
            "technique": "two-event rules (Perracotta-style baseline)",
            "rules": len(two_event),
            "longest rule (events)": longest_two_event,
            "recovers Figure 5 rule": False,
            "runtime (s)": baseline_timer.seconds,
        },
        {
            "technique": "non-redundant recurrent rules",
            "rules": len(recurrent),
            "longest rule (events)": len(recurrent.longest()) if recurrent.rules else 0,
            "recovers Figure 5 rule": recurrent.contains(FIGURE5_PREMISE, FIGURE5_CONSEQUENT),
            "runtime (s)": recurrent_timer.seconds,
        },
    ]
    write_result("ablation_two_event_baseline", format_table(rows))

    assert longest_two_event <= 2
    assert recurrent.contains(FIGURE5_PREMISE, FIGURE5_CONSEQUENT)

    benchmark.pedantic(
        lambda: TwoEventRuleMiner(min_s_support=0.5, min_confidence=0.5).mine(
            jboss_security_database
        ),
        rounds=1,
        iterations=1,
    )
