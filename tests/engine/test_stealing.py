"""Work-stealing backend: bit-identical output under every split policy.

The engine's contract: the backend must be invisible in the output, and
stay invisible under *dynamic subtree splitting* — any frontier node may
be carved off as a stolen unit, closure checks and consequent growth may
be offloaded to other workers, and the merged result must still match the serial reference
bit for bit, core search counters included.

``eager_split`` forces every split and offload decision to yes, so the
in-process runs below exercise the splitting, replay and deferred-verdict
machinery deterministically on every hypothesis example; a handful of
tests also cross real process boundaries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.sequence import SequenceDatabase
from repro.engine import WorkStealingBackend, resolve_backend
from repro.patterns.closed_miner import mine_closed_patterns
from repro.patterns.full_miner import mine_frequent_patterns
from repro.rules.full_miner import mine_all_rules
from repro.rules.nonredundant_miner import mine_non_redundant_rules

sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=4).map(str), min_size=1, max_size=14),
    min_size=1,
    max_size=5,
)

#: Core counters that must not depend on how the search was carved up.
CORE_COUNTERS = ("visited", "emitted", "pruned_support", "pruned_closure")


def _eager(split_depth=4):
    return WorkStealingBackend(workers=1, eager_split=True, split_depth=split_depth)


@pytest.fixture(scope="module")
def skewed_database() -> SequenceDatabase:
    """A deterministic skewed-alphabet workload: one hot root owns the tree.

    Event ``h`` repeats densely through every trace (a deep, heavy
    subtree), while the remaining events are sparse one-off roots — the
    shape that defeats any plan made per root, because only splitting can
    spread the single hot root's subtree.
    """
    sequences = []
    for shift in range(6):
        events = []
        for repeat in range(10):
            events.append("h")
            events.append(f"a{(repeat + shift) % 3}")
            events.append("h")
            events.append(f"b{(repeat + 2 * shift) % 4}")
        sequences.append(events)
    return SequenceDatabase.from_sequences(sequences)


# --------------------------------------------------------------------- #
# Eager in-process stealing: every example splits and offloads maximally.
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy, split_depth=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_stealing_pattern_mining_matches_serial(sequences, split_depth):
    db = SequenceDatabase.from_sequences(sequences)
    backend = _eager(split_depth)
    for miner in (mine_closed_patterns, mine_frequent_patterns):
        serial = miner(db, min_support=2, collect_instances=True)
        stolen = miner(db, min_support=2, collect_instances=True, backend=backend)
        assert serial.patterns == stolen.patterns
        assert serial.min_support == stolen.min_support


@given(sequences=sequences_strategy, split_depth=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_stealing_rule_mining_matches_serial(sequences, split_depth):
    db = SequenceDatabase.from_sequences(sequences)
    backend = _eager(split_depth)
    for miner in (mine_all_rules, mine_non_redundant_rules):
        serial = miner(db, min_s_support=2, min_confidence=0.5)
        stolen = miner(db, min_s_support=2, min_confidence=0.5, backend=backend)
        assert serial.rules == stolen.rules


@given(sequences=sequences_strategy)
@settings(max_examples=40, deadline=None)
def test_stealing_search_counters_match_serial(sequences):
    """Splitting and offloading reorder the search without changing it."""
    db = SequenceDatabase.from_sequences(sequences)
    serial = mine_closed_patterns(db, min_support=2)
    stolen = mine_closed_patterns(db, min_support=2, backend=_eager())
    for counter in CORE_COUNTERS:
        assert getattr(serial.stats, counter) == getattr(stolen.stats, counter)


def test_split_depth_bounds_subtree_splitting(skewed_database):
    """With split_depth=1 no frontier is ever eligible (children sit at depth 2)."""
    shallow = _eager(split_depth=1)
    deep = _eager(split_depth=6)
    serial = mine_closed_patterns(skewed_database, min_support=4)
    capped = mine_closed_patterns(skewed_database, min_support=4, backend=shallow)
    split = mine_closed_patterns(skewed_database, min_support=4, backend=deep)
    assert capped.patterns == serial.patterns
    assert split.patterns == serial.patterns
    assert "units_split" not in capped.stats.extra
    assert split.stats.extra.get("units_split", 0) > 0


def test_closure_offload_produces_verify_units(skewed_database):
    """Eager stealing routes closure checks through verify units."""
    stolen = mine_closed_patterns(skewed_database, min_support=4, backend=_eager())
    assert stolen.stats.extra.get("closure_offloads", 0) > 0


#: Rule-mining thresholds for the skewed fixture: the dense hot event makes
#: uncapped consequent growth combinatorial, so the rule tests cap lengths.
SKEWED_RULE_KWARGS = dict(
    min_s_support=6, min_confidence=0.9, max_premise_length=2, max_consequent_length=2
)


def test_consequent_offload_rides_the_unit_queue(skewed_database):
    serial = mine_non_redundant_rules(skewed_database, **SKEWED_RULE_KWARGS)
    stolen = mine_non_redundant_rules(
        skewed_database, backend=_eager(), **SKEWED_RULE_KWARGS
    )
    assert serial.rules == stolen.rules
    assert serial.rules  # non-vacuous
    assert stolen.stats.extra.get("consequent_offloads", 0) > 0


def test_instances_survive_the_stealing_path(skewed_database):
    serial = mine_closed_patterns(skewed_database, min_support=4, collect_instances=True)
    stolen = mine_closed_patterns(
        skewed_database, min_support=4, collect_instances=True, backend=_eager()
    )
    for left, right in zip(serial.patterns, stolen.patterns):
        assert left.instances == right.instances
    assert any(pattern.instances for pattern in serial.patterns)


# --------------------------------------------------------------------- #
# Real worker processes: fewer runs (each forks a pool).
# --------------------------------------------------------------------- #
def test_process_stealing_parity_on_skewed_database(skewed_database):
    backend = WorkStealingBackend(workers=2, eager_split=True, split_depth=4)
    serial_patterns = mine_closed_patterns(skewed_database, min_support=4)
    stolen_patterns = mine_closed_patterns(skewed_database, min_support=4, backend=backend)
    assert serial_patterns.patterns == stolen_patterns.patterns
    assert serial_patterns.patterns  # non-vacuous

    serial_rules = mine_non_redundant_rules(skewed_database, **SKEWED_RULE_KWARGS)
    stolen_rules = mine_non_redundant_rules(
        skewed_database, backend=backend, **SKEWED_RULE_KWARGS
    )
    assert serial_rules.rules == stolen_rules.rules
    assert serial_rules.rules  # non-vacuous


def test_repeated_process_stealing_runs_are_deterministic(skewed_database):
    backend = WorkStealingBackend(workers=2, eager_split=True, split_depth=4)
    runs = [
        mine_closed_patterns(skewed_database, min_support=4, backend=backend).patterns
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --------------------------------------------------------------------- #
# Configuration surface.
# --------------------------------------------------------------------- #
class TestResolveStealingBackend:
    def test_resolve_by_name(self):
        backend = resolve_backend("stealing", workers=4, split_depth=5)
        assert isinstance(backend, WorkStealingBackend)
        assert backend.workers == 4
        assert backend.split_depth == 5
        assert "stealing" in backend.describe()

    def test_split_depth_defaults(self):
        backend = resolve_backend("stealing", workers=2)
        assert backend.split_depth >= 1

    def test_split_depth_rejected_for_other_backends(self):
        # Only the serial backend (named, or picked by 'auto' for one
        # worker) never splits; every multi-worker backend accepts a depth.
        for name in ("serial", "auto"):
            with pytest.raises(ConfigurationError):
                resolve_backend(name, workers=1, split_depth=4)
        assert resolve_backend("process", workers=2, split_depth=4).split_depth == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkStealingBackend(workers=0)
        with pytest.raises(ConfigurationError):
            WorkStealingBackend(split_depth=0)
        with pytest.raises(ConfigurationError):
            WorkStealingBackend(check_interval=0)
