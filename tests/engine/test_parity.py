"""Serial vs. parallel parity: the engine must not change mining results.

The contract of the engine is that the execution backend is invisible
in the output: patterns and rules come back bit-identical — same
elements, same order, same supports and instances — whatever the backend.
The hypothesis tests drive randomized databases through the serial
reference and, sparingly, real worker processes; eager in-process
splitting is covered in ``test_stealing.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.core.sequence import SequenceDatabase
from repro.engine import ProcessPoolBackend
from repro.patterns.closed_miner import mine_closed_patterns
from repro.rules.nonredundant_miner import mine_non_redundant_rules

sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=4).map(str), min_size=1, max_size=14),
    min_size=1,
    max_size=5,
)


def _database(sequences):
    return SequenceDatabase.from_sequences(sequences)


# --------------------------------------------------------------------- #
# Real worker processes: fewer examples (each one forks workers).
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy)
@settings(max_examples=5, deadline=None)
def test_process_pool_pattern_mining_matches_serial(sequences):
    db = _database(sequences)
    pool = ProcessPoolBackend(workers=2)
    serial = mine_closed_patterns(db, min_support=2)
    parallel = mine_closed_patterns(db, min_support=2, backend=pool)
    assert serial.patterns == parallel.patterns


@given(sequences=sequences_strategy)
@settings(max_examples=5, deadline=None)
def test_process_pool_rule_mining_matches_serial(sequences):
    db = _database(sequences)
    pool = ProcessPoolBackend(workers=2)
    serial = mine_non_redundant_rules(db, min_s_support=1, min_confidence=0.5)
    parallel = mine_non_redundant_rules(db, min_s_support=1, min_confidence=0.5, backend=pool)
    assert serial.rules == parallel.rules


# --------------------------------------------------------------------- #
# Deterministic fixture-based checks (always run, no randomness).
# --------------------------------------------------------------------- #
def test_process_pool_parity_on_lock_database(lock_database):
    pool = ProcessPoolBackend(workers=2)
    serial_patterns = mine_closed_patterns(lock_database, min_support=2)
    pooled_patterns = mine_closed_patterns(lock_database, min_support=2, backend=pool)
    assert serial_patterns.patterns == pooled_patterns.patterns
    assert serial_patterns.patterns  # non-vacuous

    serial_rules = mine_non_redundant_rules(lock_database, min_s_support=2, min_confidence=0.5)
    pooled_rules = mine_non_redundant_rules(
        lock_database, min_s_support=2, min_confidence=0.5, backend=pool
    )
    assert serial_rules.rules == pooled_rules.rules
    assert serial_rules.rules  # non-vacuous


def test_instances_survive_the_parallel_path(abc_database):
    pool = ProcessPoolBackend(workers=2)
    serial = mine_closed_patterns(abc_database, min_support=2, collect_instances=True)
    parallel = mine_closed_patterns(abc_database, min_support=2, collect_instances=True, backend=pool)
    for left, right in zip(serial.patterns, parallel.patterns):
        assert left.instances == right.instances
        assert left.instances


def test_allowed_premise_events_cross_the_process_boundary(lock_database):
    pool = ProcessPoolBackend(workers=2)
    kwargs = dict(
        min_s_support=2,
        min_confidence=0.5,
        allowed_premise_events=frozenset({"lock"}),
    )
    serial = mine_non_redundant_rules(lock_database, **kwargs)
    parallel = mine_non_redundant_rules(lock_database, backend=pool, **kwargs)
    assert serial.rules == parallel.rules
    assert all(set(rule.premise) == {"lock"} for rule in serial.rules)


def test_repeated_parallel_runs_are_deterministic(abc_database):
    pool = ProcessPoolBackend(workers=2)
    runs = [
        mine_closed_patterns(abc_database, min_support=2, backend=pool).patterns
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
