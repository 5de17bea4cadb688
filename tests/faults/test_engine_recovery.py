"""Crash recovery in the parallel mining engine.

The contract under test: killing workers mid-mine must not change the
mined output.  Lost units are replayed on survivors, a unit that keeps
killing workers is quarantined with a diagnostic naming it, and stragglers
past the unit deadline are split-and-retried — all while the merged result
stays byte-identical to the serial reference.
"""

import multiprocessing
import os

import pytest

from repro.core.errors import ExecutionFault
from repro.engine import WorkStealingBackend, resolve_backend
from repro.patterns.closed_miner import mine_closed_patterns
from repro.rules.nonredundant_miner import mine_non_redundant_rules
from repro.testing import faults

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault plans reach engine workers by fork inheritance",
)


@fork_only
def test_stealing_backend_survives_two_worker_kills(lock_database):
    serial = mine_closed_patterns(lock_database, min_support=2)
    faults.install("engine.unit", "kill", count=2)
    backend = WorkStealingBackend(workers=4)
    recovered = mine_closed_patterns(lock_database, min_support=2, backend=backend)
    assert recovered.patterns == serial.patterns
    assert recovered.stats.extra["workers_lost"] == 2
    assert recovered.stats.extra["units_retried"] == 2


@fork_only
def test_stealing_rule_mining_survives_a_worker_kill(lock_database):
    serial = mine_non_redundant_rules(lock_database, min_s_support=2, min_confidence=0.5)
    faults.install("engine.unit", "kill", count=1)
    backend = WorkStealingBackend(workers=4)
    recovered = mine_non_redundant_rules(
        lock_database, min_s_support=2, min_confidence=0.5, backend=backend
    )
    assert recovered.rules == serial.rules
    assert recovered.stats.extra["workers_lost"] == 1


@fork_only
def test_process_backend_recovers_from_a_killed_unit(lock_database):
    serial = mine_closed_patterns(lock_database, min_support=2)
    faults.install("engine.unit", "kill", count=1)
    backend = resolve_backend("process", 2)
    recovered = mine_closed_patterns(lock_database, min_support=2, backend=backend)
    assert recovered.patterns == serial.patterns
    assert recovered.stats.extra["workers_lost"] == 1


@fork_only
def test_poison_unit_is_quarantined_with_a_diagnostic(lock_database):
    # Unbounded keyed kill: every worker that picks up root 0 ("lock" —
    # work-unit roots are encoded event ids, in first-appearance order)
    # dies, so the third death must fail the mine naming the unit — while
    # other units still complete on surviving workers.
    faults.install("engine.unit", "kill", key="grow:0")
    backend = WorkStealingBackend(workers=4, unit_retries=2)
    with pytest.raises(ExecutionFault) as excinfo:
        mine_closed_patterns(lock_database, min_support=2, backend=backend)
    message = str(excinfo.value)
    assert "poison work unit quarantined" in message
    assert "grow unit" in message and "root 0" in message
    assert "3 worker(s)" in message


@fork_only
def test_deterministic_worker_exception_aborts_immediately(lock_database):
    # A plain exception (not a process death) would fail every replay the
    # same way; the coordinator must abort with the traceback instead of
    # burning the retry budget.
    faults.install("engine.unit", "raise", count=1)
    backend = WorkStealingBackend(workers=2)
    with pytest.raises(ExecutionFault, match="failed"):
        mine_closed_patterns(lock_database, min_support=2, backend=backend)


@fork_only
def test_unit_deadline_converts_stragglers_into_split_and_retry(lock_database):
    serial = mine_closed_patterns(lock_database, min_support=2)
    faults.install("engine.unit", "sleep", count=1, value=5.0)
    backend = WorkStealingBackend(workers=2, unit_deadline=0.3)
    recovered = mine_closed_patterns(lock_database, min_support=2, backend=backend)
    assert recovered.patterns == serial.patterns
    assert recovered.stats.extra["units_deadline_split"] == 1
    assert recovered.stats.extra["units_retried"] == 1


@fork_only
@pytest.mark.skipif(
    not os.environ.get("REPRO_FAULTS"),
    reason="chaos stress scenario; set REPRO_FAULTS=1 to run",
)
def test_chaos_kills_on_a_realistic_workload(small_transaction_traces):
    # Same mining parameters as the JBoss case-study tests: without the
    # absorption pruning this workload's closed-pattern search space is
    # intractable.
    kwargs = dict(min_support=4, adjacent_absorption_pruning=True)
    serial = mine_closed_patterns(small_transaction_traces, **kwargs)
    faults.install("engine.unit", "kill", count=3)
    # unit_retries=3: even if all three kills land on the same unit it
    # stays within budget (this test is about recovery, not quarantine).
    backend = WorkStealingBackend(workers=4, unit_retries=3)
    recovered = mine_closed_patterns(small_transaction_traces, backend=backend, **kwargs)
    assert recovered.patterns == serial.patterns
    assert recovered.stats.extra["workers_lost"] == 3
