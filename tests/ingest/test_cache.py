"""Persisted record-cache tests: cross-process incremental mining.

The cache file in the store directory must make a *new*
:class:`IncrementalMiner` (a later CLI invocation, a restarted daemon)
behave exactly like the long-lived instance would have — delta re-mines
with bit-identical output — and must be discarded, never trusted, on any
store-fingerprint or configuration mismatch.
"""

import pickle

from repro.engine import ProcessPoolBackend
from repro.ingest import IncrementalMiner, TraceStore
from repro.patterns.closed_miner import ClosedIterativePatternMiner, mine_closed_patterns
from repro.patterns.config import IterativeMiningConfig
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import (
    NonRedundantRecurrentRuleMiner,
    mine_non_redundant_rules,
)


def _pattern_miner(min_support=2):
    return ClosedIterativePatternMiner(IterativeMiningConfig(min_support=min_support))


def _base_store(tmp_path):
    store = TraceStore(tmp_path / "store")
    base = []
    for _ in range(3):
        for letter in "abcdefgh":
            base.append([letter, "x", letter, "x"])
    store.append_batch(base)
    return store


def test_fresh_miner_resumes_from_persisted_cache(tmp_path):
    store = _base_store(tmp_path)
    IncrementalMiner(_pattern_miner(), store, persist=True).refresh()

    store.append_batch([["a", "x", "a"], ["a", "a"]])
    resumed = IncrementalMiner(_pattern_miner(), store, persist=True)
    assert resumed.resumed_from_cache
    result, report = resumed.refresh()
    assert not report.full_remine
    assert 0 < report.roots_remined < report.roots_total
    assert result.patterns == mine_closed_patterns(store.snapshot(), min_support=2).patterns


def test_cache_roundtrip_without_new_batches_is_a_noop_refresh(tmp_path):
    store = _base_store(tmp_path)
    first, _ = IncrementalMiner(_pattern_miner(), store, persist=True).refresh()
    resumed = IncrementalMiner(_pattern_miner(), store, persist=True)
    result, report = resumed.refresh()
    assert report.roots_remined == 0 and not report.full_remine
    assert result.patterns == first.patterns


def test_cache_works_for_rule_miners_across_instances(tmp_path):
    store = _base_store(tmp_path)
    config = RuleMiningConfig(min_s_support=2, min_confidence=0.5)
    IncrementalMiner(NonRedundantRecurrentRuleMiner(config), store, persist=True).refresh()
    store.append_batch([["a", "x", "a"], ["a", "x"]])
    resumed = IncrementalMiner(
        NonRedundantRecurrentRuleMiner(config), store, persist=True
    )
    assert resumed.resumed_from_cache
    result, report = resumed.refresh()
    assert not report.full_remine
    assert result.rules == mine_non_redundant_rules(
        store.snapshot(), min_s_support=2, min_confidence=0.5
    ).rules


def test_cached_records_replay_on_any_backend(tmp_path):
    store = _base_store(tmp_path)
    IncrementalMiner(_pattern_miner(), store, persist=True).refresh()
    store.append_batch([["a", "x", "a"]])
    backend = ProcessPoolBackend(workers=1, eager_split=True, split_depth=4)
    result, report = IncrementalMiner(
        _pattern_miner(), store, backend=backend, persist=True
    ).refresh()
    assert not report.full_remine
    assert result.patterns == mine_closed_patterns(store.snapshot(), min_support=2).patterns


def test_config_mismatch_discards_the_cache(tmp_path):
    store = _base_store(tmp_path)
    IncrementalMiner(_pattern_miner(min_support=2), store, persist=True).refresh()
    other = IncrementalMiner(_pattern_miner(min_support=3), store, persist=True)
    assert not other.resumed_from_cache
    result, report = other.refresh()
    assert report.full_remine
    assert result.patterns == mine_closed_patterns(store.snapshot(), min_support=3).patterns


def test_miner_class_mismatch_discards_the_cache(tmp_path):
    store = _base_store(tmp_path)
    miner = _pattern_miner()
    incremental = IncrementalMiner(miner, store, persist=True)
    incremental.refresh()
    # Same path, different miner class: the identity token arbitrates.
    rule_miner = NonRedundantRecurrentRuleMiner(
        RuleMiningConfig(min_s_support=2, min_confidence=0.5)
    )
    other = IncrementalMiner(
        rule_miner, store, cache_path=IncrementalMiner.default_cache_path(store, miner)
    )
    assert not other.resumed_from_cache


def test_store_fingerprint_mismatch_discards_the_cache(tmp_path):
    store = _base_store(tmp_path)
    cache_path = IncrementalMiner.default_cache_path(store, _pattern_miner())
    IncrementalMiner(_pattern_miner(), store, persist=True).refresh()

    # A different corpus at the same directory: rebuild the store from
    # scratch (different traces => different fingerprint chain).
    store.data_path.unlink()
    store.manifest_path.unlink()
    rebuilt = TraceStore(store.directory)
    rebuilt.append_batch([["z", "z"], ["z"]])
    assert cache_path.is_file()
    cold = IncrementalMiner(_pattern_miner(), rebuilt, persist=True)
    assert not cold.resumed_from_cache
    result, report = cold.refresh()
    assert report.full_remine
    assert result.patterns == mine_closed_patterns(rebuilt.snapshot(), min_support=2).patterns


def test_corrupt_cache_file_is_ignored(tmp_path):
    store = _base_store(tmp_path)
    IncrementalMiner(_pattern_miner(), store, persist=True).refresh()
    path = IncrementalMiner.default_cache_path(store, _pattern_miner())
    path.write_bytes(b"not a pickle")
    cold = IncrementalMiner(_pattern_miner(), store, persist=True)
    assert not cold.resumed_from_cache
    result, report = cold.refresh()
    assert report.full_remine
    assert result.patterns == mine_closed_patterns(store.snapshot(), min_support=2).patterns


def test_unknown_cache_version_is_ignored(tmp_path):
    store = _base_store(tmp_path)
    IncrementalMiner(_pattern_miner(), store, persist=True).refresh()
    path = IncrementalMiner.default_cache_path(store, _pattern_miner())
    payload = pickle.loads(path.read_bytes())
    payload["version"] = 999
    path.write_bytes(pickle.dumps(payload))
    assert not IncrementalMiner(_pattern_miner(), store, persist=True).resumed_from_cache


def test_without_persist_no_cache_file_is_written(tmp_path):
    store = _base_store(tmp_path)
    IncrementalMiner(_pattern_miner(), store).refresh()
    assert not (store.directory / "cache").exists()


def test_relative_threshold_move_invalidates_via_resolution(tmp_path):
    """A persisted cache saved at one corpus size must not survive a
    relative threshold resolving differently after more appends."""
    store = TraceStore(tmp_path / "store")
    store.append_batch([["a", "b"], ["a", "b"]])
    miner = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=0.5))
    IncrementalMiner(miner, store, persist=True).refresh()
    store.append_batch([["c"], ["c"]])  # threshold 1 -> 2
    resumed = IncrementalMiner(
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=0.5)),
        store,
        persist=True,
    )
    assert resumed.resumed_from_cache  # the prefix still matches...
    result, report = resumed.refresh()
    assert report.full_remine  # ...but the threshold move forces a full mine
    assert "threshold" in report.reason
    assert result.patterns == mine_closed_patterns(store.snapshot(), min_support=0.5).patterns


def test_config_token_is_stable_across_hash_seeds(tmp_path):
    """repr(frozenset) follows the per-process hash seed; the cache token
    must not, or persist=True would silently full-remine every process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    script = (
        "from repro.ingest import IncrementalMiner, TraceStore\n"
        "from repro.rules.config import RuleMiningConfig\n"
        "from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner\n"
        "import sys\n"
        "store = TraceStore(sys.argv[1])\n"
        "config = RuleMiningConfig(min_s_support=2, min_confidence=0.5,\n"
        "    allowed_premise_events=frozenset({'alpha', 'beta', 'gamma', 'delta'}))\n"
        "m = IncrementalMiner(NonRedundantRecurrentRuleMiner(config), store)\n"
        "print(m._config_token())\n"
    )
    tokens = set()
    for seed in ("1", "7"):
        # The child needs the package importable even when the suite runs
        # from a source checkout via pytest's pythonpath (no env var set).
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_dir, env.get("PYTHONPATH")) if part
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / f"store-{seed}")],
            capture_output=True, text=True, check=True, env=env,
        )
        tokens.add(result.stdout.strip())
    assert len(tokens) == 1, tokens
    (token,) = tokens
    assert "'alpha', 'beta', 'delta', 'gamma'" in token


def test_persisted_cache_survives_across_hash_seeds_with_set_config(tmp_path):
    store = _base_store(tmp_path)
    config = RuleMiningConfig(
        min_s_support=2, min_confidence=0.5,
        allowed_premise_events=frozenset({"a", "b", "c", "x"}),
    )
    IncrementalMiner(NonRedundantRecurrentRuleMiner(config), store, persist=True).refresh()
    resumed = IncrementalMiner(
        NonRedundantRecurrentRuleMiner(
            RuleMiningConfig(
                min_s_support=2, min_confidence=0.5,
                allowed_premise_events=frozenset({"x", "c", "b", "a"}),
            )
        ),
        store,
        persist=True,
    )
    assert resumed.resumed_from_cache
