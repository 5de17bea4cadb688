"""MiningCheckpoint: identity keying, replay, and resume planning."""

from collections import namedtuple

from repro.durability.checkpoint import (
    JOURNAL_NAME,
    MiningCheckpoint,
    file_fingerprint,
    miner_config_token,
    unit_key,
)
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig

# unit_key only reads .kind and .path; a namedtuple stands in for the
# engine's WorkUnit (and pickles cleanly, which record_spawn requires).
FakeUnit = namedtuple("FakeUnit", "kind path")

IDENTITY = {"database": "abc123", "miner": "M", "config": "M()"}


def test_records_survive_reopen(tmp_path):
    root = FakeUnit("expand", (0,))
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        ckpt.record_unit(root, "outcome-0")
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        cached, remaining = ckpt.plan_resume([root, FakeUnit("expand", (1,))])
        assert cached == ["outcome-0"]
        assert remaining == [FakeUnit("expand", (1,))]


def test_identity_mismatch_discards_journal(tmp_path):
    root = FakeUnit("expand", (0,))
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        ckpt.record_unit(root, "outcome-0")
    other = dict(IDENTITY, config="M(min_support=3)")
    with MiningCheckpoint(tmp_path, other) as ckpt:
        cached, remaining = ckpt.plan_resume([root])
        assert cached == []
        assert remaining == [root]
        assert ckpt.entries == 0


def test_plan_resume_walks_spawn_lineage(tmp_path):
    root = FakeUnit("expand", (0,))
    child_a = FakeUnit("expand", (0, 0))
    child_b = FakeUnit("expand", (0, 1))
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        ckpt.record_spawn(root, (child_a, child_b))
        ckpt.record_unit(root, "root-out")
        ckpt.record_unit(child_a, "a-out")
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        cached, remaining = ckpt.plan_resume([root])
        # The root completed, so its journaled children are walked: A's
        # outcome is reused, B still needs mining.
        assert cached == ["root-out", "a-out"]
        assert remaining == [child_b]


def test_children_of_incomplete_unit_not_reused(tmp_path):
    root = FakeUnit("expand", (0,))
    child = FakeUnit("expand", (0, 0))
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        ckpt.record_spawn(root, (child,))
        ckpt.record_unit(child, "child-out")
        # root itself never completed
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        cached, remaining = ckpt.plan_resume([root])
        # Re-running root re-covers the whole subtree; reusing the stale
        # child would double-count its records.
        assert cached == []
        assert remaining == [root]


def test_orphan_discards_subtree(tmp_path):
    root = FakeUnit("expand", (0,))
    child = FakeUnit("expand", (0, 0))
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        ckpt.record_spawn(root, (child,))
        ckpt.record_unit(child, "child-out")
        ckpt.record_unit(root, "root-out")
        ckpt.record_orphan(root)
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        cached, remaining = ckpt.plan_resume([root])
        assert cached == []
        assert remaining == [root]


def test_torn_tail_costs_only_the_torn_entry(tmp_path):
    first = FakeUnit("expand", (0,))
    second = FakeUnit("expand", (1,))
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        ckpt.record_unit(first, "one")
        ckpt.record_unit(second, "two")
    with open(tmp_path / JOURNAL_NAME, "r+b") as handle:
        handle.truncate(handle.seek(0, 2) - 3)  # tear the last frame
    with MiningCheckpoint(tmp_path, IDENTITY) as ckpt:
        cached, remaining = ckpt.plan_resume([first, second])
        assert cached == ["one"]
        assert remaining == [second]


def test_unit_key_is_kind_and_path():
    assert unit_key(FakeUnit("expand", [1, 2])) == ("expand", (1, 2))


def test_miner_config_token_renders_full_config():
    miner = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2.0))
    token = miner_config_token(miner)
    assert token.startswith("ClosedIterativePatternMiner(")
    assert "min_support=2.0" in token
    # Two identically configured miners share one identity; a changed
    # threshold changes it (this is what keys both persistence layers).
    same = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2.0))
    other = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=3.0))
    assert miner_config_token(same) == token
    assert miner_config_token(other) != token


def test_file_fingerprint_tracks_content(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("hello")
    first = file_fingerprint(path)
    assert first.startswith("file:")
    path.write_text("changed")
    assert file_fingerprint(path) != first
