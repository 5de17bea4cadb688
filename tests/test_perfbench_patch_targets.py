"""The benchmark's traced mode patches the program by name; pin those names.

``perfbench/tracer.py`` wraps 29 functions, methods and module globals
where the program calls them.  A rename or a call that bypasses the patched
name would silently drop a layer from the benchmark's ledger, so this test
installs every wrapper on a real ``Tracer``, checks each target resolved,
then mines once and serves a few sessions in process to check every layer
is really reached through the patched names.
"""

import importlib.util
from pathlib import Path

from repro.core.sequence import SequenceDatabase
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.rules.rule import RecurrentRule
from repro.serving.pool import MonitorPool
from repro.serving.server import EventPushServer, PushClient

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: How many targets the four installers patch.
PATCH_TARGETS = 29


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _install_all(module):
    tracer = module.Tracer()
    for install in (
        module.install_ingest,
        module.install_engine,
        module.install_miner,
        module.install_serving,
    ):
        install(tracer)
    return tracer


def test_every_patch_target_resolves_and_restores():
    module = _load_tracer_module()
    tracer = _install_all(module)
    try:
        targets = list(tracer._undo)
        assert len(targets) == PATCH_TARGETS
        for owner, attribute, original in targets:
            assert getattr(owner, attribute) is not original, (owner, attribute)
    finally:
        tracer.restore()
    for owner, attribute, original in targets:
        assert getattr(owner, attribute) is original, (owner, attribute)


def test_mining_layers_are_reached_through_the_patched_names():
    module = _load_tracer_module()
    database = SequenceDatabase.from_sequences(
        [
            ["open", "read", "close", "open", "write", "close"],
            ["open", "write", "close"],
            ["open", "read", "read", "close", "lock", "unlock"],
            ["lock", "open", "close", "unlock"],
        ]
    )
    tracer = _install_all(module)
    try:
        tracer.min_support = 2
        ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2)).mine(database)
        NonRedundantRecurrentRuleMiner(
            RuleMiningConfig(min_s_support=2, min_confidence=0.5)
        ).mine(database)
        calls = tracer.snapshot()["calls"]
    finally:
        tracer.restore()
    for layer in (
        "engine.execute",
        "engine.plan",
        "engine.collect",
        "positions.build",
        "projection",
        "closure",
        "premise",
        "consequent",
        "redundancy",
    ):
        assert calls.get(layer, 0) > 0, layer


def test_serving_layers_are_reached_through_the_patched_names():
    module = _load_tracer_module()
    tracer = module.Tracer()
    module.install_serving(tracer)
    try:
        rules = [
            RecurrentRule(
                premise=("open",), consequent=("close",), s_support=2, i_support=2,
                confidence=1.0,
            )
        ]
        with MonitorPool(rules, shards=2, queue_depth=64) as pool:
            server = EventPushServer(pool, port=0)
            server.start()
            try:
                with PushClient(*server.address) as client:
                    client.feed_batch("good", ["open", "close"])
                    client.end("good")
                    client.feed_batch("bad", ["open"])
                    client.end("bad")
                    client.stats()
                    client.analytics()
                    client.report()
            finally:
                server.close()
        calls = tracer.snapshot()["calls"]
    finally:
        tracer.restore()
    for layer in (
        "compile",
        "server.decode",
        "server.encode",
        "server.dispatch",
        "pool.admit",
        "pool.ticket_wait",
        "monitor.feed",
        "monitor.close",
        "report.merge",
        "obs.scrape",
    ):
        assert calls.get(layer, 0) > 0, layer
