"""repro — mining patterns and rules for software specification discovery.

A from-scratch reproduction of Lo & Khoo, *"Mining Patterns and Rules for
Software Specification Discovery"*, VLDB 2008: closed iterative pattern
mining, non-redundant recurrent rule mining, the full miners they are
compared against, the LTL view of mined rules, an IBM QUEST-style synthetic
generator, a simulated JBoss substrate for the case studies, and runtime
monitoring of the mined specifications.

Quickstart::

    from repro import SequenceDatabase, mine_closed_patterns, mine_non_redundant_rules

    db = SequenceDatabase.from_sequences([
        ["lock", "use", "unlock", "lock", "unlock"],
        ["lock", "read", "unlock"],
    ])
    patterns = mine_closed_patterns(db, min_support=3)
    rules = mine_non_redundant_rules(db, min_s_support=2, min_confidence=0.9)

Importing the package loads none of its subpackages: each name below is
resolved when first looked up (:mod:`repro._lazy`), so ``from repro import
X`` loads only the module that defines ``X`` and what it imports.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core.events": ("EventVocabulary",),
        "core.stats": ("MiningStats",),
        "core.instances": ("PatternInstance",),
        "core.sequence": ("Sequence", "SequenceDatabase"),
        "core.errors": (
            "ConfigurationError",
            "DataFormatError",
            "ExecutionFault",
            "MonitoringError",
            "PatternError",
            "ReproError",
            "ServingTimeout",
            "SessionLost",
            "VocabularyError",
        ),
        "datagen.quest": ("QuestConfig", "QuestGenerator"),
        "datagen.profiles": ("generate_profile",),
        "engine.backend": (
            "ExecutionBackend",
            "ProcessPoolBackend",
            "SerialBackend",
            "resolve_backend",
        ),
        "ltl.semantics": ("holds",),
        "ltl.translate": ("ltl_to_rule", "rule_to_ltl"),
        "ltl.parser": ("parse_ltl",),
        "patterns.closed_miner": ("ClosedIterativePatternMiner", "mine_closed_patterns"),
        "patterns.full_miner": ("FullIterativePatternMiner", "mine_frequent_patterns"),
        "patterns.generators": ("GeneratorPatternMiner", "mine_generators"),
        "patterns.config": ("IterativeMiningConfig",),
        "patterns.result": ("MinedPattern", "PatternMiningResult"),
        "rules.full_miner": ("FullRecurrentRuleMiner", "mine_all_rules"),
        "rules.nonredundant_miner": (
            "NonRedundantRecurrentRuleMiner",
            "mine_non_redundant_rules",
        ),
        "rules.rule": ("RecurrentRule",),
        "rules.config": ("RuleMiningConfig",),
        "rules.result": ("RuleMiningResult",),
        "serving.compile": ("CompiledRuleSet", "compile_rules"),
        "serving.stream_monitor": ("StreamingMonitor",),
        "serving.daemon": ("WatchDaemon",),
        "specs.repository": ("SpecificationRepository",),
        "specs.chart": ("chart_from_pattern",),
        "specs.ranking": ("rank_patterns", "rank_rules"),
        "traces.trace": ("Trace", "TraceCollector"),
        "traces.instrument": ("instrument",),
        "traces.io": ("read_traces", "write_traces"),
        "verification.coverage": ("coverage_of",),
    },
)
__all__ += ["__version__"]
