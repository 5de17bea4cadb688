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
"""

from .core import (
    EventVocabulary,
    MiningStats,
    PatternInstance,
    Sequence,
    SequenceDatabase,
)
from .core.errors import (
    ConfigurationError,
    DataFormatError,
    ExecutionFault,
    MonitoringError,
    PatternError,
    ReproError,
    ServingTimeout,
    SessionLost,
    VocabularyError,
)
from .datagen import QuestConfig, QuestGenerator, generate_profile
from .engine import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from .ltl import holds, ltl_to_rule, parse_ltl, rule_to_ltl
from .patterns import (
    ClosedIterativePatternMiner,
    FullIterativePatternMiner,
    GeneratorPatternMiner,
    IterativeMiningConfig,
    MinedPattern,
    PatternMiningResult,
    mine_closed_patterns,
    mine_frequent_patterns,
    mine_generators,
)
from .rules import (
    FullRecurrentRuleMiner,
    NonRedundantRecurrentRuleMiner,
    RecurrentRule,
    RuleMiningConfig,
    RuleMiningResult,
    mine_all_rules,
    mine_non_redundant_rules,
)
from .serving import CompiledRuleSet, StreamingMonitor, WatchDaemon, compile_rules
from .specs import SpecificationRepository, chart_from_pattern, rank_patterns, rank_rules
from .traces import Trace, TraceCollector, instrument, read_traces, write_traces
from .verification import coverage_of

__version__ = "1.0.0"

__all__ = [
    "EventVocabulary",
    "MiningStats",
    "PatternInstance",
    "Sequence",
    "SequenceDatabase",
    "ConfigurationError",
    "DataFormatError",
    "ExecutionFault",
    "MonitoringError",
    "PatternError",
    "ReproError",
    "ServingTimeout",
    "SessionLost",
    "VocabularyError",
    "QuestConfig",
    "QuestGenerator",
    "generate_profile",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "resolve_backend",
    "holds",
    "ltl_to_rule",
    "parse_ltl",
    "rule_to_ltl",
    "ClosedIterativePatternMiner",
    "FullIterativePatternMiner",
    "GeneratorPatternMiner",
    "IterativeMiningConfig",
    "MinedPattern",
    "PatternMiningResult",
    "mine_closed_patterns",
    "mine_frequent_patterns",
    "mine_generators",
    "FullRecurrentRuleMiner",
    "NonRedundantRecurrentRuleMiner",
    "RecurrentRule",
    "RuleMiningConfig",
    "RuleMiningResult",
    "mine_all_rules",
    "mine_non_redundant_rules",
    "CompiledRuleSet",
    "StreamingMonitor",
    "WatchDaemon",
    "compile_rules",
    "SpecificationRepository",
    "chart_from_pattern",
    "rank_patterns",
    "rank_rules",
    "Trace",
    "TraceCollector",
    "instrument",
    "read_traces",
    "write_traces",
    "coverage_of",
    "__version__",
]
