"""Core substrate: events, sequences, databases and iterative-pattern semantics.

The :mod:`repro.core` package holds everything shared by the two mining
techniques of the paper (iterative patterns, recurrent rules) and by the
baseline miners: the event vocabulary, sequence database, per-event position
indexes, the QRE instance semantics of Definition 4.1, pattern algebra and
mining statistics.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "errors": (
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
        "blocks": ("BlockBuilder", "InstanceBlock", "PositionBlock", "PositionBlockBuilder"),
        "events": ("EventId", "EventLabel", "EventVocabulary"),
        "instances": (
            "PatternInstance",
            "find_instances",
            "find_instances_in_sequence",
            "instance_support",
            "instances_correspond",
            "sequence_support",
        ),
        "pattern": (
            "alphabet",
            "as_pattern",
            "concat",
            "first",
            "format_pattern",
            "is_proper_subsequence",
            "is_subsequence",
            "is_supersequence",
            "last",
            "prefixes",
            "subpatterns",
            "suffixes",
        ),
        "positions": ("PositionIndex", "SequencePositions"),
        "sequence": ("Sequence", "SequenceDatabase"),
        "stats": ("MiningStats", "Timer"),
    },
)
