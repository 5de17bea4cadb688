"""Synthetic data generation (the paper's IBM QUEST-style generator)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "noise": ("drop_events", "inject_noise_events", "interleave_databases", "shuffle_windows"),
        "profiles": (
            "PAPER_PROFILE",
            "available_profiles",
            "generate_profile",
            "profile",
            "scaled_profile",
        ),
        "quest": ("QuestConfig", "QuestGenerator", "generate_quest_database"),
    },
)
