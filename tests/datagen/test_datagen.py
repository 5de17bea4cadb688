"""Tests for the QUEST-style generator, profiles and noise utilities."""

import pytest

from repro.core.errors import ConfigurationError
from repro.datagen.noise import (
    drop_events,
    inject_noise_events,
    interleave_databases,
    shuffle_windows,
)
from repro.datagen.profiles import (
    PAPER_PROFILE,
    available_profiles,
    generate_profile,
    profile,
    scaled_profile,
)
from repro.datagen.quest import QuestConfig, generate_quest_database
from repro.core.sequence import SequenceDatabase


def _small_config(**overrides):
    defaults = dict(
        num_sequences=50,
        avg_sequence_length=12,
        num_events=40,
        avg_pattern_length=4,
        num_patterns=10,
        seed=3,
    )
    defaults.update(overrides)
    return QuestConfig(**defaults)


def test_generator_produces_requested_number_of_sequences():
    db = generate_quest_database(_small_config())
    assert len(db) == 50
    assert all(len(db[i]) >= 1 for i in range(len(db)))


def test_generator_average_length_is_close_to_c():
    db = generate_quest_database(_small_config(num_sequences=300))
    assert 8 <= db.average_length() <= 16


def test_generator_alphabet_is_bounded_by_n():
    db = generate_quest_database(_small_config())
    assert db.alphabet_size() <= 40
    assert all(str(label).startswith("e") for label in db.labels())


def test_generator_is_deterministic_for_a_seed():
    first = generate_quest_database(_small_config(seed=11))
    second = generate_quest_database(_small_config(seed=11))
    assert list(first) == list(second)
    third = generate_quest_database(_small_config(seed=12))
    assert list(first) != list(third)


def test_generator_plants_repeated_patterns():
    # With low corruption and noise, some subsequence of length >= 2 must
    # appear in many sequences (the planted frequent patterns).
    from tests.baselines.sequential import mine_sequential_patterns

    db = generate_quest_database(
        _small_config(corruption_probability=0.1, noise_probability=0.05, num_sequences=80)
    )
    result = mine_sequential_patterns(db, min_support=8, max_length=2)
    assert any(len(pattern) >= 2 for pattern in result)


def test_quest_config_validation():
    with pytest.raises(ConfigurationError):
        QuestConfig(num_sequences=0)
    with pytest.raises(ConfigurationError):
        QuestConfig(avg_pattern_length=1)
    with pytest.raises(ConfigurationError):
        QuestConfig(noise_probability=1.5)


def test_config_describe_matches_paper_naming():
    config = QuestConfig(
        num_sequences=5000, avg_sequence_length=20, num_events=10000, avg_pattern_length=20
    )
    assert config.describe() == "D5C20N10S20"


def test_paper_profile_exists_and_matches_parameters():
    config = profile(PAPER_PROFILE)
    assert config.num_sequences == 5000
    assert config.avg_sequence_length == 20
    assert config.num_events == 10000
    assert config.avg_pattern_length == 20
    assert PAPER_PROFILE in available_profiles()


def test_profile_parsing_of_arbitrary_names():
    config = profile("D2C15N1S6")
    assert config.num_sequences == 2000
    assert config.avg_sequence_length == 15
    assert config.num_events == 1000
    assert config.avg_pattern_length == 6


def test_unknown_profile_rejected():
    with pytest.raises(ConfigurationError):
        profile("not-a-profile")


def test_scaled_profile_scales_d_and_n_only():
    scaled = scaled_profile(PAPER_PROFILE, scale=0.01)
    assert scaled.num_sequences == 50
    assert scaled.num_events == 100
    assert scaled.avg_sequence_length == 20
    assert scaled.avg_pattern_length == 20
    with pytest.raises(ConfigurationError):
        scaled_profile(PAPER_PROFILE, scale=0)


def test_generate_profile_returns_database():
    db = generate_profile(PAPER_PROFILE, scale=0.01, seed=5)
    assert len(db) == 50


# --------------------------------------------------------------------- #
# Noise utilities
# --------------------------------------------------------------------- #
def _toy_db():
    return SequenceDatabase.from_sequences([["a", "b", "c"], ["d", "e"]])


def test_inject_noise_preserves_original_order():
    noisy = inject_noise_events(_toy_db(), ["N1", "N2"], probability=1.0, seed=1)
    for index, original in enumerate(_toy_db()):
        filtered = [event for event in noisy[index] if event in original]
        assert tuple(filtered) == original
        assert len(noisy[index]) == 2 * len(original)


def test_inject_noise_requires_noise_events():
    with pytest.raises(ConfigurationError):
        inject_noise_events(_toy_db(), [], probability=0.5)


def test_drop_events_never_empties_a_sequence():
    dropped = drop_events(_toy_db(), probability=1.0, seed=2)
    assert all(len(dropped[i]) >= 1 for i in range(len(dropped)))
    untouched = drop_events(_toy_db(), probability=0.0)
    assert list(untouched) == list(_toy_db())


def test_shuffle_windows_preserves_multiset():
    shuffled = shuffle_windows(_toy_db(), window=2, probability=1.0, seed=3)
    for index, original in enumerate(_toy_db()):
        assert sorted(shuffled[index]) == sorted(original)


def test_shuffle_windows_validation():
    with pytest.raises(ConfigurationError):
        shuffle_windows(_toy_db(), window=1)


def test_interleave_databases_preserves_relative_order():
    first = SequenceDatabase.from_sequences([["a1", "a2", "a3"]])
    second = SequenceDatabase.from_sequences([["b1", "b2"]])
    merged = interleave_databases(first, second, seed=4)
    assert len(merged) == 1
    events = list(merged[0])
    assert [e for e in events if e.startswith("a")] == ["a1", "a2", "a3"]
    assert [e for e in events if e.startswith("b")] == ["b1", "b2"]
    assert len(events) == 5
