"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the seed and the parameters recorded
in ``workloads.json``.  The seed changes the inputs (event labels, noise
placement, the session mix, which sessions violate) but is chosen so that it does not
change the *amount* of work: a fresh QUEST draw changes the rule-mining
cost several-fold, which would make runs on different seeds incomparable,
so ``mine-quest`` mines one pinned QUEST database under a seeded
relabelling instead.  Its trace order stays put: event ids follow first
occurrence, and a reordering moves roots between the process pool's
shards, which alone made the 2-worker mine time bimodal across seeds.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Trace = List[str]


def write_jsonl(path: Path, traces: Sequence[Trace]) -> None:
    """Write traces in the program's ``jsonl`` trace format."""
    with open(path, "w") as handle:
        for index, events in enumerate(traces):
            handle.write(json.dumps({"name": f"t{index}", "events": list(events)}) + "\n")


def _fresh_labels(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct random lowercase labels (seeded)."""
    labels: List[str] = []
    seen = set()
    while len(labels) < count:
        label = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if label not in seen:
            seen.add(label)
            labels.append(label)
    return labels


def loops_traces(seed: int, params: Dict) -> List[Trace]:
    """Loop bodies repeated through every trace with interleaved noise.

    The shape of ``benchmarks/bench_hot_paths.py``: long instance lists and
    deep pattern growth.  The seed places the noise events.
    """
    rng = random.Random(seed)
    body = [f"l{event}" for event in range(params["loop_body"])]
    noise = [f"n{event}" for event in range(params["noise_alphabet"])]
    traces = []
    for _ in range(params["sequences"]):
        events: Trace = []
        for _ in range(params["repeats"]):
            for event in body:
                while rng.random() < params["noise_rate"]:
                    events.append(rng.choice(noise))
                events.append(event)
        traces.append(events)
    return traces


def quest_traces(seed: int, params: Dict) -> List[Trace]:
    """The paper's QUEST profile at a pinned draw, under seeded labels."""
    from repro.datagen import generate_profile

    database = generate_profile(
        params["profile"], scale=params["scale"], seed=params["quest_seed"]
    )
    rng = random.Random(seed)
    labels = sorted(database.vocabulary.labels())
    renamed = dict(zip(labels, _fresh_labels(rng, len(labels))))
    return [[renamed[event] for event in database[index]] for index in range(len(database))]


# --------------------------------------------------------------------- #
# Serving: the bench_serving rule fixture and the session traffic
# --------------------------------------------------------------------- #
def family_bodies(seed: int, params: Dict) -> Tuple[List[Trace], List[str]]:
    """Per-family loop bodies and commit events under seeded labels."""
    rng = random.Random(seed)
    families, body = params["families"], params["loop_body"]
    labels = _fresh_labels(rng, families * (body + 1))
    bodies = [labels[f * (body + 1): f * (body + 1) + body] for f in range(families)]
    commits = [labels[f * (body + 1) + body] for f in range(families)]
    return bodies, commits


def fixture_corpus(seed: int, params: Dict) -> List[Trace]:
    """The mining corpus the served rules come from (1200 rules)."""
    bodies, commits = family_bodies(seed, params)
    traces = []
    for body, commit in zip(bodies, commits):
        trace = body * params["mine_repeats"] + [commit]
        traces.extend(list(trace) for _ in range(params["traces_per_family"]))
    return traces


def session_events(seed: int, params: Dict, count: int, repeats: int, violate_every: int) -> List[Trace]:
    """``count`` sessions of ``repeats`` loop bodies plus a commit.

    Sessions pick their family at random; one in ``violate_every`` (chosen
    at random, exactly that share) omits its commit, so every pending
    point of those sessions is a violation.
    """
    bodies, commits = family_bodies(seed, params)
    rng = random.Random(seed * 7919 + count)
    violating = set(rng.sample(range(count), count // violate_every))
    sessions = []
    for index in range(count):
        family = rng.randrange(len(bodies))
        events = bodies[family] * repeats
        if index not in violating:
            events = events + [commits[family]]
        sessions.append(events)
    return sessions
