"""A small repository for mined specifications.

Mining runs produce patterns and rules; downstream uses (program
comprehension, runtime verification, documentation) want to store, query and
serialise them together.  :class:`SpecificationRepository` holds both kinds,
supports querying by event, converts rules to their LTL form and round-trips
through JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

from ..core.errors import DataFormatError
from ..core.events import EventLabel
from ..durability.journal import atomic_write_text
from ..rules.rule import RecurrentRule

if TYPE_CHECKING:
    from ..patterns.result import MinedPattern, PatternMiningResult
    from ..rules.result import RuleMiningResult

PathLike = Union[str, Path]


class SpecificationRepository:
    """Stores mined iterative patterns and recurrent rules."""

    def __init__(self, name: str = "specifications") -> None:
        self.name = name
        self._patterns: List[MinedPattern] = []
        self._rules: List[RecurrentRule] = []
        #: Provenance of the last refresh (store fingerprint and corpus
        #: statistics), round-tripped through the JSON form when present.
        self.source: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def add_pattern(self, pattern: MinedPattern) -> None:
        """Store a single mined pattern."""
        self._patterns.append(pattern)

    def add_rule(self, rule: RecurrentRule) -> None:
        """Store a single mined rule."""
        self._rules.append(rule)

    def add_pattern_result(self, result: PatternMiningResult) -> int:
        """Store every pattern of a mining result; returns the number stored."""
        for pattern in result.patterns:
            self.add_pattern(pattern)
        return len(result.patterns)

    def add_rule_result(self, result: RuleMiningResult) -> int:
        """Store every rule of a mining result; returns the number stored."""
        for rule in result.rules:
            self.add_rule(rule)
        return len(result.rules)

    def replace_rules(
        self,
        rules: Iterable[RecurrentRule],
        source: Optional[Dict[str, object]] = None,
    ) -> None:
        """Swap the stored rule set wholesale (patterns are untouched).

        The watch daemon calls this on every hot-swap: the re-mined rules
        replace the previous generation atomically, and ``source`` (store
        fingerprint and corpus statistics) records which corpus state the
        new generation reflects.
        """
        self._rules = list(rules)
        if source is not None:
            self.source = dict(source)

    @staticmethod
    def provenance_from(description: Dict[str, object]) -> Dict[str, object]:
        """The :attr:`source` payload for a trace-store ``describe()`` dict.

        One definition of "which corpus state produced these specs" shared
        by :meth:`refresh_from_store` and the watch daemon's hot swap.
        """
        return {
            "store": description.get("directory"),
            "fingerprint": description.get("fingerprint"),
            "batches": description.get("batches"),
            "traces": description.get("traces"),
            "events": description.get("events"),
        }

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def patterns(self) -> List[MinedPattern]:
        """All stored patterns."""
        return list(self._patterns)

    @property
    def rules(self) -> List[RecurrentRule]:
        """All stored rules."""
        return list(self._rules)

    def __len__(self) -> int:
        return len(self._patterns) + len(self._rules)

    def patterns_mentioning(self, event: EventLabel) -> List[MinedPattern]:
        """Patterns whose alphabet contains ``event``."""
        return [pattern for pattern in self._patterns if event in pattern.events]

    def rules_mentioning(self, event: EventLabel) -> List[RecurrentRule]:
        """Rules whose premise or consequent contains ``event``."""
        return [rule for rule in self._rules if event in rule.premise or event in rule.consequent]

    def rules_as_ltl(self) -> List[str]:
        """Every stored rule rendered as an LTL formula string."""
        return [rule.to_ltl() for rule in self._rules]

    # ------------------------------------------------------------------ #
    # Refreshing from a trace store
    # ------------------------------------------------------------------ #
    def refresh_from_store(
        self,
        store,
        pattern_miner=None,
        rule_miner=None,
        backend=None,
    ) -> "SpecificationRepository":
        """Replace this repository's contents from a trace-store snapshot.

        ``store`` is a :class:`~repro.ingest.store.TraceStore` (duck-typed:
        anything with ``snapshot()``/``describe()``); at least one of
        ``pattern_miner``/``rule_miner`` must be given and is run over the
        snapshot on the chosen backend.  The store's chained content
        fingerprint and corpus statistics are recorded in :attr:`source`,
        so a saved repository says exactly which corpus state it reflects.
        """
        if pattern_miner is None and rule_miner is None:
            raise DataFormatError(
                "refresh_from_store needs a pattern_miner and/or a rule_miner"
            )
        database = store.snapshot()
        # Mine before replacing anything: a miner that raises mid-run must
        # leave the repository exactly as it was, not emptied.
        patterns: List[MinedPattern] = []
        rules: List[RecurrentRule] = []
        if pattern_miner is not None:
            patterns = list(pattern_miner.mine(database, backend=backend).patterns)
        if rule_miner is not None:
            rules = list(rule_miner.mine(database, backend=backend).rules)
        self._patterns = patterns
        self._rules = rules
        self.source = self.provenance_from(store.describe())
        return self

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation of the whole repository."""
        payload: Dict[str, object] = {
            "name": self.name,
            "patterns": [pattern.as_dict() for pattern in self._patterns],
            "rules": [rule.as_dict() for rule in self._rules],
        }
        if self.source is not None:
            payload["source"] = self.source
        return payload

    def save(self, path: PathLike) -> None:
        """Write the repository to a JSON file, atomically and durably.

        Repositories are served from (and hot-swapped under a running
        daemon), so a crashed save must leave either the previous file or
        the new one — never a truncated mixture.
        """
        atomic_write_text(Path(path), json.dumps(self.to_dict(), indent=2))

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpecificationRepository":
        """Rebuild a repository from :meth:`to_dict` output."""
        if not isinstance(payload, dict) or "patterns" not in payload or "rules" not in payload:
            raise DataFormatError("not a specification repository payload")
        repository = cls(name=str(payload.get("name", "specifications")))
        source = payload.get("source")
        if isinstance(source, dict):
            repository.source = source
        if payload["patterns"]:
            # Only here: serving a rule-only repository loads no pattern code.
            from ..patterns.result import MinedPattern
        for entry in payload["patterns"]:
            repository.add_pattern(
                MinedPattern(events=tuple(entry["events"]), support=int(entry["support"]))
            )
        for entry in payload["rules"]:
            repository.add_rule(
                RecurrentRule(
                    premise=tuple(entry["premise"]),
                    consequent=tuple(entry["consequent"]),
                    s_support=int(entry["s_support"]),
                    i_support=int(entry["i_support"]),
                    confidence=float(entry["confidence"]),
                )
            )
        return repository

    @classmethod
    def load(cls, path: PathLike) -> "SpecificationRepository":
        """Read a repository previously written by :meth:`save`."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise DataFormatError(f"invalid repository file {path}: {error}") from error
        return cls.from_dict(payload)
