"""Durability: crash-safe journals, store auditing and compaction.

The package that makes long runs and long-lived stores survivable:

* :mod:`repro.durability.journal` — atomic/durable file writes and the
  CRC-framed append-only journal primitive;
* :mod:`repro.durability.checkpoint` — the mining checkpoint journal
  behind ``repro mine --resume``;
* :mod:`repro.durability.fsck` — the store integrity auditor behind
  ``repro fsck``;
* :mod:`repro.durability.compact` — store compaction and vocabulary GC
  behind ``repro compact`` / :meth:`TraceStore.compact`.

``fsck`` and ``compact`` import the ingest layer, which itself uses the
journal helpers; they export nothing here — consumers import the
submodules directly.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "checkpoint": ("MiningCheckpoint", "file_fingerprint", "miner_config_token"),
        "journal": ("JournalWriter", "atomic_write_bytes", "atomic_write_text", "read_frames"),
    },
)
