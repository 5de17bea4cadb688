"""Streaming trace ingestion and incremental mining.

Three layers, each usable on its own:

* :mod:`repro.ingest.formats` — streaming format adapters (text, JSONL,
  CSV, each with a transparent ``.gz`` variant) that parse trace files one
  trace at a time with bounded memory, plus label interning so events are
  small integer ids end-to-end;
* :mod:`repro.ingest.store` — :class:`TraceStore`, an append-only on-disk
  store of compactly encoded traces with a manifest of per-batch offsets,
  statistics and chained content fingerprints;
* :mod:`repro.ingest.incremental` — :class:`IncrementalMiner`, which keeps
  mining state alive across store appends and re-mines only the first-level
  roots an appended batch could have touched, producing output bit-identical
  to a full re-mine on every execution backend.
"""

from .._lazy import lazy_exports

#: Default number of traces per chunk in
#: :func:`~repro.ingest.formats.stream_batches`.  Defined here rather than
#: in the formats module so the CLI parser can show it without loading the
#: format adapters (and ``csv`` and ``gzip`` with them).
DEFAULT_BATCH_SIZE = 1024

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "formats": (
            "EncodedTrace",
            "FormatAdapter",
            "TraceRecord",
            "adapter_for",
            "format_for_path",
            "register_format",
            "registered_formats",
            "stream_batches",
            "stream_encoded_traces",
            "stream_traces",
            "write_trace_records",
        ),
        "incremental": ("IncrementalMiner", "RefreshReport"),
        "store": ("BatchInfo", "TraceStore"),
    },
)
__all__.append("DEFAULT_BATCH_SIZE")
