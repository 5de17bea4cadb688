"""Online specification serving: compiled automata, monitors, network plane.

The offline layers mine specifications from a finished corpus; this package
serves them against *live* traffic:

* :mod:`repro.serving.compile` — compile a rule set (or a specification
  repository) into a :class:`CompiledRuleSet`: a shared premise trie plus
  the per-rule tables read when a trace closes;
* :mod:`repro.serving.stream_monitor` — :class:`StreamingMonitor`, the
  incremental checker (``feed`` / ``end_trace`` / ``report``) emitting
  exactly the violations the rule semantics (Definition 5.1 temporal
  points) define.  ``feed`` is O(1) per event and touches no rule (an open
  trace holds one int per rule-relevant event); ``end_trace`` settles
  the armed rules one (trie node, last premise event) group at a time,
  in O(armed groups · log n + armed rules · log n);
* :mod:`repro.serving.pool` — :class:`MonitorPool`, the multi-tenant layer:
  worker shards with bounded queues and ``BUSY`` backpressure,
  consistent-hash session→shard affinity, generation-numbered hot swap of
  the shared compiled rule set, and deterministic report aggregation;
* :mod:`repro.serving.server` — :class:`EventPushServer` /
  :class:`PushClient`, the TCP front end speaking a length-prefixed JSON
  frame protocol (``EVENT``/``BATCH``/``END``/``STATS``/``REPORT``/``SWAP``),
  multiplexing logical sessions over connections (the ``repro serve``
  command);
* :mod:`repro.serving.daemon` — :class:`WatchDaemon`, the poll-based
  mine→serve→monitor loop: tail a directory into a
  :class:`~repro.ingest.store.TraceStore`, refresh an
  :class:`~repro.ingest.incremental.IncrementalMiner` on appends, hot-swap
  the compiled rule set, and monitor the new traces against it — with an
  optional push mode that hosts the socket front end and hot-swaps the
  pool alongside the daemon's own automaton.

``docs/serving.md`` documents the wire protocol and operations;
``docs/architecture.md`` places the serving plane in the end-to-end
dataflow.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "compile": ("CompiledRuleSet", "compile_rules"),
        "daemon": ("WatchCycle", "WatchDaemon"),
        "pool": ("ACCEPTED", "BUSY", "SESSION_LOST", "MonitorPool", "SessionTicket"),
        "server": ("EventPushServer", "ProtocolError", "PushClient", "encode_frame", "read_frame"),
        "stream_monitor": ("StreamingMonitor",),
    },
)
