"""Command-line interface: ``repro-mine``.

Sub-commands cover the full workflow of the paper:

* ``generate``     — create a synthetic QUEST-style dataset (Section 6);
* ``jboss``        — produce the simulated JBoss case-study traces (Section 7);
* ``ingest``       — stream trace files into an append-only trace store;
* ``mine-patterns``— mine frequent / closed iterative patterns (Section 4);
* ``mine-rules``   — mine full / non-redundant recurrent rules (Section 5);
* ``fsck``         — audit a trace store's integrity (chained fingerprints,
  torn tails, stale caches and checkpoints; exit 0/1/2 for
  clean/repaired/corrupt);
* ``compact``      — rewrite a store dropping deleted batches and
  garbage-collecting unreferenced vocabulary labels into a new
  fingerprint lineage;
* ``monitor``      — check a specification repository against traces
  (``--stream`` reads the file one trace at a time, in bounded memory);
* ``watch``        — the serving daemon: tail a directory into a store,
  re-mine incrementally, hot-swap the compiled rules, monitor new traces
  (``--push-port`` additionally hosts the event-push socket front end);
* ``serve``        — the network serving plane alone: load a specification
  repository and serve live pushed sessions over TCP through a sharded
  monitor pool (see ``docs/serving.md`` for the wire protocol);
* ``metrics``      — scrape a running ``serve``/``watch --push-port`` box's
  metrics registry over the wire ``METRICS`` verb and print the
  Prometheus text exposition (see ``docs/observability.md``);
* ``top``          — a refreshing terminal dashboard over a running
  serving box: sliding-window event/session rates, shard queue depths and
  the hottest / most-violated rules (wire ``STATS`` + ``ANALYTICS``).

``serve`` and ``watch`` also accept ``--http-port``: an HTTP sidecar
(``repro.obs.httpexpo``) exposing ``/metrics``, ``/healthz`` and
``/statusz`` for Prometheus scrapers and load-balancer probes.

The mining and serving commands accept ``--trace-out FILE``: spans
recording where each run's wall-clock went (per work unit, per daemon
cycle, per refresh) are appended to the file as JSON lines;
``tools/trace_summary.py`` prints the per-phase breakdown.

Every command reads and writes the trace formats of :mod:`repro.traces.io`
(text / jsonl / csv, each with a transparent ``.gz`` variant) and prints
small plain-text reports; mined specifications can be saved as a JSON
repository (see :class:`repro.specs.SpecificationRepository`).  The mining
commands accept either a flat trace file (``--input``) or a trace store
(``--store``, optionally appending new files first with ``--append``);
store-backed mining keeps a persisted record cache in the store directory,
so repeated ``--append`` invocations re-mine only the touched roots.  Long
mining runs can journal completed work with ``--checkpoint DIR`` (alias
``--resume``): a run killed mid-mine resumes from the journal and emits
output byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import select
import signal
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from .analysis.reporting import format_table
from .core.errors import ConfigurationError, DataFormatError
from .datagen.profiles import PAPER_PROFILE, generate_profile, profile
from .durability.checkpoint import MiningCheckpoint, file_fingerprint, miner_config_token
from .durability.fsck import audit_store
from .engine import BACKEND_CHOICES, ExecutionBackend, resolve_backend
from .jboss.workloads import (
    generate_case_study_traces,
    generate_security_traces,
    generate_transaction_traces,
)
from .patterns.closed_miner import ClosedIterativePatternMiner
from .patterns.config import IterativeMiningConfig
from .patterns.full_miner import FullIterativePatternMiner
from .rules.config import RuleMiningConfig
from .rules.full_miner import FullRecurrentRuleMiner
from .rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from .ingest.formats import (
    DEFAULT_BATCH_SIZE,
    format_for_path,
    stream_batches,
    stream_traces,
)
from .ingest.incremental import IncrementalMiner
from .ingest.store import TraceStore
from .obs import tracing
from .obs.httpexpo import MetricsHTTPServer
from .serving.daemon import WatchDaemon
from .serving.pool import MonitorPool
from .serving.server import EventPushServer, ProtocolError, PushClient
from .serving.stream_monitor import StreamingMonitor
from .specs.repository import SpecificationRepository
from .traces.io import read_traces, write_traces

#: Shared help string for every ``--format`` option.
_FORMAT_HELP = "text | jsonl | csv (suffix .gz for the gzip-wrapped variants)"
_SUPPORT_HELP = "a fraction of the sequences in (0, 1], or an absolute count above 1 (default 2)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Mine iterative patterns and recurrent rules from program traces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument(
        "--profile", type=_profile_name, default=PAPER_PROFILE, help="D/C/N/S profile name"
    )
    generate.add_argument("--scale", type=_scale, default=0.1, help="scale factor for D and N")
    generate.add_argument("--seed", type=int, default=None, help="random seed override")
    generate.add_argument("--output", required=True, help="output trace file")
    generate.add_argument("--format", default=None, help=_FORMAT_HELP)

    jboss = subparsers.add_parser("jboss", help="generate the simulated JBoss case-study traces")
    jboss.add_argument(
        "--component",
        choices=["transaction", "security", "both"],
        default="both",
        help="which simulated component to exercise",
    )
    jboss.add_argument("--output", required=True, help="output trace file")
    jboss.add_argument("--format", default=None, help=_FORMAT_HELP)

    ingest = subparsers.add_parser(
        "ingest", help="stream trace files into an append-only trace store"
    )
    ingest.add_argument("--store", required=True, help="trace store directory")
    ingest.add_argument(
        "--input",
        nargs="+",
        default=[],
        help="trace files to append (without any, prints the store's stats)",
    )
    ingest.add_argument("--format", default=None, help=_FORMAT_HELP)
    ingest.add_argument(
        "--batch-size",
        type=_positive_int,
        default=DEFAULT_BATCH_SIZE,
        help=f"traces per appended batch (default {DEFAULT_BATCH_SIZE}, keeping "
        "memory bounded on huge files; pass a larger value for fewer batches)",
    )

    patterns = subparsers.add_parser("mine-patterns", help="mine iterative patterns")
    _add_source_arguments(patterns)
    patterns.add_argument("--min-support", type=_support, default=2.0, help=_SUPPORT_HELP)
    patterns.add_argument("--max-length", type=_positive_int, default=None)
    patterns.add_argument(
        "--full",
        action="store_true",
        help="mine all frequent patterns (default: the closed ones, exactly)",
    )
    patterns.add_argument(
        "--top", type=_non_negative_int, default=20, help="how many patterns to print"
    )
    patterns.add_argument("--save", default=None, help="save results to a JSON repository")
    _add_engine_arguments(patterns)
    _add_checkpoint_argument(patterns)
    _add_trace_argument(patterns)

    rules = subparsers.add_parser("mine-rules", help="mine recurrent rules")
    _add_source_arguments(rules)
    _add_rule_threshold_arguments(rules)
    rules.add_argument("--full", action="store_true", help="mine the full (redundant) rule set")
    rules.add_argument(
        "--top", type=_non_negative_int, default=20, help="how many rules to print"
    )
    rules.add_argument("--save", default=None, help="save results to a JSON repository")
    _add_engine_arguments(rules)
    _add_checkpoint_argument(rules)
    _add_trace_argument(rules)

    fsck = subparsers.add_parser(
        "fsck",
        help="audit a trace store: re-hash the fingerprint chain, repair "
        "torn tails, drop stale caches and checkpoints",
    )
    fsck.add_argument("store", help="trace store directory to audit")
    fsck.add_argument(
        "--no-repair",
        action="store_true",
        help="report only; never truncate tails or remove stale state",
    )

    compact = subparsers.add_parser(
        "compact",
        help="rewrite a store dropping deleted batches and unreferenced "
        "vocabulary labels into a new fingerprint lineage",
    )
    compact.add_argument("store", help="trace store directory to compact")
    compact.add_argument(
        "--delete-batch",
        type=int,
        action="append",
        default=[],
        metavar="INDEX",
        help="tombstone this batch index before compacting (repeatable)",
    )

    monitor = subparsers.add_parser("monitor", help="check rules against traces")
    monitor.add_argument("--input", required=True, help="input trace file")
    monitor.add_argument("--format", default=None, help=_FORMAT_HELP)
    monitor.add_argument("--specs", required=True, help="JSON specification repository")
    monitor.add_argument(
        "--max-violations", type=_non_negative_int, default=10, help="violations to print"
    )
    monitor.add_argument(
        "--stream",
        action="store_true",
        help="read the file one trace at a time (bounded memory, same "
        "report) instead of loading it whole; CSV rows of one trace must "
        "then be contiguous, while the whole-file reader also accepts "
        "interleaved rows and orders traces by trace_id",
    )

    watch = subparsers.add_parser(
        "watch",
        help="serving daemon: tail a directory of trace files, re-mine "
        "incrementally, hot-swap the compiled rules, monitor new traces",
    )
    watch.add_argument("--dir", required=True, help="directory to tail for trace files")
    watch.add_argument("--store", required=True, help="backing trace-store directory")
    watch.add_argument("--format", default=None, help=_FORMAT_HELP)
    watch.add_argument(
        "--interval",
        type=_non_negative_seconds,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    watch.add_argument(
        "--max-cycles",
        type=_positive_int,
        default=None,
        help="stop after this many poll cycles; every cycle counts, "
        "including idle ones that find no new files (default: run until "
        "Ctrl-C)",
    )
    _add_rule_threshold_arguments(watch)
    watch.add_argument(
        "--save",
        default=None,
        help="rewrite this JSON specification repository on every hot swap",
    )
    watch.add_argument(
        "--max-violations", type=_non_negative_int, default=10, help="violations to print per cycle"
    )
    watch.add_argument(
        "--push-port",
        type=_bind_port,
        default=None,
        help="additionally serve pushed sessions over TCP on this port "
        "(0 = ephemeral; the bound address is printed on stderr)",
    )
    _add_http_arguments(watch)
    _add_engine_arguments(watch)
    _add_trace_argument(watch)

    serve = subparsers.add_parser(
        "serve",
        help="event-push serving plane: accept live sessions over TCP and "
        "monitor them against a mined specification repository through a "
        "sharded monitor pool",
    )
    serve.add_argument("--rules", required=True, help="JSON specification repository to serve")
    serve.add_argument("--host", default="127.0.0.1", help="bind host (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=_bind_port,
        default=7311,
        help="bind port (default 7311; 0 = ephemeral, printed on stderr)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="monitor-pool worker shards; sessions spread across them by "
        "consistent hashing (default 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=1024,
        help="bound on each shard's pending-work queue; a full queue "
        "answers BUSY instead of growing (default 1024)",
    )
    serve.add_argument(
        "--max-violations",
        type=_non_negative_int,
        default=10,
        help="violations to print at shutdown",
    )
    _add_http_arguments(serve)
    _add_trace_argument(serve)

    metrics = subparsers.add_parser(
        "metrics",
        help="scrape a running serve/watch box's metrics registry and "
        "print the Prometheus text exposition",
    )
    metrics.add_argument("--host", default="127.0.0.1", help="server host (default 127.0.0.1)")
    metrics.add_argument(
        "--port", type=_positive_int, default=7311, help="server port (default 7311)"
    )
    metrics.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=10.0,
        help="socket timeout in seconds (default 10)",
    )

    top = subparsers.add_parser(
        "top",
        help="refreshing terminal dashboard over a running serve/watch box: "
        "event/session rates, queue depths and the hottest rules",
    )
    top.add_argument("--host", default="127.0.0.1", help="server host (default 127.0.0.1)")
    top.add_argument(
        "--port", type=_positive_int, default=7311, help="server port (default 7311)"
    )
    top.add_argument(
        "--interval",
        type=_non_negative_seconds,
        default=2.0,
        help="seconds between refreshes; rates are computed over this "
        "window (default 2)",
    )
    top.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        help="render this many frames, then exit (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        dest="top_n",
        help="rules to show in the hottest/most-violated table (default 10)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (logs, pipes)",
    )
    top.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=10.0,
        help="socket timeout in seconds (default 10)",
    )

    return parser


def _add_http_arguments(subparser: argparse.ArgumentParser) -> None:
    """The HTTP exposition sidecar options shared by serve and watch."""
    subparser.add_argument(
        "--http-port",
        type=_bind_port,
        default=None,
        help="host the HTTP exposition sidecar (/metrics, /healthz, "
        "/statusz) on this port (0 = ephemeral; the bound address is "
        "printed on stderr)",
    )
    subparser.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="bind host for the HTTP sidecar (default 127.0.0.1)",
    )


def _add_rule_threshold_arguments(subparser: argparse.ArgumentParser) -> None:
    """The recurrent-rule thresholds and caps shared by mine-rules and watch."""
    subparser.add_argument("--min-s-support", type=_support, default=2.0, help=_SUPPORT_HELP)
    subparser.add_argument("--min-i-support", type=_positive_int, default=1)
    subparser.add_argument(
        "--min-confidence", type=_confidence, default=0.5, help="in (0, 1] (default 0.5)"
    )
    subparser.add_argument("--max-premise-length", type=_positive_int, default=None)
    subparser.add_argument("--max-consequent-length", type=_positive_int, default=None)


def _int_value(value: str) -> int:
    try:
        return int(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from error


def _non_negative_int(value: str) -> int:
    """A row count: 0 prints none, a negative count is refused."""
    number = _int_value(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return number


def _positive_int(value: str) -> int:
    number = _int_value(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def _bind_port(value: str) -> int:
    """A port to listen on: 0 (ephemeral) through 65535."""
    port = _int_value(value)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"expected a port in 0-65535, got {value!r}")
    return port


def _finite_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from error
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")
    return number


def _support(value: str) -> float:
    """A support threshold: a fraction in (0, 1] or an absolute count above 1."""
    number = _finite_float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive threshold, got {value!r}")
    return number


def _scale(value: str) -> float:
    number = _finite_float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive scale, got {value!r}")
    return number


def _profile_name(value: str) -> str:
    """A named dataset profile or a D<d>C<c>N<n>S<s> name."""
    try:
        profile(value)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return value


def _confidence(value: str) -> float:
    number = _finite_float(value)
    if not 0 < number <= 1:
        raise argparse.ArgumentTypeError(f"expected a confidence in (0, 1], got {value!r}")
    return number


def _non_negative_seconds(value: str) -> float:
    """An interval: 0 means no wait."""
    seconds = _finite_float(value)
    if seconds < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number of seconds, got {value!r}"
        )
    return seconds


def _positive_seconds(value: str) -> float:
    """A socket timeout: 0 would make the socket non-blocking."""
    seconds = _finite_float(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {value!r}")
    return seconds


def _add_source_arguments(subparser: argparse.ArgumentParser) -> None:
    """Trace-source options shared by the mining commands."""
    subparser.add_argument("--input", default=None, help="input trace file")
    subparser.add_argument("--format", default=None, help=_FORMAT_HELP)
    subparser.add_argument(
        "--store",
        default=None,
        help="mine a trace-store snapshot instead of a flat file",
    )
    subparser.add_argument(
        "--append",
        action="append",
        default=[],
        metavar="FILE",
        help="append this trace file to the existing --store before mining "
        "(repeatable; create the store with `repro ingest` first)",
    )


def _validate_trace_inputs(paths: List[str], format: Optional[str]) -> Optional[str]:
    """Path-level validation shared by ingest and --append: an error
    message, or None when every path looks like a readable trace file."""
    for path in paths:
        try:
            format_for_path(path, format)
        except DataFormatError as error:
            return str(error)
        if not Path(path).is_file():
            return f"no trace file at {path}"
    return None


def _annotated_stream(path: str, format: Optional[str]):
    """Stream one file's traces, prefixing parse errors with the path."""
    try:
        yield from stream_traces(path, format=format)
    except DataFormatError as error:
        raise DataFormatError(f"{path}: {error}") from error


def _resolve_mining_source(args: argparse.Namespace):
    """Resolve --input/--store/--append into ``(database, store)``.

    Exactly one of the pair is set; ``None`` signals a reported CLI error.
    A flat ``--input`` file is read into an in-memory database; a
    ``--store`` is returned as-is so the mining commands can run the
    persisted incremental path over it.
    """
    if (args.input is None) == (args.store is None):
        print("error: pass exactly one of --input or --store", file=sys.stderr)
        return None
    if args.append and args.store is None:
        print("error: --append requires --store", file=sys.stderr)
        return None
    if args.input is not None:
        failure = _validate_trace_inputs([args.input], args.format)
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
            return None
        return read_traces(args.input, format=args.format), None
    try:
        # Only the ingest command may create a store: a typo'd --store
        # path must be a loud error (even with --append), never a quietly
        # mined empty — or nearly empty — fresh store.
        store = TraceStore.open(args.store)
    except DataFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    failure = _validate_trace_inputs(args.append, args.format)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return None
    # All-or-nothing across every --append file: a parse error anywhere
    # commits nothing, so fixing the bad file and re-running the same
    # command cannot duplicate the good files' traces.
    try:
        batches = store.append_batches(
            _annotated_stream(path, args.format) for path in args.append
        )
    except DataFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    # Progress goes to stderr: the mining commands' stdout is the mined
    # report and must stay machine-readable (diff-able across sources).
    for batch in batches:
        print(
            f"appended batch {batch.index}: {batch.traces} traces ({batch.events} events)",
            file=sys.stderr,
        )
    if not len(store):
        print(f"error: store {args.store} holds no traces; ingest some first", file=sys.stderr)
        return None
    description = store.describe()
    print(
        f"store {args.store}: {description['traces']} traces in "
        f"{description['batches']} batches, fingerprint {str(description['fingerprint'])[:12]}",
        file=sys.stderr,
    )
    return None, store


def _mine_source(source, miner, backend):
    """Run a miner over the resolved source, incrementally when store-backed.

    Store-backed mining goes through :class:`IncrementalMiner` with the
    record cache persisted in the store directory, so a sequence of
    ``--store --append`` invocations re-mines only the roots each append
    touched — across processes.  Output is bit-identical to mining the
    snapshot from scratch either way.
    """
    database, store = source
    if store is None:
        return miner.mine(database, backend=backend)
    incremental = IncrementalMiner(miner, store, persist=True)
    result, report = incremental.refresh(backend=backend)
    print(
        f"incremental: re-mined {report.roots_remined}/{report.roots_total} "
        f"roots ({report.reason})",
        file=sys.stderr,
    )
    return result


def _add_engine_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes for the parallel engine (unset: serial with "
        "'auto', all CPU cores with '--backend process')",
    )
    subparser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help="execution backend; 'auto' is 'process' when --workers > 1 and "
        "'serial' otherwise; 'process' is the work-unit coordinator, which "
        "splits hot subtrees across workers",
    )
    subparser.add_argument(
        "--split-depth",
        type=_positive_int,
        default=None,
        help="with more than one worker: maximum search depth at which "
        "frontier nodes may still be split into stealable units (default 8; "
        "rejected by the serial backend)",
    )


def _resolve_backend_or_none(args: argparse.Namespace) -> Optional[ExecutionBackend]:
    """Resolve --backend/--workers/--split-depth, printing a CLI error on contradiction."""
    try:
        return resolve_backend(args.backend, args.workers, args.split_depth)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _add_trace_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="append timing spans (one JSON object per line) to this file; "
        "summarise with tools/trace_summary.py",
    )


def _add_checkpoint_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--checkpoint",
        "--resume",
        dest="checkpoint",
        default=None,
        metavar="DIR",
        help="journal completed work units to this directory; rerunning the "
        "same command after a crash resumes from the journal (a changed "
        "input, miner, or config starts the journal over)",
    )


def _attach_checkpoint(args: argparse.Namespace, source, miner, backend) -> bool:
    """Wire --checkpoint onto the backend; False signals a reported error.

    The journal's identity is {database fingerprint, miner class, config
    token} — exactly the incremental cache's keying — so a journal can
    never replay outcomes into a run it does not belong to: any mismatch
    silently starts a fresh journal instead of resuming.
    """
    if getattr(args, "checkpoint", None) is None:
        return True
    database, store = source
    try:
        identity = {
            "database": store.fingerprint if store is not None else file_fingerprint(args.input),
            "miner": type(miner).__qualname__,
            "config": miner_config_token(miner),
        }
        backend.checkpoint = MiningCheckpoint(args.checkpoint, identity)
    except OSError as error:
        print(f"error: checkpoint {args.checkpoint}: {error}", file=sys.stderr)
        return False
    return True


def _finish_checkpoint(args: argparse.Namespace, backend, result) -> None:
    """Close the journal and report how much of the run it saved."""
    if getattr(backend, "checkpoint", None) is None:
        return
    resumed = result.stats.extra.get("units_resumed", 0)
    print(
        f"checkpoint: resumed {resumed} completed units from {args.checkpoint}",
        file=sys.stderr,
    )
    backend.checkpoint.close()
    backend.checkpoint = None


def _command_generate(args: argparse.Namespace) -> int:
    database = generate_profile(args.profile, scale=args.scale, seed=args.seed)
    write_traces(database, args.output, format=args.format)
    stats = database.describe()
    print(f"wrote {int(stats['sequences'])} sequences ({int(stats['events'])} events) to {args.output}")
    return 0


def _command_jboss(args: argparse.Namespace) -> int:
    if args.component == "transaction":
        database = generate_transaction_traces()
    elif args.component == "security":
        database = generate_security_traces()
    else:
        database = generate_case_study_traces()
    write_traces(database, args.output, format=args.format)
    print(f"wrote {len(database)} JBoss {args.component} traces to {args.output}")
    return 0


def _ingest_source_id(path: str) -> dict:
    """Content identity of one ingest input: resolved path + byte hash.

    Recorded on every batch the file produces, and checked before
    re-ingesting: a crash-interrupted multi-file ingest can simply be
    re-run with the same arguments — already-committed files are skipped,
    never duplicated.  The hash keeps the check honest when a file is
    rewritten in place with new content.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return {"path": str(Path(path).resolve()), "sha256": digest.hexdigest()}


def _command_ingest(args: argparse.Namespace) -> int:
    # Validate every input before creating or touching the store: a typo'd
    # path must not leave behind a fresh empty store that later --store
    # mining would refuse as empty (or, worse, quietly mine).
    failure = _validate_trace_inputs(args.input, args.format)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    fresh = not (Path(args.store) / "manifest.json").exists()
    try:
        # Stats-only invocations never create: a typo'd store path must
        # not leave a plausible-looking empty store behind.
        store = TraceStore(args.store) if args.input else TraceStore.open(args.store)
    except (DataFormatError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for path in args.input:
        source = _ingest_source_id(path)
        if store.has_source(source):
            print(f"skipping {path}: already ingested (same content)", file=sys.stderr)
            continue
        traces = _annotated_stream(path, args.format)
        try:
            # One manifest commit per file: a parse error mid-file commits
            # none of the file's chunks, so fixing it and re-running never
            # duplicates traces (earlier *files* stay committed — re-run
            # the same command and they are skipped by source identity).
            batches = store.append_batches(stream_batches(traces, args.batch_size), source=source)
        except DataFormatError as error:
            print(f"error: {error}", file=sys.stderr)
            if fresh:
                # Nothing was ever committed: remove the store we created
                # so a later --store mine fails loudly instead of finding
                # a plausible-looking empty corpus.
                store.discard_if_empty()
            return 2
        for batch in batches:
            print(
                f"appended batch {batch.index} from {path}: "
                f"{batch.traces} traces ({batch.events} events)"
            )
    description = store.describe()
    print(
        f"store {args.store}: {description['traces']} traces "
        f"({description['events']} events, {description['distinct_events']} distinct) "
        f"in {description['batches']} batches, {description['bytes']} bytes, "
        f"fingerprint {str(description['fingerprint'])[:12] or '-'}"
    )
    return 0


def _command_fsck(args: argparse.Namespace) -> int:
    report = audit_store(args.store, repair=not args.no_repair)
    for line in report.lines():
        print(line)
    code = report.exit_code
    verdict = {0: "clean", 1: "issues found", 2: "CORRUPT"}[code]
    print(f"fsck {args.store}: {verdict} (exit {code})")
    return code


def _command_compact(args: argparse.Namespace) -> int:
    try:
        store = TraceStore.open(args.store)
        if args.delete_batch:
            marked = store.mark_deleted(args.delete_batch)
            print(f"tombstoned {marked} batches", file=sys.stderr)
        report = store.compact()
    except (DataFormatError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"compacted {args.store}: {report.describe()}")
    print(
        f"new lineage {store.fingerprint[:12]} (compacted from "
        f"{report.compacted_from[:12]}; downstream caches will fully re-mine)"
    )
    return 0


def _command_mine_patterns(args: argparse.Namespace) -> int:
    source = _resolve_mining_source(args)
    if source is None:
        return 2
    config = IterativeMiningConfig(
        min_support=args.min_support,
        max_pattern_length=args.max_length,
        collect_instances=False,
    )
    backend = _resolve_backend_or_none(args)
    if backend is None:
        return 2
    miner = FullIterativePatternMiner(config) if args.full else ClosedIterativePatternMiner(config)
    if not _attach_checkpoint(args, source, miner, backend):
        return 2
    result = _mine_source(source, miner, backend)
    _finish_checkpoint(args, backend, result)
    kind = "frequent" if args.full else "closed"
    print(
        f"mined {len(result)} {kind} iterative patterns "
        f"(min_sup={result.min_support}, backend={backend.describe()}, "
        f"{result.stats.elapsed_seconds:.2f}s)"
    )
    print(format_table(result.as_rows()[: args.top], columns=["support", "length", "events"]))
    if args.save:
        repository = SpecificationRepository(name=f"{kind}-patterns")
        repository.add_pattern_result(result)
        repository.save(args.save)
        print(f"saved {len(result)} patterns to {args.save}")
    return 0


def _command_mine_rules(args: argparse.Namespace) -> int:
    source = _resolve_mining_source(args)
    if source is None:
        return 2
    config = RuleMiningConfig(
        min_s_support=args.min_s_support,
        min_i_support=args.min_i_support,
        min_confidence=args.min_confidence,
        max_premise_length=args.max_premise_length,
        max_consequent_length=args.max_consequent_length,
    )
    backend = _resolve_backend_or_none(args)
    if backend is None:
        return 2
    miner = FullRecurrentRuleMiner(config) if args.full else NonRedundantRecurrentRuleMiner(config)
    if not _attach_checkpoint(args, source, miner, backend):
        return 2
    result = _mine_source(source, miner, backend)
    _finish_checkpoint(args, backend, result)
    kind = "significant" if args.full else "non-redundant"
    print(
        f"mined {len(result)} {kind} recurrent rules "
        f"(min_s_sup={result.min_s_support}, min_conf={result.min_confidence}, "
        f"backend={backend.describe()}, {result.stats.elapsed_seconds:.2f}s)"
    )
    print(
        format_table(
            result.as_rows()[: args.top],
            columns=["confidence", "s_support", "i_support", "premise", "consequent"],
        )
    )
    if args.save:
        repository = SpecificationRepository(name=f"{kind}-rules")
        repository.add_rule_result(result)
        repository.save(args.save)
        print(f"saved {len(result)} rules to {args.save}")
    return 0


def _command_monitor(args: argparse.Namespace) -> int:
    failure = _validate_trace_inputs([args.input], args.format)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    try:
        repository = SpecificationRepository.load(args.specs)
    except (DataFormatError, OSError) as error:
        print(f"error: {args.specs}: {error}", file=sys.stderr)
        return 2
    if not repository.rules:
        # A repository that mined zero rules is a valid (vacuous)
        # specification: report a clean zero-violation run, don't crash.
        print("note: the specification repository contains no rules", file=sys.stderr)
    monitor = StreamingMonitor(repository.rules)
    try:
        if args.stream:
            # Memory bounded by the longest trace, not the file.
            for record in stream_traces(args.input, format=args.format):
                monitor.check_trace(record.events, name=record.name)
        else:
            monitor.check_database(read_traces(args.input, format=args.format))
    except (DataFormatError, OSError) as error:
        print(f"error: {args.input}: {error}", file=sys.stderr)
        return 2
    report = monitor.report()
    print(report.summary())
    for violation in report.violations[: args.max_violations]:
        print(f"  VIOLATION {violation.describe()}")
    return 0 if report.violation_count == 0 else 1


def _command_watch(args: argparse.Namespace) -> int:
    if not Path(args.dir).is_dir():
        print(f"error: no directory to watch at {args.dir}", file=sys.stderr)
        return 2
    backend = _resolve_backend_or_none(args)
    if backend is None:
        return 2
    try:
        config = RuleMiningConfig(
            min_s_support=args.min_s_support,
            min_i_support=args.min_i_support,
            min_confidence=args.min_confidence,
            max_premise_length=args.max_premise_length,
            max_consequent_length=args.max_consequent_length,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def report_cycle(cycle) -> None:
        for path, info in cycle.ingested:
            print(f"[cycle {cycle.index}] ingested {path}: {info.traces} traces")
        for path, message in cycle.failed:
            print(f"[cycle {cycle.index}] skipped {path}: {message}", file=sys.stderr)
        if cycle.refresh is not None:
            refresh = cycle.refresh
            how = "full re-mine" if refresh.full_remine else (
                f"re-mined {refresh.roots_remined}/{refresh.roots_total} roots"
            )
            print(
                f"[cycle {cycle.index}] {how}: serving {cycle.rules_served} rules"
                f"{' (hot-swapped)' if cycle.swapped else ''}"
            )
        if cycle.monitoring is not None:
            print(
                f"[cycle {cycle.index}] monitored {cycle.traces_added} new traces: "
                f"{cycle.monitoring.satisfied_points}/{cycle.monitoring.total_points} "
                f"points satisfied, {cycle.violation_count} violations"
            )
            for violation in cycle.monitoring.violations[: args.max_violations]:
                print(f"  VIOLATION {violation.describe()}")

    daemon = WatchDaemon(
        args.dir,
        args.store,
        NonRedundantRecurrentRuleMiner(config),
        backend=backend,
        format=args.format,
        repository_path=args.save,
        persist_cache=True,
        on_cycle=report_cycle,
        push_port=args.push_port,
        http_port=args.http_port,
        http_host=args.http_host,
    )
    if daemon.push_address is not None:
        host, port = daemon.push_address
        print(f"push serving on {host}:{port}", file=sys.stderr, flush=True)
    if daemon.http_address is not None:
        host, port = daemon.http_address
        print(f"http exposition on http://{host}:{port}", file=sys.stderr, flush=True)
    try:
        cycles = daemon.run_forever(poll_interval=args.interval, max_cycles=args.max_cycles)
    finally:
        if daemon.pool is not None:
            pushed = daemon.pool.report()
            if pushed.total_points:
                print(f"pushed sessions: {pushed.summary()}", file=sys.stderr)
        daemon.close()
    report = daemon.monitoring
    print(
        f"watched {cycles} cycles: {len(daemon.store)} traces in store, "
        f"{daemon.swaps} hot swaps, {report.violation_count} violations"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    try:
        repository = SpecificationRepository.load(args.rules)
    except (DataFormatError, OSError) as error:
        print(f"error: {args.rules}: {error}", file=sys.stderr)
        return 2
    if not repository.rules:
        print("note: the specification repository contains no rules", file=sys.stderr)
    pool = MonitorPool(repository.rules, shards=args.shards, queue_depth=args.queue_depth)
    server = EventPushServer(pool, host=args.host, port=args.port)
    host, port = server.address
    # The bound address goes to stderr first (and flushed): with --port 0
    # it is the only way a supervising process learns the ephemeral port.
    print(
        f"serving {len(repository.rules)} rules on {host}:{port} "
        f"(shards={args.shards}, queue-depth={args.queue_depth})",
        file=sys.stderr,
        flush=True,
    )
    http_server = None
    if args.http_port is not None:
        http_server = MetricsHTTPServer(host=args.http_host, port=args.http_port, pool=pool)
        http_host, http_port = http_server.start()
        print(
            f"http exposition on http://{http_host}:{http_port}",
            file=sys.stderr,
            flush=True,
        )
    # Drain on SIGTERM/SIGINT: stop accepting, close open sessions so
    # their reports land in the aggregate output below.  shutdown() must
    # run off the main thread — calling it from a signal handler while
    # serve_forever() is on the stack would deadlock.
    previous = {}

    def _drain_signal(signum: int, frame: object) -> None:  # pragma: no cover - signal path
        print(f"received {signal.Signals(signum).name}, draining...", file=sys.stderr, flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _drain_signal)
        except ValueError:  # pragma: no cover - non-main thread (embedding)
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if http_server is not None:
            http_server.close()
        server.close()
        drained = pool.drain_sessions()
        if drained:
            print(f"drained {drained} open sessions", file=sys.stderr)
        stats = pool.stats()
        report = pool.report()
        pool.close()
        print(
            f"served {stats['sessions_closed']} sessions "
            f"({stats['events_processed']} events, {stats['busy_rejections']} busy "
            f"rejections, generation {stats['generation']})"
        )
        print(report.summary())
        for violation in report.violations[: args.max_violations]:
            print(f"  VIOLATION {violation.describe()}")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    try:
        with PushClient(args.host, args.port, timeout=args.timeout) as client:
            text = client.metrics()
    except (OSError, ProtocolError) as error:
        print(f"error: {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    # The raw text exposition, ready to pipe into a file or a Prometheus
    # textfile collector.
    print(text, end="")
    return 0


#: ANSI: clear the screen and home the cursor (repro top's refresh).
_CLEAR_SCREEN = "\x1b[2J\x1b[H"


def _render_top(
    stats: dict,
    previous: Optional[dict],
    analytics: dict,
    elapsed: float,
    top_n: int,
) -> str:
    """One ``repro top`` frame as plain text (pure: samples in, text out).

    ``stats``/``previous`` are two successive wire ``STATS`` replies taken
    ``elapsed`` seconds apart; the sliding-window rates are the counter
    deltas over that window (the first frame, with no ``previous``, shows
    totals only).  ``analytics`` is an ``ANALYTICS`` reply whose rules are
    already server-ranked most-violated first.
    """
    lines = [
        f"repro top — generation {stats.get('generation')}, "
        f"{stats.get('rules')} rules, uptime {stats.get('uptime_seconds', 0):.0f}s"
    ]
    window = max(elapsed, 1e-9)

    def rate(key: str) -> str:
        if previous is None:
            return "-"
        delta = stats.get(key, 0) - previous.get(key, 0)
        return f"{delta / window:.1f}/s"

    lines.append(
        f"sessions: {stats.get('sessions_active', 0)} active, "
        f"{stats.get('sessions_closed', 0)} closed ({rate('sessions_closed')}), "
        f"{stats.get('sessions_lost', 0)} lost"
    )
    lines.append(
        f"events:   {stats.get('events_processed', 0)} processed "
        f"({rate('events_processed')}), "
        f"{stats.get('busy_rejections', 0)} busy ({rate('busy_rejections')})"
    )
    per_shard = stats.get("per_shard") or []
    if per_shard:
        depths = " ".join(
            f"{entry.get('shard')}:{entry.get('queued', 0)}" for entry in per_shard
        )
        restarts = sum(entry.get("restarts", 0) for entry in per_shard)
        lines.append(
            f"shards:   {len(per_shard)} (queue depth {depths}"
            f"; cap {stats.get('queue_depth')}; {restarts} restarts)"
        )
    rules = analytics.get("rules") or {}
    lines.append("")
    if rules:
        lines.append(f"hottest rules (top {top_n} by violations, then opened points):")
        rows = [
            {
                "rule": key,
                "opened": entry.get("opened", 0),
                "satisfied": entry.get("satisfied", 0),
                "violated": entry.get("violated", 0),
                "trie_advances": entry.get("trie_advances", 0),
            }
            for key, entry in list(rules.items())[:top_n]
        ]
        lines.append(format_table(rows))
    else:
        lines.append("no per-rule activity yet")
    return "\n".join(lines) + "\n"


def _command_top(args: argparse.Namespace) -> int:
    frames = 0
    previous: Optional[dict] = None
    sampled_at = 0.0
    try:
        with PushClient(args.host, args.port, timeout=args.timeout) as client:
            while args.iterations is None or frames < args.iterations:
                if frames:
                    time.sleep(args.interval)
                now = time.monotonic()
                stats = client.stats()
                analytics = client.analytics(top=args.top_n)
                frame = _render_top(
                    stats, previous, analytics, now - sampled_at, args.top_n
                )
                if not args.no_clear:
                    print(_CLEAR_SCREEN, end="")
                print(frame, end="", flush=True)
                previous, sampled_at = stats, now
                frames += 1
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    except (OSError, ProtocolError) as error:
        print(f"error: {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "jboss": _command_jboss,
    "ingest": _command_ingest,
    "mine-patterns": _command_mine_patterns,
    "mine-rules": _command_mine_rules,
    "fsck": _command_fsck,
    "compact": _command_compact,
    "monitor": _command_monitor,
    "watch": _command_watch,
    "serve": _command_serve,
    "metrics": _command_metrics,
    "top": _command_top,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-mine`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace_out", None):
        # One collector for the whole command; every span below (engine
        # units, daemon cycles, server dispatch) lands in the file.
        tracing.install(args.trace_out)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise
        # ``repro ... | head``: the reader has what it wanted, so stop
        # quietly.  Python flushes stdout once more at exit; pointing it at
        # /dev/null keeps that flush from reporting the broken pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        tracing.reset()


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe whose reading end has closed.

    Tells a closed stdout apart from a broken pipe elsewhere (a socket, a
    worker's pipe), which must still surface.  Platforms without
    ``select.poll`` answer ``False``.
    """
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        return any(mask & select.POLLERR for _, mask in poller.poll(0))
    except (AttributeError, OSError, ValueError):
        return False


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
