"""End-to-end tests for the ``repro-mine`` command line interface."""

import json

import pytest

from repro.cli import main


def test_generate_and_mine_patterns_round_trip(tmp_path, capsys):
    traces = tmp_path / "synthetic.jsonl"
    assert main(["generate", "--profile", "D1C10N1S4", "--scale", "0.05", "--output", str(traces)]) == 0
    output = capsys.readouterr().out
    assert "wrote 50 sequences" in output

    repo_path = tmp_path / "patterns.json"
    code = main(
        [
            "mine-patterns",
            "--input",
            str(traces),
            "--min-support",
            "10",
            "--max-length",
            "3",
            "--save",
            str(repo_path),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "closed iterative patterns" in output
    payload = json.loads(repo_path.read_text())
    assert "patterns" in payload


def test_jboss_mine_rules_and_monitor(tmp_path, capsys):
    traces = tmp_path / "security.txt"
    assert main(["jboss", "--component", "security", "--output", str(traces)]) == 0
    capsys.readouterr()

    specs = tmp_path / "rules.json"
    code = main(
        [
            "mine-rules",
            "--input",
            str(traces),
            "--min-s-support",
            "0.5",
            "--min-confidence",
            "0.6",
            "--max-premise-length",
            "1",
            "--max-consequent-length",
            "2",
            "--save",
            str(specs),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "non-redundant recurrent rules" in output
    assert json.loads(specs.read_text())["rules"]

    exit_code = main(["monitor", "--input", str(traces), "--specs", str(specs)])
    output = capsys.readouterr().out
    assert "monitored temporal points" in output
    assert exit_code in (0, 1)


def test_mine_patterns_with_parallel_workers(tmp_path, capsys):
    traces = tmp_path / "tiny.txt"
    traces.write_text(
        "lock\nuse\nunlock\n\nlock\nunlock\n\nlock\nread\nunlock\n", encoding="utf-8"
    )
    base = ["mine-patterns", "--input", str(traces), "--min-support", "2"]
    assert main(base) == 0
    serial_output = capsys.readouterr().out
    assert "backend=serial" in serial_output

    assert main(base + ["--workers", "2"]) == 0
    parallel_output = capsys.readouterr().out
    assert "backend=process[workers=2]" in parallel_output
    # The mined table must be identical; only the summary line may differ.
    assert serial_output.splitlines()[1:] == parallel_output.splitlines()[1:]


def test_mine_rules_with_explicit_backend(tmp_path, capsys):
    traces = tmp_path / "tiny.txt"
    traces.write_text("lock\nuse\nunlock\n\nlock\nunlock\n", encoding="utf-8")
    code = main(
        [
            "mine-rules",
            "--input",
            str(traces),
            "--min-s-support",
            "2",
            "--min-confidence",
            "0.5",
            "--backend",
            "process",
            "--workers",
            "2",
        ]
    )
    assert code == 0
    assert "backend=process[workers=2]" in capsys.readouterr().out


def test_mine_patterns_full_flag(tmp_path, capsys):
    traces = tmp_path / "tiny.txt"
    traces.write_text("lock\nuse\nunlock\n\nlock\nunlock\n", encoding="utf-8")
    assert main(["mine-patterns", "--input", str(traces), "--min-support", "2", "--full"]) == 0
    assert "frequent iterative patterns" in capsys.readouterr().out


@pytest.mark.parametrize("stream", [False, True])
def test_monitor_with_empty_spec_repository_reports_clean(tmp_path, capsys, stream):
    """Zero mined rules is a vacuous spec: a clean report, not a crash."""
    traces = tmp_path / "tiny.txt"
    traces.write_text("a\nb\n", encoding="utf-8")
    specs = tmp_path / "empty.json"
    specs.write_text(json.dumps({"name": "empty", "patterns": [], "rules": []}), encoding="utf-8")
    command = ["monitor", "--input", str(traces), "--specs", str(specs)]
    assert main(command + (["--stream"] if stream else [])) == 0
    captured = capsys.readouterr()
    assert "violations                : 0" in captured.out
    assert "no rules" in captured.err


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# --------------------------------------------------------------------- #
# Streaming ingestion: generate -> ingest -> mine, every format.
# --------------------------------------------------------------------- #
ALL_FORMAT_SUFFIXES = [".txt", ".jsonl", ".csv", ".txt.gz", ".jsonl.gz", ".csv.gz"]


def _mining_output(text):
    """The mined report with the summary line's timing stripped."""
    lines = text.splitlines()
    return [lines[0].rsplit(", ", 1)[0]] + lines[1:]


@pytest.mark.parametrize("suffix", ALL_FORMAT_SUFFIXES)
def test_generate_ingest_mine_patterns_round_trip(tmp_path, capsys, suffix):
    """Mining a store snapshot must print the same table as mining the file."""
    traces = tmp_path / f"synthetic{suffix}"
    assert main(
        ["generate", "--profile", "D1C10N1S4", "--scale", "0.05", "--output", str(traces)]
    ) == 0
    capsys.readouterr()

    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(traces)]) == 0
    output = capsys.readouterr().out
    assert "appended batch 0" in output
    assert "50 traces" in output

    mine = ["--min-support", "10", "--max-length", "3"]
    assert main(["mine-patterns", "--input", str(traces)] + mine) == 0
    direct = capsys.readouterr().out
    assert main(["mine-patterns", "--store", str(store)] + mine) == 0
    from_store = capsys.readouterr().out
    # Same mined table and summary (minus timing and the store's header).
    assert _mining_output(direct) == _mining_output(from_store)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv.gz"])
def test_generate_ingest_mine_rules_round_trip(tmp_path, capsys, suffix):
    traces = tmp_path / f"security{suffix}"
    assert main(["jboss", "--component", "security", "--output", str(traces)]) == 0
    capsys.readouterr()

    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(traces)]) == 0
    capsys.readouterr()

    mine = [
        "--min-s-support", "0.5", "--min-confidence", "0.6",
        "--max-premise-length", "1", "--max-consequent-length", "2",
    ]
    assert main(["mine-rules", "--input", str(traces)] + mine) == 0
    direct = capsys.readouterr().out
    assert main(["mine-rules", "--store", str(store)] + mine) == 0
    from_store = capsys.readouterr().out
    assert _mining_output(direct) == _mining_output(from_store)


def test_mine_patterns_append_into_store(tmp_path, capsys):
    first = tmp_path / "first.txt"
    first.write_text("lock\nuse\nunlock\n\nlock\nunlock\n", encoding="utf-8")
    second = tmp_path / "second.txt"
    second.write_text("lock\nread\nunlock\n", encoding="utf-8")
    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(first)]) == 0
    capsys.readouterr()

    code = main(
        [
            "mine-patterns",
            "--store", str(store),
            "--append", str(second),
            "--min-support", "2",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    # Store progress goes to stderr; stdout stays the machine-readable report.
    assert "appended batch 1" in captured.err
    assert "3 traces in 2 batches" in captured.err
    assert "closed iterative patterns" in captured.out
    assert "store" not in captured.out


def test_ingest_batch_size_splits_files(tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    traces.write_text("a\n\nb\n\nc\n\nd\n\ne\n", encoding="utf-8")
    store = tmp_path / "store"
    assert main(
        ["ingest", "--store", str(store), "--input", str(traces), "--batch-size", "2"]
    ) == 0
    output = capsys.readouterr().out
    assert "appended batch 0" in output and "appended batch 2" in output
    assert "5 traces" in output and "3 batches" in output


def test_ingest_without_inputs_prints_stats(tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    traces.write_text("a\nb\n", encoding="utf-8")
    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(traces)]) == 0
    capsys.readouterr()
    assert main(["ingest", "--store", str(store)]) == 0
    assert "1 traces" in capsys.readouterr().out
    # Stats-only invocations never create a store at a typo'd path.
    missing = tmp_path / "typo-store"
    assert main(["ingest", "--store", str(missing)]) == 2
    assert "no trace store" in capsys.readouterr().err
    assert not missing.exists()


def test_append_of_an_empty_file_commits_nothing(tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    traces.write_text("a\nb\n\na\nb\n", encoding="utf-8")
    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(traces)]) == 0
    capsys.readouterr()
    from repro.ingest import TraceStore

    fingerprint = TraceStore.open(store).fingerprint
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n", encoding="utf-8")
    assert main(
        ["mine-patterns", "--store", str(store), "--append", str(empty), "--min-support", "2"]
    ) == 0
    capsys.readouterr()
    reopened = TraceStore.open(store)
    assert len(reopened.batches) == 1
    assert reopened.fingerprint == fingerprint


def test_ingest_validates_inputs_before_creating_the_store(tmp_path, capsys):
    """A typo'd input must not leave behind a fresh empty store."""
    store = tmp_path / "store"
    missing = tmp_path / "tarces.jsonl"
    assert main(["ingest", "--store", str(store), "--input", str(missing)]) == 2
    assert "no trace file" in capsys.readouterr().err
    assert not store.exists()
    bad_suffix = tmp_path / "traces.parquet"
    bad_suffix.write_text("x\n", encoding="utf-8")
    assert main(["ingest", "--store", str(store), "--input", str(bad_suffix)]) == 2
    assert "cannot infer trace format" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["mine-patterns", "--min-support", "2"],
        ["mine-rules", "--min-s-support", "2"],
        ["monitor", "--specs", "specs.json"],
        ["monitor", "--specs", "specs.json", "--stream"],
    ],
)
def test_a_missing_input_file_is_reported_not_raised(args, tmp_path, capsys):
    """Like ``ingest``, the mining and monitoring commands check the
    ``--input`` path first: a clean error and exit 2, no traceback."""
    missing = tmp_path / "nonexistent.jsonl"
    assert main(args + ["--input", str(missing)]) == 2
    assert f"error: no trace file at {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("specs", ["nonexistent.json", "a-directory", "not-json.json"])
def test_an_unreadable_specs_file_is_reported_not_raised(specs, tmp_path, capsys):
    """``monitor --specs`` reports a missing, unreadable or malformed
    repository the way ``serve --rules`` does: ``error: <path>: …``, exit 2."""
    traces = tmp_path / "traces.txt"
    traces.write_text("open\nclose\n", encoding="utf-8")
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "not-json.json").write_text("{", encoding="utf-8")
    path = tmp_path / specs
    assert main(["monitor", "--input", str(traces), "--specs", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_ingest_parse_error_commits_nothing_for_that_file(tmp_path, capsys):
    """A file failing mid-parse is a clean error and a no-op on the store."""
    good = tmp_path / "good.txt"
    good.write_text("a\nb\n", encoding="utf-8")
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"events": ["a"]}\nnot json\n', encoding="utf-8")
    store = tmp_path / "store"
    code = main(
        ["ingest", "--store", str(store), "--input", str(good), str(bad), "--batch-size", "1"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "invalid JSON" in captured.err
    # good.txt committed as one batch; no chunk of bad.jsonl did.
    assert main(["ingest", "--store", str(store)]) == 0
    stats = capsys.readouterr().out
    assert "1 traces (2 events" in stats and "in 1 batches" in stats


def test_mine_append_with_bad_file_fails_cleanly(tmp_path, capsys):
    first = tmp_path / "first.txt"
    first.write_text("a\nb\n", encoding="utf-8")
    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(first)]) == 0
    capsys.readouterr()
    good = tmp_path / "good.txt"
    good.write_text("c\nd\n", encoding="utf-8")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    code = main(
        [
            "mine-patterns", "--store", str(store),
            "--append", str(good), "--append", str(bad),
            "--min-support", "2",
        ]
    )
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err
    # All-or-nothing: not even good.txt was appended, so re-running the
    # fixed command cannot duplicate its traces.
    assert main(["ingest", "--store", str(store)]) == 0
    assert "in 1 batches" in capsys.readouterr().out


def test_ingest_first_file_parse_error_removes_the_fresh_store(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert not store.exists()
    # And with no store left behind, --store mining stays a loud error.
    assert main(["mine-patterns", "--store", str(store), "--min-support", "2"]) == 2
    assert "no trace store" in capsys.readouterr().err


def test_mining_an_empty_store_is_a_loud_error(tmp_path, capsys):
    from repro.ingest import TraceStore

    TraceStore(tmp_path / "store")  # library-level creation of an empty store
    assert main(
        ["mine-patterns", "--store", str(tmp_path / "store"), "--min-support", "2"]
    ) == 2
    assert "holds no traces" in capsys.readouterr().err


def test_mining_source_misuse_is_rejected(tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    traces.write_text("a\nb\n", encoding="utf-8")
    assert main(["mine-patterns", "--min-support", "2"]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(
        ["mine-patterns", "--input", str(traces), "--store", str(tmp_path / "s"),
         "--min-support", "2"]
    ) == 2
    capsys.readouterr()
    assert main(
        ["mine-rules", "--input", str(traces), "--append", str(traces)]
    ) == 2
    assert "--append requires --store" in capsys.readouterr().err


def test_mining_a_missing_store_is_a_loud_error(tmp_path, capsys):
    """A typo'd --store path must not silently create an empty store."""
    missing = tmp_path / "no-such.tracestore"
    assert main(["mine-patterns", "--store", str(missing), "--min-support", "2"]) == 2
    assert "no trace store" in capsys.readouterr().err
    assert not missing.exists()
    # --append does not soften it: mining never creates stores.
    traces = tmp_path / "traces.txt"
    traces.write_text("a\nb\n", encoding="utf-8")
    assert main(
        ["mine-rules", "--store", str(missing), "--append", str(traces)]
    ) == 2
    assert "no trace store" in capsys.readouterr().err
    assert not missing.exists()


# --------------------------------------------------------------------- #
# Serving layer: streaming monitor, cross-invocation --append, watch mode.
# --------------------------------------------------------------------- #
def test_monitor_stream_matches_offline_output(tmp_path, capsys):
    traces = tmp_path / "security.txt"
    assert main(["jboss", "--component", "security", "--output", str(traces)]) == 0
    specs = tmp_path / "rules.json"
    assert main(
        [
            "mine-rules", "--input", str(traces),
            "--min-s-support", "0.5", "--min-confidence", "0.6",
            "--max-premise-length", "1", "--max-consequent-length", "2",
            "--save", str(specs),
        ]
    ) == 0
    capsys.readouterr()

    offline_code = main(["monitor", "--input", str(traces), "--specs", str(specs)])
    offline = capsys.readouterr().out
    stream_code = main(["monitor", "--input", str(traces), "--specs", str(specs), "--stream"])
    streamed = capsys.readouterr().out
    assert streamed == offline
    assert stream_code == offline_code


def test_monitor_whole_file_reader_accepts_interleaved_csv(tmp_path, capsys):
    """Without --stream, interleaved CSV rows are ordered by trace_id and the
    report equals the sorted file's; the bounded-memory --stream reader
    rejects the same file."""
    traces = [
        ["lock", "use", "unlock"],
        ["lock", "unlock"],
        ["lock", "use"],
        ["lock", "unlock"],
    ]
    rows = [
        (trace_id, position, event)
        for trace_id, trace in enumerate(traces)
        for position, event in enumerate(trace)
    ]
    header = "trace_id,position,event\n"
    sorted_csv = tmp_path / "sorted.csv"
    sorted_csv.write_text(header + "".join(f"{t},{p},{e}\n" for t, p, e in rows))
    # Round-robin across traces, latest trace first: no trace is contiguous.
    interleaved = sorted(rows, key=lambda row: (row[1], -row[0]))
    interleaved_csv = tmp_path / "interleaved.csv"
    interleaved_csv.write_text(header + "".join(f"{t},{p},{e}\n" for t, p, e in interleaved))
    specs = tmp_path / "rules.json"
    assert main(
        [
            "mine-rules", "--input", str(sorted_csv),
            "--min-s-support", "2", "--min-confidence", "0.5",
            "--max-premise-length", "1", "--max-consequent-length", "1",
            "--save", str(specs),
        ]
    ) == 0
    capsys.readouterr()

    sorted_code = main(["monitor", "--input", str(sorted_csv), "--specs", str(specs)])
    sorted_out = capsys.readouterr().out
    assert sorted_code == 1 and "VIOLATION" in sorted_out
    assert main(["monitor", "--input", str(interleaved_csv), "--specs", str(specs)]) == 1
    assert capsys.readouterr().out == sorted_out

    command = ["monitor", "--input", str(interleaved_csv), "--specs", str(specs), "--stream"]
    assert main(command) == 2
    assert "not contiguous" in capsys.readouterr().err


def test_store_mining_is_incremental_across_invocations(tmp_path, capsys):
    """The persisted record cache makes a second --append run a delta."""
    first = tmp_path / "first.txt"
    first.write_text("lock\nuse\nunlock\n\nlock\nunlock\n\nopen\nclose\n\nopen\nclose\n", encoding="utf-8")
    second = tmp_path / "second.txt"
    second.write_text("lock\nread\nunlock\n", encoding="utf-8")
    store = tmp_path / "store"
    assert main(["ingest", "--store", str(store), "--input", str(first)]) == 0
    capsys.readouterr()

    mine = ["--min-support", "2"]
    assert main(["mine-patterns", "--store", str(store)] + mine) == 0
    first_run = capsys.readouterr()
    assert "initial mine" in first_run.err
    assert (store / "cache").is_dir()

    # Second invocation (a fresh process in real life): only the roots the
    # appended file touched are re-mined, and the output still matches a
    # from-scratch mine of the concatenated corpus.
    assert main(["mine-patterns", "--store", str(store), "--append", str(second)] + mine) == 0
    second_run = capsys.readouterr()
    assert "re-mined" in second_run.err and "initial mine" not in second_run.err

    flat = tmp_path / "flat.txt"
    flat.write_text(first.read_text() + "\n" + second.read_text(), encoding="utf-8")
    assert main(["mine-patterns", "--input", str(flat)] + mine) == 0
    direct = capsys.readouterr().out
    assert _mining_output(direct) == _mining_output(second_run.out)


def test_watch_command_runs_the_serving_loop(tmp_path, capsys):
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    (watch_dir / "day1.txt").write_text(
        "lock\nunlock\n\nlock\nunlock\n\nlock\nwork\n", encoding="utf-8"
    )
    specs = tmp_path / "watch-specs.json"
    code = main(
        [
            "watch",
            "--dir", str(watch_dir),
            "--store", str(tmp_path / "watch-store"),
            "--interval", "0.01",
            "--max-cycles", "1",
            "--min-s-support", "2",
            "--min-confidence", "0.5",
            "--save", str(specs),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "ingested" in captured.out
    assert "serving" in captured.out and "hot-swapped" in captured.out
    assert "VIOLATION" in captured.out  # <lock> -> <unlock> fails on trace 2
    assert "watched 1 cycles" in captured.out
    assert json.loads(specs.read_text())["rules"]


def test_watch_command_requires_an_existing_directory(tmp_path, capsys):
    code = main(
        ["watch", "--dir", str(tmp_path / "missing"), "--store", str(tmp_path / "store")]
    )
    assert code == 2
    assert "no directory to watch" in capsys.readouterr().err


def test_serve_command_round_trip(tmp_path):
    """`repro serve --port 0` prints its bound address on stderr and speaks
    the push protocol end to end (exercised as a real subprocess)."""
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.rules.rule import RecurrentRule
    from repro.serving import PushClient
    from repro.specs.repository import SpecificationRepository

    specs = tmp_path / "rules.json"
    repository = SpecificationRepository(name="serve-test")
    repository.add_rule(
        RecurrentRule(
            premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0
        )
    )
    repository.save(specs)

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--rules", str(specs), "--port", "0", "--shards", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = process.stderr.readline()
        match = re.search(r"serving 1 rules on 127\.0\.0\.1:(\d+)", banner)
        assert match, banner
        port = int(match.group(1))
        with PushClient("127.0.0.1", port) as client:
            assert client.ping() == {"op": "PONG"}
            assert client.feed("s", "open") == {"op": "OK"}
            reply = client.end("s")
            assert reply["op"] == "SESSION" and reply["violation_count"] == 1
            client.shutdown()
        stdout, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0
    assert "served 1 sessions" in stdout
    assert "violations                : 1" in stdout
    assert "VIOLATION" in stdout


def test_serve_command_requires_a_readable_repository(tmp_path, capsys):
    code = main(["serve", "--rules", str(tmp_path / "missing.json")])
    assert code == 2
    assert "missing.json" in capsys.readouterr().err


def test_watch_command_with_push_port_prints_the_address(tmp_path, capsys):
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    code = main(
        [
            "watch",
            "--dir", str(watch_dir),
            "--store", str(tmp_path / "store"),
            "--interval", "0.0",
            "--max-cycles", "1",
            "--push-port", "0",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "push serving on 127.0.0.1:" in captured.err
    assert "watched 1 cycles" in captured.out


@pytest.mark.parametrize(
    "args",
    [
        ["serve", "--rules", "specs.json", "--port", "70000"],
        ["serve", "--rules", "specs.json", "--port", "-1"],
        ["serve", "--rules", "specs.json", "--http-port", "-5"],
        ["watch", "--dir", "d", "--store", "s", "--push-port", "-1"],
        ["watch", "--dir", "d", "--store", "s", "--http-port", "65536"],
        ["watch", "--dir", "d", "--store", "s", "--interval", "-1"],
        ["watch", "--dir", "d", "--store", "s", "--interval", "nan"],
        ["top", "--interval", "-0.5"],
        ["top", "--interval", "inf"],
        ["mine-patterns", "--input", "t.jsonl", "--top", "-1"],
        ["mine-rules", "--input", "t.jsonl", "--top", "-3"],
        ["monitor", "--input", "t.jsonl", "--specs", "s.json", "--max-violations", "-1"],
        ["watch", "--dir", "d", "--store", "s", "--max-violations", "-2"],
        ["serve", "--rules", "specs.json", "--max-violations", "-1"],
        ["metrics", "--timeout", "-1"],
        ["metrics", "--timeout", "0"],
        ["metrics", "--timeout", "nan"],
        ["top", "--timeout", "inf"],
        ["metrics", "--port", "70000"],
        ["top", "--port", "70000"],
        ["metrics", "--port", "0"],
        ["top", "--port", "65536"],
    ],
)
def test_bad_bind_ports_and_intervals_are_usage_errors(args, capsys):
    """Rejected by argparse up front (exit 2 with a usage message), before
    any socket is bound, any poll cycle has run or any file is read:
    ports, intervals, row counts (``--top``, ``--max-violations``) and
    socket timeouts."""
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "argument --" in err


@pytest.mark.parametrize(
    "args",
    [
        ["mine-patterns", "--input", "t.jsonl", "--max-length", "0"],
        ["mine-patterns", "--input", "t.jsonl", "--min-support", "0"],
        ["mine-patterns", "--input", "t.jsonl", "--min-support", "nan"],
        ["mine-patterns", "--input", "t.jsonl", "--min-support", "inf"],
        ["mine-rules", "--input", "t.jsonl", "--min-s-support", "nan"],
        ["mine-rules", "--input", "t.jsonl", "--min-s-support", "inf"],
        ["mine-rules", "--input", "t.jsonl", "--min-i-support", "0"],
        ["mine-rules", "--input", "t.jsonl", "--max-premise-length", "0"],
        ["mine-rules", "--input", "t.jsonl", "--max-consequent-length", "-1"],
        ["mine-rules", "--input", "t.jsonl", "--min-confidence", "1.5"],
        ["mine-rules", "--input", "t.jsonl", "--min-confidence", "0"],
        ["watch", "--dir", "d", "--store", "s", "--min-s-support", "inf"],
        ["watch", "--dir", "d", "--store", "s", "--min-confidence", "nan"],
        ["generate", "--output", "g.jsonl", "--scale", "nan"],
        ["generate", "--output", "g.jsonl", "--scale", "0"],
        ["generate", "--output", "g.jsonl", "--scale", "-1"],
        ["generate", "--output", "g.jsonl", "--profile", "bogus"],
    ],
)
def test_bad_thresholds_and_caps_are_usage_errors(args, capsys):
    """Support thresholds, confidences, length caps and the generator's
    scale and profile name are checked by argparse too, before any trace
    is read."""
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "argument --" in err


def test_closed_pattern_mine_is_exact(tmp_path, capsys):
    """On this trace the adjacent-absorption heuristic explores only
    ``<a, b>`` below ``<a>`` (every ``a`` is followed by ``b``) and misses
    the closed ``<a, a>``; the command line must mine the exact set."""
    traces = tmp_path / "abs.txt"
    traces.write_text("a\nb\na\nb\nb\na\nb\n", encoding="utf-8")
    code = main(["mine-patterns", "--input", str(traces), "--min-support", "2", "--top", "50"])
    assert code == 0
    output = capsys.readouterr().out
    assert "mined 6 closed iterative patterns" in output
    assert "['a', 'a']" in output


def test_closed_stdout_stops_the_command_quietly(tmp_path):
    """`repro mine-patterns ... | head -1`: the reader goes away before the
    table is written; the command must stop without a traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    traces = tmp_path / "t.txt"
    traces.write_text("a\nb\na\nb\n\na\nb\n", encoding="utf-8")
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part
    )
    reader, writer = os.pipe()
    os.close(reader)
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "mine-patterns",
             "--input", str(traces), "--min-support", "2"],
            stdout=writer, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(writer)
    _, err = process.communicate(timeout=60)
    assert b"Traceback" not in err
    assert process.returncode == 1


def test_a_broken_pipe_elsewhere_still_raises(monkeypatch):
    """Only a closed stdout ends a command quietly; a broken socket or
    worker pipe must still surface."""
    import repro.cli as cli

    def broken(args):
        raise BrokenPipeError("a socket, not stdout")

    monkeypatch.setitem(cli._COMMANDS, "generate", broken)
    with pytest.raises(BrokenPipeError):
        main(["generate", "--output", "unused.jsonl"])


def test_backend_choices_match_the_engine():
    """The parser spells out the backend names so it need not load the
    engine; they must stay the names the engine accepts."""
    from repro import cli
    from repro.engine import BACKEND_CHOICES

    assert cli._BACKEND_CHOICES == BACKEND_CHOICES

