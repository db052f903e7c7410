"""The command-line interface."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("wget", "gcc", "lame"):
        assert name in out


def test_run_gzip(capsys):
    assert main(["run", "gzip"]) == 0
    out = capsys.readouterr().out
    assert "exit" in out and "cycles" in out


def test_run_with_debugger_refused(capsys):
    # wget refuses to run under a debugger (exit 99, still a clean exit)
    assert main(["run", "wget", "--debugger"]) == 0
    assert "99" in capsys.readouterr().out


def test_analyze(capsys):
    assert main(["analyze", "gzip"]) == 0
    out = capsys.readouterr().out
    assert "near-ret%" in out and "gzip" in out


def test_unknown_program_rejected():
    with pytest.raises(SystemExit):
        main(["run", "notaprogram"])


@pytest.fixture
def cli_small_wget(monkeypatch, small_wget):
    """Route the CLI's program builder at the fast test corpus."""
    monkeypatch.setattr("repro.cli.build_program", lambda name: small_wget)


def test_protect_json_and_telemetry_files(capsys, tmp_path, cli_small_wget):
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.jsonl"
    assert main([
        "protect", "wget", "--json",
        "--metrics", str(metrics_path), "--trace", str(trace_path),
    ]) == 0

    report = json.loads(capsys.readouterr().out)
    assert report["program"] == "wget"
    assert report["behaviour_preserved"] is True
    assert report["chains"] and report["chains"][0]["word_count"] > 0
    assert report["chains"][0]["gadget_addresses"]

    metrics = json.loads(metrics_path.read_text())
    assert metrics["gadgets.offsets_scanned"]["value"] > 0
    assert metrics["protect.chain_words"]["type"] == "histogram"
    assert metrics["protect.chain_words"]["count"] >= 1

    events = [json.loads(l) for l in trace_path.read_text().splitlines()]
    by_name = {e["name"]: e for e in events}
    assert {"protect", "find_gadgets", "compile_chain", "emit_chain"} <= set(by_name)
    # find_gadgets and emit_chain nest under protect
    assert by_name["find_gadgets"]["parent_id"] == by_name["protect"]["span_id"]
    assert by_name["emit_chain"]["parent_id"] == by_name["protect"]["span_id"]


def test_protect_metrics_to_stdout(capsys, cli_small_wget):
    assert main(["protect", "wget", "--metrics", "-"]) == 0
    out = capsys.readouterr().out
    # summary text first, then the metrics JSON object
    payload = json.loads(out[out.index("\n{") :])
    assert "protect.chains_emitted" in payload


def test_profile_prints_cycle_table(capsys, cli_small_wget):
    assert main(["profile", "wget"]) == 0
    out = capsys.readouterr().out
    assert "function" in out and "cycles" in out
    assert "checksum_words" in out
    # the engine hot-spot table rides along with the function table
    assert "engine hot spots" in out
    assert "mnemonic" in out


def test_profile_engines_print_the_same_tables(capsys):
    tables = {}
    for engine in ("step", "block"):
        assert main(["profile", "gzip", "--engine", engine]) == 0
        functions, hotspots, totals = capsys.readouterr().out.split("\n\n")
        # the block engine adds a per-superblock table after the mnemonics
        mnemonics = hotspots.split("\n  block")[0]
        tables[engine] = (functions, mnemonics, totals)
    assert tables["step"] == tables["block"]
    assert "digest_gzip" in tables["step"][0]


def test_protect_trace_to_stdout(capsys, cli_small_wget):
    assert main(["protect", "wget", "--trace", "-"]) == 0
    out = capsys.readouterr().out
    spans = []
    for line in out.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            assert record["type"] == "span"
            spans.append(record)
    names = {s["name"] for s in spans}
    assert {"protect", "find_gadgets", "emit_chain"} <= names
    assert all(s["duration_s"] >= 0 for s in spans)


def test_run_chrome_trace_is_valid_trace_event_json(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["run", "gzip", "--chrome-trace", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert events, "trace must not be empty"
    for event in events:
        assert "ph" in event and "pid" in event and "tid" in event
    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
    assert "emulate" in {e["name"] for e in complete}


def test_protect_journal_and_prom_files(tmp_path, capsys, cli_small_wget):
    journal_path = tmp_path / "j.jsonl"
    prom_path = tmp_path / "m.prom"
    assert main([
        "protect", "wget",
        "--journal", str(journal_path), "--prom", str(prom_path),
    ]) == 0
    capsys.readouterr()

    records = [json.loads(l) for l in journal_path.read_text().splitlines()]
    summaries = [r for r in records if r["type"] == "journal_summary"]
    assert len(summaries) == 1 and summaries[0]["recorded"] >= 1
    kinds = {r["kind"] for r in records if r["type"] == "event"}
    assert "protect" in kinds

    prom = prom_path.read_text()
    assert "# TYPE" in prom
    assert "emu_instructions_total" in prom
    assert '_bucket{le="+Inf"}' in prom


def test_stats_dashboard_over_metrics(tmp_path, capsys, cli_small_wget):
    metrics_path = tmp_path / "m.json"
    assert main(["protect", "wget", "--metrics", str(metrics_path)]) == 0
    capsys.readouterr()
    assert main(["stats", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert f"{metrics_path} [metrics]" in out
    assert "engine block cache" in out
    assert "hit rate" in out
    assert "tier-2 page-version" in out and "tier-3 in-block store" in out
    assert "hottest mnemonics (top 10)" in out
    assert "run totals" in out


def test_stats_rejects_unrecognized_artifacts_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("")
    missing = tmp_path / "missing.json"
    assert main(["stats", str(bad), str(missing)]) == 2
    err = capsys.readouterr().err
    # one line per artifact, naming the path and the expected kinds
    lines = [l for l in err.splitlines() if "not a recognized" in l]
    assert len(lines) == 2
    assert str(bad) in lines[0] and str(missing) in lines[1]
    for line in lines:
        for kind in ("metrics", "trace", "journal", "chrome", "coverage"):
            assert kind in line


def test_stats_good_artifact_still_renders_after_bad_one(
    tmp_path, capsys, cli_small_wget
):
    metrics_path = tmp_path / "m.json"
    assert main(["protect", "wget", "--metrics", str(metrics_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["stats", str(bad), str(metrics_path)]) == 2
    captured = capsys.readouterr()
    assert f"{metrics_path} [metrics]" in captured.out
    assert str(bad) in captured.err


def test_coverage_human_output(capsys, cli_small_wget):
    assert main(["coverage", "wget"]) == 0
    out = capsys.readouterr().out
    assert "Coverage map: wget" in out
    assert "protected bytes" in out
    assert "covered bytes" in out
    assert "!SPOF" in out or "!UNCOVERED" in out
    assert "digest_wget" in out


def test_coverage_json_artifact_round_trips_through_stats(
    tmp_path, capsys, cli_small_wget
):
    out_path = tmp_path / "nested" / "dirs" / "coverage.json"
    assert main(["coverage", "wget", "--json", "--out", str(out_path)]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_path.read_text())  # parent dirs created
    assert stdout_payload == file_payload
    assert file_payload["type"] == "coverage"
    assert file_payload["program"] == "wget"
    assert file_payload["covered_bytes"] > 0
    assert 0.0 < file_payload["coverage_fraction"] <= 1.0
    assert file_payload["byte_map"]

    assert main(["stats", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert f"{out_path} [coverage]" in out
    assert "protected bytes" in out


def test_export_flags_create_parent_directories(tmp_path, capsys, cli_small_wget):
    base = tmp_path / "deep"
    metrics_path = base / "a" / "m.json"
    journal_path = base / "b" / "j.jsonl"
    chrome_path = base / "c" / "t.json"
    prom_path = base / "d" / "m.prom"
    trace_path = base / "e" / "t.jsonl"
    assert main([
        "protect", "wget",
        "--metrics", str(metrics_path), "--journal", str(journal_path),
        "--chrome-trace", str(chrome_path), "--prom", str(prom_path),
        "--trace", str(trace_path),
    ]) == 0
    capsys.readouterr()
    for path in (metrics_path, journal_path, chrome_path, prom_path, trace_path):
        assert path.exists(), path
        assert path.stat().st_size > 0, path


def test_journal_written_even_when_the_command_dies(tmp_path, monkeypatch, capsys):
    def explode(_name):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr("repro.cli.build_program", explode)
    journal_path = tmp_path / "crash.jsonl"
    with pytest.raises(RuntimeError):
        main(["run", "gzip", "--journal", str(journal_path)])
    capsys.readouterr()
    # the crash dump still landed: events (possibly none) + summary
    records = [json.loads(l) for l in journal_path.read_text().splitlines()]
    assert records[-1]["type"] == "journal_summary"
