"""Exporters: Chrome trace JSON, Prometheus text, artifact sniffing,
the ``repro stats`` renderer, and cross-tracer span ingestion."""

import json

import pytest

from repro.telemetry import (
    ChainExecutionTracer,
    ChainStep,
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    load_artifact,
    prometheus_text,
    render_stats,
    write_chrome_trace,
    write_prometheus,
)


def _traced():
    tracer = Tracer()
    with tracer.span("protect", program="wget"):
        with tracer.span("find_gadgets"):
            pass
    return tracer


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------


def test_chrome_trace_emits_valid_complete_events():
    payload = chrome_trace(_traced().to_events(), pid=42)
    events = payload["traceEvents"]
    # one process_name metadata event, then one X event per span
    assert events[0]["ph"] == "M" and events[0]["name"] == "process_name"
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"protect", "find_gadgets"}
    for event in events:
        assert "ph" in event and "pid" in event and "tid" in event
        assert event["pid"] == 42
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert "span_id" in event["args"]
    by_name = {e["name"]: e for e in complete}
    assert (
        by_name["find_gadgets"]["args"]["parent_id"]
        == by_name["protect"]["args"]["span_id"]
    )
    assert by_name["protect"]["args"]["program"] == "wget"
    # ok spans omit status noise from args
    assert "status" not in by_name["protect"]["args"]


def test_chrome_trace_flags_error_status():
    tracer = Tracer()
    try:
        with tracer.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    payload = chrome_trace(tracer.to_events())
    event = [e for e in payload["traceEvents"] if e["ph"] == "X"][0]
    assert event["args"]["status"] == "error"


def test_write_chrome_trace_file_is_loadable(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(_traced(), str(path))
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def test_prometheus_text_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("emu.instructions").inc(1000)
    registry.gauge("pipeline.jobs").set(2.0)
    hist = registry.histogram("protect.chain_words", buckets=(1, 10))
    for v in (0.5, 5, 500):
        hist.observe(v)
    text = prometheus_text(registry)
    lines = text.splitlines()
    # counters get _total; dots are sanitized to underscores
    assert "# TYPE emu_instructions_total counter" in lines
    assert "emu_instructions_total 1000" in lines
    assert "pipeline_jobs 2.0" in lines
    # histogram buckets are cumulative, unlike the internal counts
    assert 'protect_chain_words_bucket{le="1.0"} 1' in lines
    assert 'protect_chain_words_bucket{le="10.0"} 2' in lines
    assert 'protect_chain_words_bucket{le="+Inf"} 3' in lines
    assert "protect_chain_words_count 3" in lines
    assert any(l.startswith("protect_chain_words_sum ") for l in lines)
    assert any(l.startswith("protect_chain_words_stddev ") for l in lines)


def test_prometheus_text_accepts_exported_samples_dict():
    registry = MetricsRegistry()
    registry.counter("a").inc(7)
    assert prometheus_text(registry.to_dict()) == prometheus_text(registry)


def test_prometheus_text_rejects_unknown_sample_type():
    with pytest.raises(ValueError):
        prometheus_text({"weird": {"type": "summary", "value": 1}})


def test_write_prometheus(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc()
    path = tmp_path / "m.prom"
    write_prometheus(registry, str(path))
    assert "c_total 1" in path.read_text()


# ----------------------------------------------------------------------
# Artifact sniffing
# ----------------------------------------------------------------------


def test_load_artifact_sniffs_all_four_kinds(tmp_path):
    registry = MetricsRegistry()
    registry.counter("emu.instructions").inc(5)
    metrics_path = tmp_path / "metrics.json"
    registry.write_json(str(metrics_path))

    tracer = _traced()
    trace_path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(trace_path))

    chrome_path = tmp_path / "chrome.json"
    write_chrome_trace(tracer, str(chrome_path))

    rec = FlightRecorder()
    rec.record("protect", program="wget")
    journal_path = tmp_path / "journal.jsonl"
    rec.write_jsonl(str(journal_path))

    assert load_artifact(str(metrics_path))[0] == "metrics"
    assert load_artifact(str(trace_path))[0] == "trace"
    assert load_artifact(str(chrome_path))[0] == "chrome"
    kind, data = load_artifact(str(journal_path))
    assert kind == "journal"
    assert any(r.get("type") == "journal_summary" for r in data)


def test_load_artifact_rejects_empty_and_garbage(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_artifact(str(empty))
    garbage = tmp_path / "odd.jsonl"
    garbage.write_text('{"type": "mystery"}\n')
    with pytest.raises(ValueError):
        load_artifact(str(garbage))


# ----------------------------------------------------------------------
# The stats renderer
# ----------------------------------------------------------------------


def _engine_samples():
    registry = MetricsRegistry()
    registry.counter("emu.blocks.compiled").inc(10)
    registry.counter("emu.blocks.hits").inc(990)
    registry.counter("emu.blocks.epoch_hits").inc(900)
    registry.counter("emu.blocks.page_revalidations").inc(90)
    registry.counter("emu.blocks.invalidated").inc(3)
    registry.counter("emu.blocks.write_aborts").inc(1)
    registry.counter("emu.instructions").inc(12345)
    registry.counter("emu.cycles").inc(23456)
    for mnemonic, count in (("mov", 500), ("add", 300), ("ret", 200)):
        registry.counter("emu.hot.mnemonic", labels={"mnemonic": mnemonic}).inc(count)
    registry.counter("emu.hot.block", labels={"addr": "0x00001000"}).inc(42)
    return registry.to_dict()


def test_render_stats_metrics_dashboard():
    out = render_stats("metrics", _engine_samples())
    assert "engine block cache" in out
    assert "hit rate 99.00%" in out  # 990 / (990 + 10)
    assert "tier-1 epoch fast-path" in out and "900" in out
    assert "tier-2 page revalidated" in out
    assert "tier-2 page-version" in out
    assert "tier-3 in-block store" in out
    assert "hottest mnemonics (top 10)" in out
    # ranked by count, shares against the sampled total
    assert out.index("mov") < out.index("add") < out.index("ret")
    assert "50.00%" in out
    assert "hottest blocks (executions)" in out
    assert "run totals" in out and "12,345" in out


def test_render_stats_metrics_without_engine_samples():
    samples = {"misc": {"type": "counter", "name": "misc", "value": 1}}
    assert "no engine/chain samples" in render_stats("metrics", samples)


def test_render_stats_trace_and_journal_and_chrome(tmp_path):
    tracer = _traced()
    out = render_stats("trace", tracer.to_events())
    assert "spans: 2" in out and "protect" in out

    rec = FlightRecorder()
    for _ in range(3):
        rec.record("chain_dispatch", gadget=0x1000)
    rec.record("block_compile", start=0x2000)
    journal_path = tmp_path / "j.jsonl"
    rec.write_jsonl(str(journal_path))
    out = render_stats("journal", load_artifact(str(journal_path))[1])
    assert "journal: 4 events retained" in out
    assert "chain_dispatch" in out and "block_compile" in out

    out = render_stats("chrome", chrome_trace(tracer.to_events()))
    assert "chrome trace: 2 complete events" in out

    with pytest.raises(ValueError):
        render_stats("mystery", {})


def test_stats_renders_chain_traces(tmp_path, capsys):
    from repro.cli import main

    tracer = ChainExecutionTracer([0x1000, 0x2000], preferred=[0x2000])
    tracer.steps = [
        ChainStep(seq, address=addr, esp=0x8000, eip=addr, preferred=pref)
        for seq, (addr, pref) in enumerate(
            [(0x1000, False), (0x2000, True), (0x2000, True)]
        )
    ]
    path = tmp_path / "chain.jsonl"
    tracer.write_jsonl(str(path))
    kind, records = load_artifact(str(path))
    assert kind == "chain"
    out = render_stats(kind, records)
    assert "chain trace: 3 steps recorded (0 dropped)" in out
    assert "preferred hits" in out and " 2" in out
    assert "0x2000" in out  # the last gadget

    assert main(["stats", str(path)]) == 0
    assert f"{path} [chain]" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Tracer.ingest: adopting worker spans
# ----------------------------------------------------------------------


def test_ingest_remaps_ids_and_reparents_roots():
    worker = Tracer()
    with worker.span("protect", program="gzip"):
        with worker.span("find_gadgets"):
            pass
    parent = Tracer()
    with parent.span("pipeline.program") as program_span:
        adopted = parent.ingest(worker.to_events(), parent_id=program_span.span_id)

    assert [s.name for s in adopted] == ["find_gadgets", "protect"]
    by_name = {s.name: s for s in parent.spans}
    # the worker's root hangs off the parent's span...
    assert by_name["protect"].parent_id == by_name["pipeline.program"].span_id
    # ...and the worker-internal nesting is preserved under fresh ids
    assert by_name["find_gadgets"].parent_id == by_name["protect"].span_id
    ids = [s.span_id for s in parent.spans]
    assert len(ids) == len(set(ids)), "ingest must not collide span ids"
    assert by_name["protect"].attributes == {"program": "gzip"}


def test_ingest_preserves_timing_and_status():
    worker = Tracer()
    try:
        with worker.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    exported = worker.to_events()
    parent = Tracer()
    (span,) = parent.ingest(exported)
    assert span.status == "error"
    assert span.parent_id is None  # no parent_id given: stays a root
    assert span.start_wall == exported[0]["start_ts"]
    assert span.duration == pytest.approx(exported[0]["duration_s"])


def test_ingest_on_disabled_tracer_is_noop():
    worker = Tracer()
    with worker.span("work"):
        pass
    disabled = Tracer(enabled=False)
    assert disabled.ingest(worker.to_events()) == []
    assert disabled.spans == []


def test_ingest_skips_non_span_records():
    parent = Tracer()
    adopted = parent.ingest([{"type": "event", "kind": "protect"}])
    assert adopted == []
