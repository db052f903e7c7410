"""Flight recorder: ring bounds, disabled fast path, dump/export."""

import json

import pytest

from repro.telemetry import (
    FlightRecorder,
    get_recorder,
    telemetry_session,
)


def test_record_retains_events_in_order():
    rec = FlightRecorder()
    rec.record("protect", program="wget")
    rec.record("block_compile", start=0x1000, n=7)
    events = rec.to_events()
    assert [e["kind"] for e in events] == ["protect", "block_compile"]
    assert events[0]["program"] == "wget"
    assert events[1]["start"] == 0x1000
    assert events[0]["seq"] == 1 and events[1]["seq"] == 2
    # monotonic timestamps
    assert 0 <= events[0]["ts"] <= events[1]["ts"]
    assert all(e["type"] == "event" for e in events)


def test_ring_bounds_and_dropped_count():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record("k", i=i)
    assert len(rec) == 4
    assert rec.dropped == 6
    # the newest events survive
    assert [e["i"] for e in rec.to_events()] == [6, 7, 8, 9]
    summary = rec.summary()
    assert summary["recorded"] == 10
    assert summary["retained"] == 4
    assert summary["dropped"] == 6
    assert summary["capacity"] == 4


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_disabled_recorder_is_a_noop():
    rec = FlightRecorder(enabled=False)
    rec.record("protect", program="wget")
    assert len(rec) == 0
    assert rec.dropped == 0
    assert rec.to_events() == []
    assert rec.summary()["recorded"] == 0


def test_kinds_counts_retained_events():
    rec = FlightRecorder()
    for _ in range(3):
        rec.record("chain_dispatch")
    rec.record("attack", name="bitflip")
    assert rec.kinds() == {"chain_dispatch": 3, "attack": 1}


def test_clear_resets_ring_and_sequence():
    rec = FlightRecorder(capacity=2)
    for i in range(5):
        rec.record("k", i=i)
    rec.clear()
    assert len(rec) == 0 and rec.dropped == 0
    rec.record("k", i=99)
    assert rec.to_events()[0]["seq"] == 1


def test_dump_jsonl_roundtrip(tmp_path):
    rec = FlightRecorder()
    rec.record("rewrite", image="wget", near=12)
    rec.record("block_invalidate", tier="page")
    path = tmp_path / "journal.jsonl"
    rec.write_jsonl(str(path))
    records = [json.loads(l) for l in path.read_text().splitlines()]
    # events first, exactly one trailing summary
    assert [r["type"] for r in records] == ["event", "event", "journal_summary"]
    assert records[0]["kind"] == "rewrite" and records[0]["near"] == 12
    assert records[1]["tier"] == "page"
    assert records[2]["kinds"] == {"rewrite": 1, "block_invalidate": 1}


def test_default_recorder_starts_disabled():
    rec = get_recorder()
    if rec.enabled:
        pytest.skip("another component enabled the default recorder")
    before = len(rec)
    rec.record("should_not_exist")
    assert len(rec) == before


def test_telemetry_session_installs_and_restores_recorder():
    before = get_recorder()
    with telemetry_session(recorder=True):
        inside = get_recorder()
        assert inside is not before
        assert inside.enabled
        inside.record("protect", program="x")
        assert len(inside) == 1
    assert get_recorder() is before
