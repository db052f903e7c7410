"""Golden exports: every telemetry exporter's output, frozen.

A fixed labeled ``protect_all(["wget", "gzip"], use_cache=False)`` runs
inline (``jobs=1``) and on a pool (``jobs=2``) under
``telemetry_session(recorder=True)``, and the four exports it leaves
behind — Prometheus text, the Chrome trace, the JSONL span tree and the
flight-recorder journal — must match ``golden_exports.json`` exactly
once timing fields are normalized.  The protect path observes no timing
histograms, so the metric samples are deterministic as they stand.

Normalization drops wall-clock fields (``ts``/``dur``, ``start_ts``/
``duration_s``, ``worker_ts``, ``seconds``, ``elapsed_s``,
``start_wall``, ``self_seconds``) and maps process ids to lane order:
lane 0 is this process, worker lanes count up in order of first
appearance.  The journal drops ``pid`` outright.

Regenerate (only for an intended format change) with::

    PYTHONPATH=src python tests/telemetry/test_golden_exports.py
"""

import json
import os
import tempfile

import pytest

from repro import telemetry
from repro.cache import cache_session
from repro.pipeline import protect_all
from repro.telemetry import TelemetryContext

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_exports.json")
NAMES = ["wget", "gzip"]
LABELS = {"request": "golden", "tenant": "t0"}

_TIMING = frozenset(
    (
        "ts",
        "dur",
        "start_ts",
        "duration_s",
        "worker_ts",
        "seconds",
        "elapsed_s",
        "start_wall",
        "self_seconds",
    )
)


class _Lanes:
    """Maps process ids to lane numbers: this process first, then
    workers in order of first appearance."""

    def __init__(self):
        self._lanes = {os.getpid(): 0}

    def __call__(self, pid) -> int:
        return self._lanes.setdefault(int(pid), len(self._lanes))


def _strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _TIMING}


def _chrome(payload: dict) -> list:
    lanes = _Lanes()
    events = []
    # Span events first so worker lanes number in span order, the same
    # order the exporter emits their metadata in.
    for event in payload["traceEvents"]:
        if event["ph"] == "X":
            lanes(event["pid"])
    for event in payload["traceEvents"]:
        event = _strip(event)
        event["pid"] = lanes(event["pid"])
        args = _strip(event["args"])
        if "worker_pid" in args:
            args["worker_pid"] = lanes(args["worker_pid"])
        if event["ph"] == "M" and event["name"] == "process_name":
            prefix, _, pid = args["name"].rpartition(" ")
            if prefix:
                args["name"] = f"{prefix} lane{lanes(pid)}"
        event["args"] = args
        events.append(event)
    return events


def _spans(lines: list) -> list:
    lanes = _Lanes()
    out = []
    for line in lines:
        record = _strip(json.loads(line))
        attributes = _strip(record["attributes"])
        if "worker_pid" in attributes:
            attributes["worker_pid"] = lanes(attributes["worker_pid"])
        record["attributes"] = attributes
        out.append(record)
    return out


def _journal(lines: list) -> list:
    out = []
    for line in lines:
        record = json.loads(line)
        out.append({k: v for k, v in _strip(record).items() if k != "pid"})
    return out


def capture(jobs: int) -> dict:
    """Run the fixed labeled pipeline and return its normalized exports."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            name: os.path.join(tmp, name)
            for name in ("prom", "chrome", "spans", "journal")
        }
        with cache_session(enabled=False):
            with telemetry.telemetry_session(recorder=True) as (metrics, tracer):
                with TelemetryContext(LABELS):
                    protect_all(NAMES, jobs=jobs, use_cache=False)
                telemetry.write_prometheus(metrics, paths["prom"])
                telemetry.write_chrome_trace(tracer, paths["chrome"])
                tracer.write_jsonl(paths["spans"])
                telemetry.get_recorder().write_jsonl(paths["journal"])
        with open(paths["prom"]) as fh:
            prom = fh.read().splitlines()
        with open(paths["chrome"]) as fh:
            chrome = json.load(fh)
        with open(paths["spans"]) as fh:
            spans = fh.read().splitlines()
        with open(paths["journal"]) as fh:
            journal = fh.read().splitlines()
    return {
        "prometheus": prom,
        "chrome": _chrome(chrome),
        "spans": _spans(spans),
        "journal": _journal(journal),
    }


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("export", ["prometheus", "chrome", "spans", "journal"])
def test_export_matches_golden(jobs, export, _captured):
    expected = _golden()[f"jobs={jobs}"][export]
    actual = _captured(jobs)[export]
    # Compare serialized forms so key order (Chrome-trace args keep
    # attribute insertion order) is frozen too.
    assert json.dumps(actual, indent=1) == json.dumps(expected, indent=1)


@pytest.fixture(scope="module")
def _captured():
    cache = {}

    def get(jobs):
        if jobs not in cache:
            cache[jobs] = capture(jobs)
        return cache[jobs]

    return get


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(
            {f"jobs={jobs}": capture(jobs) for jobs in (1, 2)}, fh, indent=1
        )
        fh.write("\n")
