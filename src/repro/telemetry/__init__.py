"""Telemetry: metrics registry, structured tracing, chain introspection.

Process-wide accessors::

    from repro.telemetry import get_metrics, get_tracer, configure

    configure(metrics=True, tracing=True)   # both start disabled
    with get_tracer().span("protect", program="wget"):
        get_metrics().counter("protect.runs").inc()

The default registry, tracer, and flight recorder start **disabled**:
every instrument accessor returns a shared null object, every span is
the shared null span, and :meth:`FlightRecorder.record` returns
immediately — so instrumented code costs one function call on the cold
paths and literally nothing on the emulator's per-step hot path (hooks
are only installed when a tracer is enabled).  :func:`configure` flips
any side on; :func:`telemetry_session` scopes that to a ``with`` block
and restores the previous state afterwards.

Request scoping: inside a :class:`TelemetryContext`, :func:`get_metrics`,
:func:`get_tracer` and :func:`get_recorder` return the innermost
scope's objects instead of the process root's; a labeled context
merges everything back into the root under its labels on exit (see
:mod:`repro.telemetry.context`).

Exporters live in :mod:`repro.telemetry.export`: Chrome trace-event
JSON from the tracer, Prometheus text from the registry, and the
``repro stats`` / ``repro top`` dashboards over exported (or live)
artifacts.  Rolling-window aggregation for live views lives in
:mod:`repro.telemetry.windows`; the enabled-overhead self-accounting
and budget checks in :mod:`repro.telemetry.overhead`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .chains import ChainExecutionTracer, ChainStep, trace_chain_run
from .context import (
    _ROOT,
    TelemetryContext,
    clear_context,
    current_context,
    current_labels,
    get_metrics,
    get_recorder,
    get_tracer,
    telemetry_context,
)
from .export import (
    ARTIFACT_KINDS,
    chrome_trace,
    load_artifact,
    prometheus_text,
    render_stats,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .overhead import (
    OverheadReport,
    measure_overhead,
    publish_overhead,
    self_accounting,
)
from .recorder import FlightRecorder
from .tracing import Span, Tracer
from .windows import RollingWindow, WindowSet

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "Tracer",
    "FlightRecorder", "get_recorder",
    "ChainStep", "ChainExecutionTracer", "trace_chain_run",
    "TelemetryContext", "telemetry_context", "current_context",
    "current_labels", "clear_context",
    "RollingWindow", "WindowSet",
    "OverheadReport", "measure_overhead", "publish_overhead",
    "self_accounting",
    "chrome_trace", "write_chrome_trace",
    "prometheus_text", "write_prometheus",
    "ARTIFACT_KINDS", "load_artifact", "render_stats",
    "get_metrics", "get_tracer",
    "configure", "disable", "telemetry_session",
]


def configure(
    metrics: Optional[bool] = None,
    tracing: Optional[bool] = None,
    recorder: Optional[bool] = None,
) -> None:
    """Enable/disable the process-wide telemetry objects in place.

    ``None`` leaves that side untouched.  Enabling an already-populated
    registry keeps its instruments; use ``get_metrics().reset()`` for a
    clean slate (likewise ``get_recorder().clear()``).
    """
    if metrics is not None:
        _ROOT.metrics.enabled = metrics
    if tracing is not None:
        _ROOT.tracer.enabled = tracing
    if recorder is not None:
        _ROOT.recorder.enabled = recorder


def disable() -> None:
    configure(metrics=False, tracing=False, recorder=False)


@contextmanager
def telemetry_session(
    metrics: bool = True,
    tracing: bool = True,
    recorder: bool = False,
    recorder_capacity: Optional[int] = None,
):
    """Fresh, enabled registry + tracer (+ optional flight recorder)
    for the duration of the block.

    Yields ``(MetricsRegistry, Tracer)``; the previous process-wide
    objects (and their enabled state) are restored on exit.  When
    ``recorder`` is true a fresh :class:`FlightRecorder` is installed
    for the block too — fetch it with :func:`get_recorder` — sized
    ``recorder_capacity`` events (default: ``REPRO_RECORDER_EVENTS``
    or 8192).
    """
    saved = (_ROOT.metrics, _ROOT.tracer, _ROOT.recorder)
    new_metrics = _ROOT.metrics = MetricsRegistry(enabled=metrics)
    new_tracer = _ROOT.tracer = Tracer(enabled=tracing)
    if recorder:
        _ROOT.recorder = FlightRecorder(capacity=recorder_capacity, enabled=True)
    try:
        yield new_metrics, new_tracer
    finally:
        _ROOT.metrics, _ROOT.tracer, _ROOT.recorder = saved
