"""Telemetry scopes: one ContextVar, one scope type, one process root.

:func:`get_metrics`, :func:`get_tracer` and :func:`get_recorder` return
the innermost active scope's objects, or the process root's when no
scope is active.  A scope is a :class:`TelemetryContext`, of one of two
kinds:

* **labeled** — ``TelemetryContext(labels)`` carries a label set
  (request id, tenant, engine, workload — any ``str -> str`` mapping).
  Its *child registry* stamps the labels on every instrument (via
  ``base_labels``), its child tracer collects spans, and its recorder is
  a view of the root flight recorder that attaches the labels to every
  event as a ``ctx`` field — so events stream live (to subscribers,
  rolling windows and ``--journal-follow``) instead of waiting for the
  context to close.  Nested labeled contexts merge labels, inner keys
  winning.
* **private** — ``TelemetryContext.private(metrics=..., tracer=...,
  recorder=...)`` holds exactly the objects its caller passes in; any
  object not passed resolves to the root.  It never flushes: its caller
  ships the samples.  Pipeline task bodies run under one, so the inline
  ``jobs=1`` path collects into the same private objects a pool worker
  would, and the parent labels them exactly once at merge time.  Being
  innermost, a private scope hides any enclosing labeled context.

On exit a labeled context **flushes**: the child registry's labeled
samples merge into the root registry (guarded by a lock, so concurrent
contexts on different threads reconcile exactly), and the child
tracer's spans are adopted into the root trace with the labels as
``ctx.*`` attributes.  Per-label sums therefore always equal what an
unlabeled run would have recorded — the reconciliation invariant
``tests/pipeline/test_context_isolation.py`` pins down.

Propagation:

* **threads / asyncio** — scopes live in a :mod:`contextvars`
  ContextVar, so each thread (and each asyncio task) sees only its own
  scope;
* **the process root** is plain module state, not a scope: threads and
  ``run_in_executor`` calls do not inherit ContextVars, and unscoped
  work on them must still land somewhere.  Only
  :func:`~repro.telemetry.telemetry_session` swaps the root's objects
  and only :func:`~repro.telemetry.configure` flips them on or off;
* **multiprocessing pool workers** — ``fork`` copies the parent's
  ContextVar state, so the pool initializer calls
  :func:`clear_context`; workers run their tasks under private scopes
  and ship samples/spans/events back to the parent, which merges them
  inside its own scope.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from typing import Dict, Mapping, Optional

from .metrics import MetricsRegistry, _normalize_labels
from .recorder import FlightRecorder
from .tracing import Tracer

__all__ = [
    "TelemetryContext",
    "telemetry_context",
    "current_context",
    "current_labels",
    "clear_context",
    "get_metrics",
    "get_tracer",
    "get_recorder",
]


class _Root:
    """The process-wide telemetry objects; all start disabled."""

    __slots__ = ("metrics", "tracer", "recorder")

    def __init__(self):
        self.metrics = MetricsRegistry(enabled=False)
        self.tracer = Tracer(enabled=False)
        self.recorder = FlightRecorder(enabled=False)


_ROOT = _Root()

#: The innermost active scope for this thread / task (None = the root).
_SCOPE: ContextVar[Optional["TelemetryContext"]] = ContextVar(
    "repro.telemetry.scope", default=None
)

#: Serializes flushes into the root registry/tracer across threads.
_FLUSH_LOCK = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The innermost scope's registry, else the process root's
    (disabled until configured)."""
    return (_SCOPE.get() or _ROOT).metrics


def get_tracer() -> Tracer:
    """The innermost scope's tracer, else the process root's
    (disabled until configured)."""
    return (_SCOPE.get() or _ROOT).tracer


def get_recorder():
    """The innermost scope's flight recorder, else the process root's
    (disabled until configured).

    Inside a labeled context this is a view of the root recorder that
    stamps the context's labels onto every event — same ring, labeled
    events.
    """
    return (_SCOPE.get() or _ROOT).recorder


def current_context() -> Optional["TelemetryContext"]:
    """The innermost scope when it is a labeled context, else ``None``."""
    scope = _SCOPE.get()
    return scope if scope is not None and scope.labels else None


def current_labels() -> Dict[str, str]:
    """The innermost scope's labels (``{}`` outside labeled contexts)."""
    scope = _SCOPE.get()
    return dict(scope.labels) if scope is not None else {}


def clear_context() -> None:
    """Drop any inherited scope (pool-worker initializer).

    ``fork``-started workers inherit the parent's ContextVar state; a
    worker that kept the parent's context would write into a *copy* of
    the parent's child registry and the samples would never make it
    back.  Workers instead run scope-free and ship samples home.
    """
    _SCOPE.set(None)


class _ContextRecorder:
    """View of the root flight recorder that stamps context labels.

    Events recorded through the view reach the real recorder (and its
    subscribers) immediately with a ``ctx`` field carrying the label
    set; everything else delegates, so exporters and hot-path
    ``recorder.enabled`` guards behave identically.
    """

    __slots__ = ("_labels",)

    def __init__(self, labels: Dict[str, str]):
        object.__setattr__(self, "_labels", labels)

    @property
    def _base(self) -> FlightRecorder:
        return _ROOT.recorder

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    def record(self, kind: str, **fields) -> None:
        base = self._base
        if not base.enabled:
            return
        base.record(kind, ctx=self._labels, **fields)

    def ingest(self, events, labels=None, pid=None) -> int:
        merged = dict(self._labels)
        if labels:
            merged.update(labels)
        return self._base.ingest(events, labels=merged, pid=pid)

    def __len__(self) -> int:
        return len(self._base)

    def __getattr__(self, name: str):
        return getattr(self._base, name)

    def __repr__(self) -> str:
        return f"<_ContextRecorder {self._labels} -> {self._base!r}>"


class TelemetryContext:
    """One telemetry scope; use as a context manager.

    ::

        with TelemetryContext({"request": "r-17", "tenant": "acme"}):
            protect_all(jobs=2)           # everything lands under r-17

    The labeled constructor needs at least one label (merged with any
    enclosing context's, inner keys winning); its child registry and
    tracer mirror the enabled state of the telemetry visible at
    construction, so a context under disabled telemetry costs two small
    allocations and nothing else.  :meth:`private` builds the unlabeled
    kind.
    """

    __slots__ = ("labels", "metrics", "tracer", "recorder", "_token")

    def __init__(self, labels: Optional[Mapping] = None):
        merged = current_labels()
        merged.update(_normalize_labels(labels))
        if not merged:
            raise ValueError("a telemetry context needs at least one label")
        self.labels = merged
        self.metrics = MetricsRegistry(
            enabled=get_metrics().enabled, base_labels=merged
        )
        self.tracer = Tracer(enabled=get_tracer().enabled)
        self.recorder = _ContextRecorder(merged)
        self._token = None

    @classmethod
    def private(
        cls,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> "TelemetryContext":
        """An unlabeled scope holding the given objects; any left
        ``None`` resolves to the process root's.  It never flushes."""
        scope = cls.__new__(cls)
        scope.labels = {}
        scope.metrics = _ROOT.metrics if metrics is None else metrics
        scope.tracer = _ROOT.tracer if tracer is None else tracer
        scope.recorder = _ROOT.recorder if recorder is None else recorder
        scope._token = None
        return scope

    # -- scope management ----------------------------------------------

    def __enter__(self) -> "TelemetryContext":
        if self._token is not None:
            raise RuntimeError("telemetry context is not reentrant")
        self._token = _SCOPE.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        _SCOPE.reset(self._token)
        self._token = None
        if self.labels:
            self.flush()
        return False

    # -- reconciliation -------------------------------------------------

    def flush(self) -> None:
        """Merge the child registry and tracer into the root objects.

        Idempotent per batch: merged samples/spans are cleared from the
        child, so flushing mid-run and again at exit never double
        counts.  The merge into the shared root registry is locked —
        two contexts finishing on different threads interleave safely.
        """
        samples = self.metrics.to_dict()
        spans = self.tracer.to_events()
        if not samples and not spans:
            return
        self.metrics.reset()
        self.tracer.reset()
        attributes = {f"ctx.{k}": v for k, v in self.labels.items()}
        with _FLUSH_LOCK:
            if samples:
                # Samples already carry the context labels (base_labels
                # stamped them at accessor time) — merge verbatim.
                _ROOT.metrics.merge_samples(samples)
            if spans:
                _ROOT.tracer.ingest(spans, extra_attributes=attributes)

    def __repr__(self) -> str:
        return f"<TelemetryContext {self.labels or 'private'}>"


def telemetry_context(**labels) -> TelemetryContext:
    """Keyword-argument sugar: ``with telemetry_context(request="r1"):``."""
    return TelemetryContext(labels)
