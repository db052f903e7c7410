"""TelemetryContext: scoping, label stamping, flush reconciliation."""

import threading

import pytest

from repro.telemetry import (
    MetricsRegistry,
    TelemetryContext,
    Tracer,
    current_context,
    current_labels,
    get_metrics,
    get_recorder,
    get_tracer,
    telemetry_context,
    telemetry_session,
)


def test_context_requires_at_least_one_label():
    with pytest.raises(ValueError):
        TelemetryContext({})


def test_accessors_return_context_children_inside_scope():
    with telemetry_session() as (global_metrics, global_tracer):
        assert get_metrics() is global_metrics
        with telemetry_context(request="r1") as ctx:
            assert current_context() is ctx
            assert get_metrics() is ctx.metrics
            assert get_tracer() is ctx.tracer
            assert current_labels() == {"request": "r1"}
        assert current_context() is None
        assert get_metrics() is global_metrics


def test_flush_merges_labeled_samples_into_global():
    with telemetry_session() as (global_metrics, global_tracer):
        with telemetry_context(request="r1"):
            get_metrics().counter("protect.runs").inc(3)
            with get_tracer().span("work", program="wget"):
                pass
        samples = global_metrics.to_dict()
        assert samples['protect.runs{request="r1"}']["value"] == 3
        (span,) = global_tracer.spans
        assert span.name == "work"
        assert span.attributes["ctx.request"] == "r1"
        # span's own attributes survive the ctx.* stamping
        assert span.attributes["program"] == "wget"


def test_nested_contexts_merge_labels_inner_wins():
    with telemetry_session() as (global_metrics, _tracer):
        with telemetry_context(tenant="acme", request="outer"):
            with telemetry_context(request="inner"):
                assert current_labels() == {
                    "tenant": "acme",
                    "request": "inner",
                }
                get_metrics().counter("c").inc()
        assert 'c{request="inner",tenant="acme"}' in global_metrics.to_dict()


def test_flush_is_idempotent_per_batch():
    with telemetry_session() as (global_metrics, _tracer):
        ctx = telemetry_context(request="r1")
        with ctx:
            get_metrics().counter("c").inc(2)
        ctx.flush()  # second flush: child already drained
        assert global_metrics.family_total("c") == 2


def test_context_is_not_reentrant():
    ctx = telemetry_context(request="r1")
    with telemetry_session():
        with ctx:
            with pytest.raises(RuntimeError):
                ctx.__enter__()


def test_context_mirrors_disabled_state():
    # no session: process-wide telemetry is disabled
    with telemetry_context(request="r1"):
        counter = get_metrics().counter("c")
        counter.inc()  # null instrument, nothing recorded
    assert get_metrics().to_dict() == {}


def test_private_scope_hides_enclosing_context_until_exit():
    with telemetry_session(recorder=True) as (global_metrics, _tracer):
        root_recorder = get_recorder()
        with telemetry_context(request="r1") as ctx:
            registry = MetricsRegistry()
            tracer = Tracer()
            with TelemetryContext.private(metrics=registry, tracer=tracer):
                # the private scope's own objects win ...
                assert get_metrics() is registry
                assert get_tracer() is tracer
                # ... and what it was not given resolves to the root,
                # not to the enclosing labeled context
                assert get_recorder() is root_recorder
                assert current_context() is None
                assert current_labels() == {}
                get_metrics().counter("c").inc()
            assert current_context() is ctx
            assert get_metrics() is ctx.metrics
            assert get_recorder() is ctx.recorder
        # a private scope never flushes: its caller ships the samples
        assert registry.to_dict()["c"]["value"] == 1
        assert global_metrics.to_dict() == {}
        assert get_metrics() is global_metrics


def test_recorder_view_stamps_ctx_field_live():
    with telemetry_session(recorder=True):
        seen = []
        recorder = get_recorder()
        recorder.subscribe(seen.append)
        try:
            with telemetry_context(request="r1", tenant="acme"):
                get_recorder().record("protect", program="wget")
        finally:
            recorder.unsubscribe(seen.append)
        # the event reached the global ring (and subscribers) while the
        # context was still open — labeled live, not at flush time
        (event,) = seen
        assert event["kind"] == "protect"
        assert event["ctx"] == {"request": "r1", "tenant": "acme"}
        (retained,) = recorder.to_events()
        assert retained["ctx"] == {"request": "r1", "tenant": "acme"}


def test_threaded_contexts_are_isolated_and_reconcile():
    """Satellite (c) core invariant: concurrent per-thread contexts keep
    their labels apart, and per-label sums equal the global exactly."""
    increments = {"r1": 7, "r2": 11, "r3": 13}
    with telemetry_session() as (global_metrics, _tracer):
        barrier = threading.Barrier(len(increments))
        errors = []

        def work(request, n):
            try:
                with telemetry_context(request=request):
                    barrier.wait(timeout=5)
                    for _ in range(n):
                        get_metrics().counter("work.items").inc()
                    assert current_labels() == {"request": request}
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=item)
            for item in increments.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        samples = global_metrics.to_dict()
        for request, n in increments.items():
            assert samples[f'work.items{{request="{request}"}}']["value"] == n
        assert global_metrics.family_total("work.items") == sum(
            increments.values()
        )


def test_private_scopes_stay_private_under_thread_switching():
    """More threads than cores, a tiny switch interval: each thread's
    private scope inside its labeled context keeps its own counts, and
    the labeled counts still reconcile with the root."""
    import sys

    n_threads, n_incs = 8, 2000
    registries = {}
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with telemetry_session() as (global_metrics, _tracer):

            def work(request):
                try:
                    with telemetry_context(request=request):
                        registry = MetricsRegistry()
                        with TelemetryContext.private(metrics=registry):
                            for _ in range(n_incs):
                                get_metrics().counter("private").inc()
                        for _ in range(n_incs):
                            get_metrics().counter("labeled").inc()
                    registries[request] = registry
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(f"r{i}",))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(registries) == n_threads
    for registry in registries.values():
        assert registry.to_dict()["private"]["value"] == n_incs
    assert "private" not in global_metrics
    assert global_metrics.family_total("labeled") == n_threads * n_incs
