"""Benchmark-side span recording around the layers' public functions.

Nothing in ``src/`` is instrumented for the benchmark: :meth:`Tracing.install`
wraps the layer entry points listed in :data:`LAYER_FUNCTIONS` (class
methods on their class, module functions in every loaded ``repro`` module
that bound them by name) and :meth:`Tracing.uninstall` puts the originals
back.  Each call records one :class:`Span` — name, layer, start, end,
parent span and job id — in memory.

Worker processes: a pool forked while tracing is installed inherits the
wrappers, and a pool started with ``spawn`` calls :func:`install_in_worker`
from its initializer.  Work sent to a worker goes through :func:`traced_call`,
which runs it and ships the worker's spans back beside the result;
:class:`TracingExecutor` (for ``repro serve``) and :class:`TracingContext`
(for the ``protect-all`` pipeline pool) do that wrapping for pools the
benchmark hands to the program.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import time
from concurrent.futures import Executor, Future
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "LAYER_FUNCTIONS",
    "Span",
    "Tracing",
    "TracingContext",
    "TracingExecutor",
    "install_in_worker",
    "traced_call",
]


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    name: str
    layer: str
    start: float  # time.perf_counter(): CLOCK_MONOTONIC, shared by processes
    end: float
    job: str
    pid: int
    attrs: Optional[Dict[str, Any]]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _steps(_args, _kwargs, result):
    return {"steps": result.steps}


def _profile_attrs(_args, _kwargs, result):
    from repro.emu.errors import StepLimitExceeded

    run = result[0]
    return {
        "steps": run.steps,
        "truncated": isinstance(run.fault, StepLimitExceeded),
    }


def _cache_attrs(args, _kwargs, result):
    attrs = {"namespace": args[0].namespace, "key": args[1]}
    if result is not None:  # get() returns (hit, value); put() returns None
        attrs["hit"] = bool(result[0])
    return attrs


#: (module, attribute path, span name, layer, attrs(args, kwargs, result)).
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.core.protector", "Parallax.protect", "Parallax.protect", "protect", None),
    ("repro.binary.image", "BinaryImage.clone", "BinaryImage.clone", "binary", None),
    (
        "repro.binary.image",
        "BinaryImage.fingerprint",
        "BinaryImage.fingerprint",
        "binary",
        None,
    ),
    (
        "repro.gadgets.finder",
        "find_gadgets",
        "find_gadgets",
        "gadgets",
        lambda a, k, r: {"count": len(r)},
    ),
    (
        "repro.x86.decoder",
        "decode_all_cached",
        "decode_all_cached",
        "x86",
        lambda a, k, r: {"count": len(r)},
    ),
    (
        "repro.ropc.compiler",
        "RopCompiler.compile",
        "RopCompiler.compile",
        "ropc",
        lambda a, k, r: {"words": r.word_count},
    ),
    ("repro.emu.profiler", "profile_run", "profile_run", "selection", _profile_attrs),
    ("repro.emu.emulator", "run_image", "run_image", "emu", None),
    ("repro.emu.emulator", "Emulator.run", "Emulator.run", "emu", _steps),
    (
        "repro.attacks.harness",
        "evaluate_patch_attack",
        "evaluate_patch_attack",
        "attacks",
        lambda a, k, r: {"detected": bool(r.detected)},
    ),
    (
        "repro.attacks.wurster",
        "evaluate_wurster_attack",
        "evaluate_wurster_attack",
        "attacks",
        lambda a, k, r: {"detected": bool(r.detected)},
    ),
    ("repro.cache", "ContentCache.get", "ContentCache.get", "cache", _cache_attrs),
    ("repro.cache", "ContentCache.put", "ContentCache.put", "cache", _cache_attrs),
    ("repro.serve.jobs", "execute_job", "execute_job", "serve", None),
    ("repro.corpus.programs", "build_program", "build_program", "corpus", None),
    (
        "repro.corpus.programs",
        "build_program_cached",
        "build_program_cached",
        "corpus",
        None,
    ),
)

#: Modules whose by-name bindings of the functions above must be patched
#: too (``from ..gadgets import find_gadgets`` copies the reference).
_IMPORTS = (
    "repro",
    "repro.core.protector",
    "repro.core.selection",
    "repro.corpus",
    "repro.emu",
    "repro.attacks",
    "repro.pipeline.runner",
    "repro.serve.jobs",
    "repro.serve.server",
)

_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_current_job: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_job", default=""
)

# The tracing installed in this process.  The wrappers patched into the
# library and the worker-side traced_call() reach the recorder through
# this one reference; install()/uninstall() are its only writers.
_active: Optional["Tracing"] = None


def _serve_job_id(args) -> str:
    from repro.serve.jobs import job_key

    return job_key(args[0])


def _wrap(fn: Callable, name: str, layer: str, attrs_fn: Optional[Callable]):
    # The serve job body runs in a pool worker, where only its task dict
    # identifies the request: it opens the job scope itself.
    job_of = _serve_job_id if name == "execute_job" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracing = _active
        if tracing is None:
            return fn(*args, **kwargs)
        job_token = _current_job.set(job_of(args)) if job_of else None
        span_id = tracing.next_id()
        parent_id = _current_span.get()
        token = _current_span.set(span_id)
        start = time.perf_counter()
        result = None
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            _current_span.reset(token)
            job = _current_job.get()
            if job_token is not None:
                _current_job.reset(job_token)
            attrs = attrs_fn(args, kwargs, result) if ok and attrs_fn else None
            if not job and attrs is not None and "key" in attrs:
                # Server-side cache calls run outside any job scope; the
                # serve content key is that request's job id.
                job = attrs["key"]
            tracing.spans.append(
                Span(span_id, parent_id, name, layer, start, end, job,
                     os.getpid(), attrs)
            )

    return wrapper


class Tracing:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    def next_id(self) -> int:
        # Forked workers continue the parent's counter; the pid keeps
        # their ids distinct.
        return (os.getpid() << 32) | next(self._ids)

    # -- patching -------------------------------------------------------

    def install(self) -> "Tracing":
        global _active
        if _active is not None:
            raise RuntimeError("tracing is already installed")
        for module in _IMPORTS:
            importlib.import_module(module)
        for module_name, path, name, layer, attrs_fn in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, _wrap(original, name, layer, attrs_fn))
                continue
            original = getattr(module, path)
            wrapper = _wrap(original, name, layer, attrs_fn)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, wrapper)
        _active = self
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _active is self:
            _active = None

    # -- span collection --------------------------------------------------

    def take_local(self) -> List[Span]:
        """Remove and return the spans this process recorded.

        A forked worker inherits its parent's span list; only entries
        stamped with the worker's own pid are its work.
        """
        pid = os.getpid()
        spans = [span for span in self.spans if span.pid == pid]
        self.spans.clear()
        return spans

    def adopt(self, spans: List[Span]) -> None:
        self.spans.extend(spans)

    def clear(self) -> None:
        self.spans.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict(), sort_keys=True) + "\n")


def install_in_worker() -> None:
    """Pool initializer for ``spawn`` workers of a traced run."""
    if _active is None:
        Tracing().install()


def traced_call(fn: Callable, args: tuple, job: Optional[str] = None):
    """Run ``fn(*args)`` in a worker; return ``(result, spans)``.

    With no tracing installed in the worker this is a plain call that
    ships an empty span list.
    """
    tracing = _active
    if tracing is None:
        return fn(*args), []
    tracing.take_local()  # drop anything inherited or left over
    token = _current_job.set(job) if job is not None else None
    try:
        result = fn(*args)
    finally:
        if token is not None:
            _current_job.reset(token)
    return result, tracing.take_local()


def _traced_item(packed):
    fn, item, job = packed
    return traced_call(fn, (item,), job)


class TracingExecutor(Executor):
    """Executor handed to ``repro serve``: every submitted call runs
    through :func:`traced_call` in the wrapped pool and its worker spans
    are adopted into ``tracing`` when the result arrives."""

    def __init__(self, inner: Executor, tracing: Tracing):
        self.inner = inner
        self.tracing = tracing

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if kwargs:
            raise TypeError("TracingExecutor.submit takes positional args only")
        outer: Future = Future()
        inner = self.inner.submit(traced_call, fn, args)

        def _done(done: Future) -> None:
            if done.cancelled():
                outer.cancel()
                return
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            result, spans = done.result()
            self.tracing.adopt(spans)
            outer.set_result(result)

        inner.add_done_callback(_done)
        return outer

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self.inner.shutdown(wait=wait, cancel_futures=cancel_futures)


class TracingContext:
    """Stand-in for the pipeline's multiprocessing context: its pools run
    each task through :func:`traced_call` and adopt the spans."""

    def __init__(self, inner, tracing: Tracing, job_of: Callable[[Any], str]):
        self.inner = inner
        self.tracing = tracing
        self.job_of = job_of

    def Pool(self, *args, **kwargs) -> "_TracingPool":  # noqa: N802 — mirrors mp
        return _TracingPool(self.inner.Pool(*args, **kwargs), self)


class _TracingPool:
    def __init__(self, pool, context: TracingContext):
        self.pool = pool
        self.context = context

    def __enter__(self) -> "_TracingPool":
        self.pool.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        return self.pool.__exit__(*exc)

    def imap(self, func, iterable, chunksize: int = 1):
        packed = ((func, item, self.context.job_of(item)) for item in iterable)
        for result, spans in self.pool.imap(_traced_item, packed, chunksize):
            self.context.tracing.adopt(spans)
            yield result
