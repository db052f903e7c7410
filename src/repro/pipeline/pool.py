"""Shared multiprocessing plumbing for pipeline fan-out.

The protect-all runner and the serve layer's process executor need the
same things from a worker pool: a start-method choice that prefers
``fork``, and a worker initializer that mirrors the parent's cache
configuration (and silences worker telemetry — workers report samples
back explicitly instead).
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

__all__ = ["mp_context", "worker_init"]


def mp_context():
    """The preferred multiprocessing context (``fork`` when available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def worker_init(cache_dir: Optional[str], enabled: bool) -> None:
    """Pool initializer: mirror the parent's cache configuration.

    Under the ``spawn`` start method nothing is inherited, so the
    parent's effective cache directory is re-applied explicitly; under
    ``fork`` this simply rebuilds the manager with empty memory tiers
    (the disk tier is the shared medium between processes).  Worker
    telemetry is disabled: tasks that want metrics run under private
    registries and ship samples back to the parent for ordered merging.
    """
    from ..cache import configure_cache

    configure_cache(cache_dir=cache_dir, enabled=enabled)
    from .. import telemetry

    telemetry.disable()
    # fork-started workers inherit the parent's ContextVar state; an
    # inherited TelemetryContext would swallow samples into a forked
    # copy of the parent's child registry that never flushes home.
    telemetry.clear_context()
