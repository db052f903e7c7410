"""Shared pieces of the workloads: the timed-window record and statistics."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Any, Dict, List, Optional

__all__ = [
    "RUN_MAX_STEPS",
    "Window",
    "median",
    "peak_rss_mb",
    "tail_percentile",
]

#: Every verify / attack emulation runs with the serving layer's budget.
RUN_MAX_STEPS = 50_000_000


class Window:
    """What one timed window measured and checked."""

    def __init__(self) -> None:
        self.seconds = 0.0  # wall time of the window
        self.completed = 0  # jobs answered (serve: hits + misses)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []  # one line per failed job
        self.job_ms: List[float] = []  # latency of jobs that ran the pipeline
        self.hit_ms: List[float] = []  # serve-cache replays (serve-protect)
        self.passes = 0  # whole passes over the corpus
        #: Per-layer inputs only the workload can see (client latencies,
        #: /metrics readings, worker busy time).
        self.extras: Dict[str, Any] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def jobs_per_s(self) -> float:
        return self.completed / self.seconds if self.seconds > 0 else 0.0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or None unless at least ten samples
    lie beyond it (fewer would make the tail one or two outliers)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's max RSS."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0
