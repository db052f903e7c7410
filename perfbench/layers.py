"""Per-layer metrics from a traced window's spans.

Self time is a span's duration minus the part of it its child spans
cover.  Stage times (``*_ms`` / ``*_s`` of a layer) are the layer's self
time summed over the window and divided by the jobs that ran the
pipeline, so within ``Parallax.protect`` the stages and
``protect.self_ms`` add up to ``protect.wall_ms`` exactly.  Emulator runs
made by the §VII-B profile count under ``selection``, not ``emu``.
A layer a workload never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from .common import Window
from .spans import Span

def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanTree:
    """Spans indexed by parent, with self times and ancestry."""

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {span.span_id: span for span in self.spans}
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        self.children = children
        self.self_time = {
            span.span_id: span.duration
            - _covered(
                [(c.start, c.end) for c in children.get(span.span_id, ())],
                span.start,
                span.end,
            )
            for span in self.spans
        }

    def under(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent_id)
        return False

    def named(self, *names: str) -> List[Span]:
        return [span for span in self.spans if span.name in names]

    def self_sum(self, spans: Iterable[Span]) -> float:
        return sum(self.self_time[span.span_id] for span in spans)

    def descendants(self, span: Span) -> List[Span]:
        found, stack = [], list(self.children.get(span.span_id, ()))
        while stack:
            child = stack.pop()
            found.append(child)
            stack.extend(self.children.get(child.span_id, ()))
        return found


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _attr_sum(spans: Iterable[Span], attr: str) -> float:
    return sum((span.attrs or {}).get(attr, 0) for span in spans)


def per_layer(
    tree: SpanTree,
    window: Window,
    overhead_frac: float,
) -> Dict[str, float]:
    """Every per-layer metric for one traced window, by name."""
    jobs = max(1, len(window.job_ms))  # jobs that ran the pipeline
    per_job_ms = lambda seconds: 1000.0 * seconds / jobs  # noqa: E731
    per_job = lambda value: value / jobs  # noqa: E731
    values: Dict[str, float] = {}

    # serve: client latency vs the job body, from the client's side.
    executes = {span.job: span for span in tree.named("execute_job")}
    miss_ms: Dict[str, float] = window.extras.get("miss_ms", {})
    matched = [key for key in miss_ms if key in executes]
    values["serve.overhead_ms"] = _ratio(
        sum(miss_ms[key] - 1000.0 * executes[key].duration for key in matched),
        len(matched),
    )
    payload = [
        span.duration
        - sum(c.duration for c in tree.children.get(span.span_id, ())
              if c.name == "Parallax.protect")
        for span in executes.values()
    ]
    values["serve.payload_ms"] = 1000.0 * _ratio(sum(payload), len(payload))
    values["serve.hit_frac"] = window.extras.get("hit_frac", 0.0)
    values["serve.batch_size_mean"] = window.extras.get("batch_size_mean", 0.0)

    # cache: per-call latency and hit rates per namespace.
    gets, puts = tree.named("ContentCache.get"), tree.named("ContentCache.put")
    values["cache.get_ms"] = 1000.0 * _ratio(tree.self_sum(gets), len(gets))
    values["cache.put_ms"] = 1000.0 * _ratio(tree.self_sum(puts), len(puts))
    for namespace in ("serve", "protect", "gadgets", "decode"):
        lookups = [s for s in gets if s.attrs and s.attrs["namespace"] == namespace]
        hits = sum(1 for s in lookups if s.attrs.get("hit"))
        values[f"cache.{namespace}.hit_frac"] = _ratio(hits, len(lookups))

    clones = tree.named("BinaryImage.clone")
    values["binary.clone_ms"] = per_job_ms(tree.self_sum(clones))
    values["binary.fingerprint_ms"] = per_job_ms(
        tree.self_sum(tree.named("BinaryImage.fingerprint"))
    )
    finds = tree.named("find_gadgets")
    values["gadgets.find_ms"] = per_job_ms(tree.self_sum(finds))
    values["gadgets.count"] = per_job(_attr_sum(finds, "count"))
    decodes = tree.named("decode_all_cached")
    values["x86.decode_ms"] = per_job_ms(tree.self_sum(decodes))
    values["x86.insns_decoded"] = per_job(_attr_sum(decodes, "count"))
    compiles = tree.named("RopCompiler.compile")
    values["ropc.compile_ms"] = per_job_ms(tree.self_sum(compiles))
    values["ropc.chain_words"] = per_job(_attr_sum(compiles, "words"))

    protects = [
        s for s in tree.named("Parallax.protect") if not tree.under(s, "Parallax.protect")
    ]
    wall = sum(s.duration for s in protects)
    own = tree.self_sum(protects)
    values["protect.wall_ms"] = per_job_ms(wall)
    values["protect.self_ms"] = per_job_ms(own)
    values["protect.unattributed_frac"] = _ratio(own, wall)

    profiles = tree.named("profile_run")
    profile_s = sum(s.duration for s in profiles)
    profile_steps = _attr_sum(profiles, "steps")
    values["selection.profile_s"] = per_job(profile_s)
    values["selection.profile_steps"] = per_job(profile_steps)
    values["selection.steps_per_s"] = _ratio(profile_steps, profile_s)
    values["selection.truncated"] = _ratio(
        sum(1 for s in profiles if s.attrs and s.attrs["truncated"]),
        max(1, window.passes),
    )

    emu = [
        s for s in tree.named("run_image", "Emulator.run")
        if not tree.under(s, "profile_run")
    ]
    runs = [s for s in emu if s.name == "Emulator.run"]
    steps = _attr_sum(runs, "steps")
    values["emu.run_s"] = per_job(tree.self_sum(emu))
    values["emu.steps"] = per_job(steps)
    values["emu.steps_per_s"] = _ratio(steps, sum(s.duration for s in runs))

    attacks = tree.named("evaluate_patch_attack", "evaluate_wurster_attack")
    values["attacks.eval_self_s"] = per_job(tree.self_sum(attacks))
    values["attacks.detected_frac"] = _ratio(
        sum(1 for s in attacks if s.attrs and s.attrs["detected"]), len(attacks)
    )
    values["corpus.build_ms"] = per_job_ms(
        tree.self_sum(tree.named("build_program", "build_program_cached"))
    )
    values["pipeline.worker_busy_frac"] = window.extras.get("worker_busy_frac", 0.0)
    values["bench.trace_overhead_frac"] = overhead_frac
    return values


def accounting_line(tree: SpanTree, jobs: int) -> Optional[str]:
    """One line showing that stage self times inside ``Parallax.protect``
    plus its own self time add up to its wall time (ms per job)."""
    totals: Dict[str, float] = defaultdict(float)
    for protect in tree.named("Parallax.protect"):
        if tree.under(protect, "Parallax.protect"):
            continue
        totals["wall"] += protect.duration
        totals["protect"] += tree.self_time[protect.span_id]
        for span in tree.descendants(protect):
            layer = "selection" if tree.under(span, "profile_run") else span.layer
            totals[layer] += tree.self_time[span.span_id]
    if not totals:
        return None
    scale = 1000.0 / max(1, jobs)
    stages = sorted(layer for layer in totals if layer not in ("wall", "protect"))
    parts = " + ".join(f"{layer} {totals[layer] * scale:.3f}" for layer in stages)
    summed = sum(totals[layer] for layer in stages) + totals["protect"]
    return (
        f"stage accounting (ms/job inside Parallax.protect): {parts} "
        f"+ protect.self {totals['protect'] * scale:.3f} = {summed * scale:.3f} "
        f"vs protect.wall {totals['wall'] * scale:.3f}"
    )
