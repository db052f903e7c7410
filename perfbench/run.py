#!/usr/bin/env python3
"""End-to-end job benchmark for the Parallax reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-protect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (one fresh process each; ``all`` runs them one after another in
child processes):

* ``serve-protect`` — pinned ``protect`` jobs through an in-process
  ``repro serve`` with a warm cache; replays hit the serve cache.
* ``protect-cold`` — ``protect_all(use_cache=False, jobs=2)`` passes.
* ``evaluate`` — selection + protect + verify + attack matrix per program.

Each run sets up (``setup_repeats`` times; ``setup_s`` is the median),
measures one untraced window of ``--seconds`` and checks every output.
``--trace 1`` then sets up again with span recording installed, measures
a traced window on the same inputs and reports the per-layer metrics;
the spans are written to ``.bench_build/perfbench/`` at the end.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer
metrics traced).  Any wrong output makes the exit status 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

WORKLOADS = {
    "serve-protect": "serve_protect",
    "protect-cold": "protect_cold",
    "evaluate": "evaluate",
}

SPAN_DIR = os.path.join(".bench_build", "perfbench")


def _prepare_imports(root: str) -> bool:
    """Import ``repro`` from this checkout's ``src``, untouched by any
    ``REPRO_*`` setting of the caller's environment."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [root, src]
    return True


def _load_manifest(root: str) -> Optional[dict]:
    """BENCHMARK.json, which declares the metrics and their units."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _print_window(label: str, window, setup_s: Optional[float] = None) -> None:
    from perfbench.common import median, tail_percentile

    print(f"  [{label}] {window.completed} jobs in {window.seconds:.3f} s "
          f"({window.passes or '-'} passes)")
    if setup_s is not None:
        print(f"    setup_s      {setup_s:.4f} s")
    print(f"    jobs_per_s   {window.jobs_per_s:.4f} 1/s")
    for name, samples in (("job", window.job_ms), ("hit", window.hit_ms)):
        if not samples:
            continue
        p95 = tail_percentile(samples, 95)
        p95_text = f"{p95:.3f} ms" if p95 is not None else "n/a (<10 samples beyond)"
        print(f"    {name}_p50_ms   {median(samples):.3f} ms (n={len(samples)})")
        print(f"    {name}_p95_ms   {p95_text}")
    fail_frac = window.failed / window.attempted if window.attempted else 0.0
    print(f"    fail_frac    {fail_frac:.4f} ({window.failed}/{window.attempted})")
    if "sampled_runs" in window.extras:
        print(f"    sampled_runs {window.extras['sampled_runs']} images run against baseline")
    for message in window.errors:
        print(f"    WRONG OUTPUT: {message}")


def _declared(values: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    """The declared metrics, in manifest order, with their units."""
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        raise RuntimeError(f"no value computed for {', '.join(missing)}")
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, manifest: dict
) -> dict:
    from perfbench import layers
    from perfbench.common import median, peak_rss_mb
    from perfbench.spans import Tracing

    module = importlib.import_module(f"perfbench.{WORKLOADS[name]}")
    workload = module.Workload(seed)
    print(f"perfbench {name}: seed={seed} seconds={seconds} trace={int(trace)}")
    setups = []
    try:
        for index in range(workload.setup_repeats):
            if index:
                workload.teardown()
            setups.append(workload.setup())
        plain = workload.window(seconds)
    finally:
        workload.teardown()
    # After teardown every worker is reaped (RUSAGE_CHILDREN sees it);
    # before check, whose extra runs are not window work.
    peak_rss = peak_rss_mb()
    workload.check(plain)
    setup_s = median(setups)
    _print_window("untraced", plain, setup_s)
    windows = [plain]
    if trace:
        tracing = Tracing().install()
        try:
            try:
                workload.setup(tracing)
                tracing.clear()  # set-up spans are not window work
                traced = workload.window(seconds, tracing)
            finally:
                workload.teardown()
        finally:
            tracing.uninstall()
        windows.append(traced)
        _print_window("traced", traced)
        overhead = 1.0 - traced.jobs_per_s / plain.jobs_per_s
        tree = layers.SpanTree(tracing.spans)
        values = layers.per_layer(tree, traced, overhead)
        line = layers.accounting_line(tree, len(traced.job_ms))
        if line:
            print(f"    {line}")
        path = os.path.join(SPAN_DIR, f"{name}-seed{seed}.spans.jsonl")
        tracing.write(path)
        print(f"    {len(tracing.spans)} spans written to {path}")
        metrics = _declared(values, manifest["per_layer"])
        for metric, reading in metrics.items():
            print(f"    {metric:28s} {reading['value']:.6g} {reading['unit']}")
    else:
        values = {
            "setup_s": setup_s,
            "jobs_per_s": plain.jobs_per_s,
            "job_p50_ms": median(plain.job_ms),
            "peak_rss_mb": peak_rss,
        }
        print(f"    peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        metrics = _declared(values, manifest["end_to_end"])
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(argv_tail: List[str]) -> Tuple[dict, int]:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, *argv_tail],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode not in (0, 1) or not lines:
            print(f"perfbench {name}: exited {child.returncode}", file=sys.stderr)
            return combined, child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined, 0 if combined["correct"] else 1


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that ``spawn`` pools start, so
    nothing this benchmark started outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not _prepare_imports(root):
        print(
            f"perfbench: no repro sources under {os.path.join(root, 'src')}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    manifest = _load_manifest(root)
    if manifest is None:
        print(f"perfbench: no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    if args.workload == "all":
        tail = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        result, status = run_all(tail)
        print(json.dumps(result, sort_keys=True))
        return status
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), manifest
        )
    finally:
        _stop_resource_tracker()
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
