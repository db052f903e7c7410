"""Selection profile: ``profile_run`` under the step and block engines.

The paper's §VII-B function selection ranks candidates by a profile of
one whole program run (:func:`repro.core.selection.rank_candidates`,
budget :data:`~repro.core.selection.PROFILE_MAX_STEPS`).  This benchmark
times that profile for every corpus program under both engines and
doubles as a differential check: the ``RunResult``, the function
profiles, the call edges, the cycle total and the hot-spot mnemonic
counts must be identical across engines, and any mismatch fails the run.

Each timed profile is cold, as selection's is: a fresh emulator (so
empty decode and block caches), the run, then the fold of its counts.

Emits ``BENCH_selection_profile.json`` next to this file (override with
``--output``) and appends ``history/selection_profile.jsonl``.  Runs
standalone::

    PYTHONPATH=src python benchmarks/bench_selection_profile.py \
        --min-speedup 3.0
"""

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import _shared  # noqa: E402

from repro.core.selection import PROFILE_MAX_STEPS  # noqa: E402
from repro.corpus import PROGRAM_NAMES  # noqa: E402
from repro.emu import profile_run  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(__file__), "BENCH_selection_profile.json"
)

ENGINES = ("step", "block")


def _signature(result, profiler):
    return (
        (result.exit_status, result.steps, result.cycles, result.stdout,
         repr(result.fault)),
        profiler.profiles,
        dict(profiler.call_edges),
        profiler.total_cycles,
        profiler.mnemonic_counts(),
    )


def measure(name):
    """Timed profile per engine; returns ({engine: seconds}, steps,
    identical)."""
    image = _shared.program(name).image
    seconds, sigs = {}, {}
    for engine in ENGINES:
        t0 = time.perf_counter()
        result, profiler = profile_run(
            image, max_steps=PROFILE_MAX_STEPS, engine=engine
        )
        sigs[engine] = _signature(result, profiler)
        seconds[engine] = time.perf_counter() - t0
    steps = sigs["step"][0][1]
    return seconds, steps, sigs["step"] == sigs["block"]


def run_suite(programs, output=DEFAULT_OUTPUT):
    rows = {}
    mismatches = []
    for name in programs:
        seconds, steps, identical = measure(name)
        if not identical:
            mismatches.append(name)
        rows[name] = {
            "steps": steps,
            "step_s": round(seconds["step"], 3),
            "block_s": round(seconds["block"], 3),
            "speedup": round(seconds["step"] / seconds["block"], 2),
            "identical": identical,
        }
    speedups = [row["speedup"] for row in rows.values()]
    payload = {
        "programs": rows,
        "speedup_geomean": round(
            math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 2
        ),
        "step_total_s": round(sum(r["step_s"] for r in rows.values()), 2),
        "block_total_s": round(sum(r["block_s"] for r in rows.values()), 2),
        "max_steps": PROFILE_MAX_STEPS,
        "mismatches": mismatches,
    }
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2)
    history = {}
    for name, row in rows.items():
        for engine in ENGINES:
            history[f"{name}.{engine}_steps_per_s"] = (
                row["steps"] / row[f"{engine}_s"]
            )
    history["speedup_geomean"] = payload["speedup_geomean"]
    _shared.record_history("selection_profile", history)
    return payload


def _print_report(payload):
    print(f"{'program':<8} {'steps':>10} {'step s':>8} {'block s':>8}"
          f" {'speedup':>8}  identical")
    for name, row in payload["programs"].items():
        print(f"{name:<8} {row['steps']:>10,} {row['step_s']:>8.2f}"
              f" {row['block_s']:>8.2f} {row['speedup']:>7.1f}x"
              f"  {row['identical']}")
    print(f"\ntotal: step {payload['step_total_s']}s, block "
          f"{payload['block_total_s']}s; geomean speedup "
          f"{payload['speedup_geomean']}x; "
          f"{len(payload['mismatches'])} mismatch(es)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", nargs="+", default=list(PROGRAM_NAMES),
                        choices=PROGRAM_NAMES,
                        help="corpus programs to profile (default: all six)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the block/step geomean speedup "
                        "reaches this factor")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write BENCH_selection_profile.json")
    args = parser.parse_args(argv)

    payload = run_suite(args.programs, output=args.output)
    _print_report(payload)
    if payload["mismatches"]:
        print("ERROR: engines produced different profiles: "
              + ", ".join(payload["mismatches"]))
        return 1
    if payload["speedup_geomean"] < args.min_speedup:
        print(f"ERROR: block/step profile speedup "
              f"{payload['speedup_geomean']}x below required "
              f"{args.min_speedup}x")
        return 1
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry point
# ---------------------------------------------------------------------------

def test_selection_profile(benchmark):
    payload = benchmark.pedantic(
        lambda: run_suite(["lame"], output=None), rounds=1, iterations=1
    )
    _print_report(payload)
    assert not payload["mismatches"]
    assert payload["speedup_geomean"] >= 3.0


if __name__ == "__main__":
    sys.exit(main())
