"""evaluate: the paper's full per-program flow, uncached, no serving.

One job per corpus program, on a two-process pool: build the program,
``Parallax(ProtectConfig(seed=s)).protect`` — §VII-B selection, whose
step-engine ``profile_run`` dominates the job, then protection — then
verify (baseline vs protected run) and the attack matrix (static patch
and Wurster on one ``.text`` gadget byte, as ``repro.serve.jobs`` does).
A pass covers all six programs; the window runs whole passes, at least
one.  Every job must preserve behaviour and detect both attacks.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.cache import configure_cache

from .common import RUN_MAX_STEPS, Window
from .spans import Tracing, install_in_worker, traced_call

WORKERS = 2
SETUP_REPEATS = 5
#: Longest job first, so the two workers finish a pass close together.
PASS_ORDER = ("wget", "gzip", "gcc", "nginx", "bzip2", "lame")


def _worker_init(traced: bool) -> None:
    import repro.attacks  # noqa: F401 — import cost belongs to set-up
    from repro import telemetry

    configure_cache(enabled=False)
    telemetry.disable()
    if traced:
        install_in_worker()


def _worker_pid(_index: int) -> int:
    time.sleep(0.01)
    return os.getpid()


def evaluate_job(name: str, seed: int) -> dict:
    """Select, protect, verify and attack one program (one job)."""
    from repro import Parallax, ProtectConfig, build_program
    from repro.attacks import evaluate_patch_attack, evaluate_wurster_attack
    from repro.attacks.patching import corrupt_byte

    started = time.perf_counter()
    program = build_program(name)
    protected = Parallax(ProtectConfig(seed=seed)).protect(program)
    baseline = program.run(max_steps=RUN_MAX_STEPS)
    run = protected.run(max_steps=RUN_MAX_STEPS)
    preserved = (
        not run.crashed
        and run.stdout == baseline.stdout
        and run.exit_status == baseline.exit_status
    )
    image = protected.image
    target = next(
        addr
        for addr in protected.report.chains[0].gadget_addresses
        if image.section_at(addr).name == ".text"
    )
    patch = corrupt_byte(image, target)
    static = evaluate_patch_attack(image, [patch], baseline, "static")
    wurster = evaluate_wurster_attack(image, [patch], baseline, "wurster")
    return {
        "program": name,
        "seed": seed,
        "elapsed": time.perf_counter() - started,
        "behaviour_preserved": preserved,
        "detected": {"static": static.detected, "wurster": wurster.detected},
    }


class Workload:
    name = "evaluate"
    setup_repeats = SETUP_REPEATS

    def __init__(self, seed: int):
        self.seed = seed
        self.pool: Optional[ProcessPoolExecutor] = None

    def setup(self, tracing: Optional[Tracing] = None) -> float:
        """Start both workers (spawned, caching off) and wait until each
        has answered."""
        started = time.perf_counter()
        configure_cache(enabled=False)
        self.pool = ProcessPoolExecutor(
            max_workers=WORKERS,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(tracing is not None,),
        )
        pids = set()
        deadline = time.monotonic() + 120
        while len(pids) < WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("evaluate workers did not start")
            pids.update(self.pool.map(_worker_pid, range(WORKERS)))
        return time.perf_counter() - started

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def window(self, seconds: float, tracing: Optional[Tracing] = None) -> Window:
        result = Window()
        rng = random.Random(f"evaluate:{self.seed}")
        started = time.perf_counter()
        while True:
            futures = [
                self.pool.submit(
                    traced_call, evaluate_job, (name, seed), f"{name}:{seed}"
                )
                for name, seed in ((n, rng.randrange(1 << 30)) for n in PASS_ORDER)
            ]
            for future in futures:
                job, spans = future.result()
                if tracing is not None:
                    tracing.adopt(spans)
                result.attempted += 1
                result.completed += 1
                result.job_ms.append(job["elapsed"] * 1000.0)
                problems = [
                    f"{attack} attack undetected"
                    for attack, detected in job["detected"].items()
                    if not detected
                ]
                if not job["behaviour_preserved"]:
                    problems.insert(0, "protected run changed behaviour")
                if problems:
                    result.fail(f"{job['program']}: " + "; ".join(problems))
            result.passes += 1
            if time.perf_counter() - started >= seconds:
                break
        result.seconds = time.perf_counter() - started
        return result

    def check(self, window: Window) -> None:
        """Every output is checked inside :meth:`window`."""
