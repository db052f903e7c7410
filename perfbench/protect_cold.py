"""protect-cold: uncached pinned protection of the whole corpus.

Each pass is ``protect_all(config=ProtectConfig(seed=s), jobs=2,
use_cache=False)`` — the ``repro protect-all --no-cache --jobs 2`` path —
with caching off in the process, so every pass rebuilds the corpus and
runs clone, gadget finder, target decode, ROP compiler and emit with
nothing to hide them, and no emulation.  Consecutive passes use
different seeds from a seeded pool of :data:`SEED_POOL` seeds; as the
pool cycles, each (program, seed) recurs and must reproduce its image
fingerprint exactly.  After the window a seeded sample of the protected
images, drawn from the seeds the window reached, is run and must print
what the unprotected program prints.

For a traced window the pipeline's pool context is swapped for
:class:`perfbench.spans.TracingContext`, which ships worker spans home.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
import time
from typing import Dict, Optional, Tuple

from repro.cache import configure_cache
from repro.core import ProtectConfig
from repro.corpus import PROGRAM_NAMES, build_program
from repro.emu import run_image
from repro.pipeline import runner
from repro.pipeline.runner import protect_all

from .common import RUN_MAX_STEPS, Window
from .spans import Tracing, TracingContext

WORKERS = 2
SEED_POOL = 4
RUN_SAMPLE = 2  # protected images run against their baseline per window
SETUP_REPEATS = 3
WARM_SEED = 1 << 30  # the window's seeds stay below this


@contextlib.contextmanager
def _traced_pipeline_pool(tracing: Optional[Tracing]):
    if tracing is None:
        yield
        return
    numbers = itertools.count()

    def job_of(task: dict) -> str:
        return f"{task['name']}:{task['config'].seed}:{next(numbers)}"

    original = runner.mp_context
    runner.mp_context = lambda: TracingContext(original(), tracing, job_of)
    try:
        yield
    finally:
        runner.mp_context = original


class Workload:
    name = "protect-cold"
    setup_repeats = SETUP_REPEATS

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"protect-cold:{seed}")
        self.seeds = rng.sample(range(1 << 30), SEED_POOL)
        jobs = [(name, index) for name in PROGRAM_NAMES for index in range(SEED_POOL)]
        #: Seeded preference order of the (program, seed index) jobs whose
        #: images :meth:`check` runs; it takes the first it finds.
        self.sample_order = rng.sample(jobs, len(jobs))
        self.programs: Dict[str, object] = {}
        self._images: Dict[Tuple[str, int], object] = {}

    def setup(self, tracing: Optional[Tracing] = None) -> float:
        """Caching off; build the corpus the output check runs against and
        run one untimed pass (the first pass in a process runs slower)."""
        started = time.perf_counter()
        configure_cache(enabled=False)
        self.programs = {name: build_program(name) for name in PROGRAM_NAMES}
        with _traced_pipeline_pool(tracing):
            protect_all(
                config=ProtectConfig(seed=WARM_SEED), jobs=WORKERS, use_cache=False
            )
        return time.perf_counter() - started

    def teardown(self) -> None:
        """Nothing to stop: each pass's pool is gone when it returns, and
        :meth:`check` still needs the built corpus."""

    def window(self, seconds: float, tracing: Optional[Tracing] = None) -> Window:
        result = Window()
        self._images = {}
        fingerprints: Dict[Tuple[str, int], str] = {}
        busy = 0.0
        started = time.perf_counter()
        with _traced_pipeline_pool(tracing):
            while True:
                index = result.passes % SEED_POOL
                seed = self.seeds[index]
                outputs = protect_all(
                    config=ProtectConfig(seed=seed), jobs=WORKERS, use_cache=False
                )
                result.passes += 1
                for output in outputs:
                    result.attempted += 1
                    result.completed += 1
                    result.job_ms.append(output.elapsed * 1000.0)
                    busy += output.elapsed
                    digest = hashlib.sha256(output.image.canonical_bytes()).hexdigest()
                    first = fingerprints.setdefault((output.name, seed), digest)
                    if digest != first:
                        result.fail(f"{output.name} seed {seed}: fingerprint changed")
                    if result.passes <= SEED_POOL:
                        # Hold only the images check() would run, so the
                        # sample does not swell peak_rss_mb.
                        self._images[(output.name, index)] = output.image
                        self._images = {
                            job: self._images[job] for job in self._sample(self._images)
                        }
                if time.perf_counter() - started >= seconds:
                    break
        result.seconds = time.perf_counter() - started
        result.extras = {"worker_busy_frac": busy / (WORKERS * result.seconds)}
        return result

    def _sample(self, produced) -> list:
        """The first :data:`RUN_SAMPLE` jobs of :attr:`sample_order` among
        ``produced``."""
        return [job for job in self.sample_order if job in produced][:RUN_SAMPLE]

    def check(self, window: Window) -> None:
        """Run :data:`RUN_SAMPLE` images, the first of :attr:`sample_order`
        the window produced, against the unprotected programs."""
        sample = self._sample(self._images)
        window.extras["sampled_runs"] = len(sample)
        if len(sample) < RUN_SAMPLE:
            window.fail(f"only {len(sample)} of {RUN_SAMPLE} sampled images to run")
        for name, index in sample:
            image = self._images[(name, index)]
            baseline = self.programs[name].run(max_steps=RUN_MAX_STEPS)
            run = run_image(image, max_steps=RUN_MAX_STEPS)
            if (
                run.crashed
                or run.stdout != baseline.stdout
                or run.exit_status != baseline.exit_status
            ):
                window.fail(f"{name}: protected image misbehaves when run")
