"""serve-protect: pinned ``protect`` jobs through an in-process ``repro serve``.

Server: :class:`repro.serve.server.ServerThread` with its default
``process`` executor and ``jobs=2``, caching in the server's memory cache.
For a traced window the server gets a benchmark-owned executor instead
(:class:`perfbench.spans.TracingExecutor` around the same
``build_executor`` pool), so job-body spans come home with each batch.

Load: a closed loop of two keep-alive HTTP connections, each waiting for
its reply before sending again.  The request mix is the one
``benchmarks/bench_serve.py`` drives: a cold pass of fresh requests, then
the same requests replayed as a warm pass, so every fresh request is
replayed exactly once and half of all requests are replays.  Per client
a pass is every corpus program once, each pass in a seeded order.
Replays are answered from the serve cache; fresh requests run clone,
emit, a ``protect``-cache put and payload encoding with the finder and
decoder caches already warm.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import http.client
import json
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.cache import configure_cache
from repro.corpus import PROGRAM_NAMES
from repro.serve.server import ServeConfig, ServerThread, build_executor

from .common import Window
from .spans import Tracing, TracingExecutor

CLIENTS = 2
WORKERS = 2
WARM_SEED_BASE = 1 << 31  # warm-up seeds; window seeds stay below this
SETUP_REPEATS = 3
_HEADERS = {"Content-Type": "application/json"}


def _noop(value: int) -> int:
    return value


def _post(conn: http.client.HTTPConnection, program: str, seed: int) -> None:
    body = json.dumps({"program": program, "seed": seed}).encode("utf-8")
    conn.request("POST", "/protect", body=body, headers=_HEADERS)


def _read(conn: http.client.HTTPConnection) -> Tuple[int, str, str, bytes]:
    """(status, X-Singleflight role, X-Content-Key, body) of one reply."""
    response = conn.getresponse()
    body = response.read()
    return (
        response.status,
        response.getheader("X-Singleflight", ""),
        response.getheader("X-Content-Key", ""),
        body,
    )


class _Client:
    """One closed-loop client: a seeded request stream over one connection."""

    def __init__(self, port: int, seed: int, index: int, deadline: float):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.rng = random.Random(f"serve-protect:{seed}:{index}")
        self.index = index
        self.deadline = deadline
        self.used = set()
        self.cold: Dict[Tuple[str, int], bytes] = {}  # sha256 of cold answers
        #: (program, seed, latency ms, status, role, content key)
        self.samples: List[Tuple[str, int, float, int, str, str]] = []
        self.errors: List[str] = []
        self.error: Optional[BaseException] = None

    def _fresh_seed(self) -> int:
        while True:
            seed = self.rng.randrange(WARM_SEED_BASE // CLIENTS) * CLIENTS + self.index
            if seed not in self.used:
                self.used.add(seed)
                return seed

    def _requests(self):
        """Endless ``((program, seed), replay)`` stream: a cold pass over
        the corpus with fresh seeds, then the same jobs replayed."""
        while True:
            cold = [(program, self._fresh_seed()) for program in PROGRAM_NAMES]
            self.rng.shuffle(cold)
            warm = list(cold)
            self.rng.shuffle(warm)
            yield from ((job, False) for job in cold)
            yield from ((job, True) for job in warm)

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # noqa: BLE001 — reported by Workload.window
            self.error = exc
        finally:
            self.conn.close()

    def _loop(self) -> None:
        for job, replay in self._requests():
            if time.perf_counter() >= self.deadline:
                return
            if replay and job not in self.cold:
                continue  # its cold answer failed and is already counted
            program, seed = job
            started = time.perf_counter()
            _post(self.conn, program, seed)
            status, role, key, body = _read(self.conn)
            latency_ms = (time.perf_counter() - started) * 1000.0
            self.samples.append((program, seed, latency_ms, status, role, key))
            if status != 200:
                self.errors.append(f"{program} seed {seed}: HTTP {status}")
                continue
            digest = hashlib.sha256(body).digest()
            if replay:
                if digest != self.cold[job]:
                    self.errors.append(
                        f"{program} seed {seed}: replay differs from its cold answer"
                    )
                continue
            problem = _check_cold(program, seed, body)
            if problem is not None:
                self.errors.append(problem)
                continue
            self.cold[job] = digest


def _check_cold(program: str, seed: int, body: bytes) -> Optional[str]:
    try:
        payload = json.loads(body)
        if "error" in payload:
            return f"{program} seed {seed}: error payload {payload['error']}"
        artifact = base64.b64decode(payload["artifact_b64"], validate=True)
        fingerprint = payload["fingerprint"]
        answered = (payload["program"], payload["seed"])
    except (ValueError, KeyError, TypeError, binascii.Error) as exc:
        return f"{program} seed {seed}: malformed answer ({exc!r})"
    if hashlib.sha256(artifact).hexdigest() != fingerprint:
        return f"{program} seed {seed}: artifact does not match its fingerprint"
    if answered != (program, seed):
        return f"{program} seed {seed}: answer names another job"
    return None


def _batch_totals(port: int) -> Tuple[float, float]:
    """(sum, count) of the server's ``serve.batch.size`` histogram."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    values = {"serve_batch_size_sum": 0.0, "serve_batch_size_count": 0.0}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if name in values:
            values[name] = float(value)
    return values["serve_batch_size_sum"], values["serve_batch_size_count"]


class Workload:
    name = "serve-protect"
    setup_repeats = SETUP_REPEATS

    def __init__(self, seed: int):
        self.seed = seed
        self.server: Optional[ServerThread] = None
        self._setups = 0

    def setup(self, tracing: Optional[Tracing] = None) -> float:
        """Start a server on a fresh memory cache and warm both workers."""
        started = time.perf_counter()
        config = ServeConfig(port=0, jobs=WORKERS)
        manager = configure_cache(cache_dir=None)
        executor = None
        if tracing is not None:
            inner = build_executor(config, manager.cache_dir)
            # Fork the workers now, before the server's loop thread runs.
            list(inner.map(_noop, range(WORKERS)))
            executor = TracingExecutor(inner, tracing)
        self.server = ServerThread(config, executor=executor).__enter__()
        self._warm(self.server.port)
        self._setups += 1
        return time.perf_counter() - started

    def _warm(self, port: int) -> None:
        """One protect per program on each worker: fills its corpus,
        finder and decoder caches.  The second request of a pair is sent
        while the first still occupies a worker, so it lands on the other."""
        conns = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            for _ in range(WORKERS)
        ]
        try:
            base = WARM_SEED_BASE + self._setups * 1000
            for index, program in enumerate(PROGRAM_NAMES):
                for worker, conn in enumerate(conns):
                    if worker:
                        time.sleep(0.05)
                    _post(conn, program, base + index * WORKERS + worker)
                for conn in conns:
                    status, _role, _key, body = _read(conn)
                    if status != 200:
                        raise RuntimeError(
                            f"warm-up {program}: HTTP {status}: {body[:300]!r}"
                        )
        finally:
            for conn in conns:
                conn.close()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.__exit__(None, None, None)
            self.server = None

    def window(self, seconds: float, tracing: Optional[Tracing] = None) -> Window:
        port = self.server.port
        batch_sum0, batch_count0 = _batch_totals(port)
        started = time.perf_counter()
        clients = [
            _Client(port, self.seed, index, started + seconds)
            for index in range(CLIENTS)
        ]
        threads = [
            threading.Thread(target=client.run, name=f"client-{client.index}")
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result = Window()
        result.seconds = time.perf_counter() - started
        batch_sum1, batch_count1 = _batch_totals(port)
        miss_ms: Dict[str, float] = {}  # content key -> client latency
        for client in clients:
            if client.error is not None:
                result.attempted += 1
                result.fail(f"client {client.index}: {client.error!r}")
            for _program, _seed, latency_ms, status, role, key in client.samples:
                result.attempted += 1
                if status != 200:
                    continue
                result.completed += 1
                if role == "cache-hit":
                    result.hit_ms.append(latency_ms)
                else:
                    result.job_ms.append(latency_ms)
                    miss_ms[key] = latency_ms
            for message in client.errors:
                result.fail(message)
        batches = batch_count1 - batch_count0
        result.extras = {
            "miss_ms": miss_ms,
            "hit_frac": len(result.hit_ms) / max(1, result.completed),
            "batch_size_mean": (batch_sum1 - batch_sum0) / batches if batches else 0.0,
        }
        return result

    def check(self, window: Window) -> None:
        """Every output is checked inside :meth:`window`."""
