"""Job bodies for the serving layer: picklable, batched, pure.

The asyncio front-end never touches the protection pipeline itself; it
ships small task dicts to the worker pool and gets JSON-ready payload
dicts back.  Everything here is module-level so the tasks pickle under
both ``fork`` and ``spawn`` start methods, and everything is a pure
function of the task dict — which is what makes the serve-level cache
and single-flight sound.

Batching: :func:`execute_batch` runs a list of tasks in one pool
dispatch, amortizing the per-task IPC/pickle round trip when the
admission queue is deep.  One failing job yields an ``error`` payload
for that job only; it never poisons its batchmates.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Optional

from ..cache import namespace_key
from ..core import Parallax, ProtectConfig, STRATEGIES
from ..corpus import PROGRAM_NAMES, build_program_cached

__all__ = [
    "JOB_KINDS",
    "make_task",
    "job_key",
    "job_config",
    "execute_job",
    "execute_batch",
]

JOB_KINDS = ("protect", "verify", "attack-matrix")

#: Emulation budget for verify / attack jobs (full runs, not chains).
DEFAULT_MAX_STEPS = 50_000_000


class JobValidationError(ValueError):
    """A request named an unknown kind/program/strategy."""


def make_task(
    kind: str,
    program: str,
    strategy: str = "cleartext",
    seed: int = 0,
    guard_chains: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Dict[str, Any]:
    """Validate and canonicalize one job into its task dict."""
    if kind not in JOB_KINDS:
        raise JobValidationError(
            f"unknown job kind {kind!r} (expected one of {', '.join(JOB_KINDS)})"
        )
    if program not in PROGRAM_NAMES:
        raise JobValidationError(
            f"unknown program {program!r} "
            f"(expected one of {', '.join(PROGRAM_NAMES)})"
        )
    if strategy not in STRATEGIES:
        raise JobValidationError(
            f"unknown strategy {strategy!r} "
            f"(expected one of {', '.join(STRATEGIES)})"
        )
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise JobValidationError("seed must be an integer")
    if not isinstance(max_steps, int) or max_steps < 1:
        raise JobValidationError("max_steps must be a positive integer")
    return {
        "kind": kind,
        "program": program,
        "strategy": strategy,
        "seed": seed,
        "guard_chains": bool(guard_chains),
        "max_steps": max_steps,
    }


def job_config(task: Dict[str, Any]) -> ProtectConfig:
    """The :class:`ProtectConfig` a task resolves to (pipeline parity:
    the §VII-B selection converges on ``digest_<name>`` for every
    corpus program, same as ``pipeline.config_for_program``; checked by
    ``tests/core/test_selection.py::
    test_selection_converges_on_digest_for_every_corpus_program``)."""
    return ProtectConfig(
        strategy=task["strategy"],
        verification_functions=[f"digest_{task['program']}"],
        seed=task["seed"],
        guard_chains=task["guard_chains"],
    )


def job_key(task: Dict[str, Any]) -> str:
    """Content key for the serve-level response cache + single-flight.

    Keys on the full task; like every cache key it also covers the
    package source, so a code change orphans stale responses.
    """
    return namespace_key(
        "serve",
        task["kind"],
        task["program"],
        task["strategy"],
        task["seed"],
        task["guard_chains"],
        task["max_steps"],
    )


def _protect(task: Dict[str, Any]):
    program = build_program_cached(task["program"])
    protected = Parallax(job_config(task)).protect(program)
    return program, protected


def _protect_payload(task: Dict[str, Any]) -> Dict[str, Any]:
    _program, protected = _protect(task)
    artifact = protected.image.canonical_bytes()
    return {
        "kind": "protect",
        "program": task["program"],
        "strategy": task["strategy"],
        "seed": task["seed"],
        "fingerprint": protected.image.fingerprint(),
        "artifact_b64": base64.b64encode(artifact).decode("ascii"),
        "artifact_bytes": len(artifact),
        "chains": len(protected.report.chains),
        "report": protected.report.to_dict(),
    }


def _verify_payload(task: Dict[str, Any]) -> Dict[str, Any]:
    program, protected = _protect(task)
    baseline = program.run(max_steps=task["max_steps"])
    run = protected.run(max_steps=task["max_steps"])
    preserved = (
        not run.crashed
        and run.stdout == baseline.stdout
        and run.exit_status == baseline.exit_status
    )
    return {
        "kind": "verify",
        "program": task["program"],
        "strategy": task["strategy"],
        "seed": task["seed"],
        "fingerprint": protected.image.fingerprint(),
        "behaviour_preserved": preserved,
        "baseline": {
            "exit_status": baseline.exit_status,
            "steps": baseline.steps,
            "cycles": baseline.cycles,
        },
        "protected": {
            "exit_status": run.exit_status,
            "steps": run.steps,
            "cycles": run.cycles,
            "crashed": run.crashed,
        },
        "overhead_percent": (
            round(100 * (run.cycles / baseline.cycles - 1), 4)
            if baseline.cycles
            else None
        ),
    }


def _attack_matrix_payload(task: Dict[str, Any]) -> Dict[str, Any]:
    from ..attacks import evaluate_patch_attack, evaluate_wurster_attack
    from ..attacks.patching import corrupt_byte

    program, protected = _protect(task)
    goal = program.run(max_steps=task["max_steps"])
    image = protected.image
    target = next(
        addr
        for addr in protected.report.chains[0].gadget_addresses
        if image.section_at(addr).name == ".text"
    )
    patch = corrupt_byte(image, target)
    static = evaluate_patch_attack(image, [patch], goal, "static")
    wurster = evaluate_wurster_attack(image, [patch], goal, "wurster")
    return {
        "kind": "attack-matrix",
        "program": task["program"],
        "strategy": task["strategy"],
        "seed": task["seed"],
        "target": target,
        "all_detected": static.detected and wurster.detected,
        "attacks": {
            "static": static.to_dict(),
            "wurster": wurster.to_dict(),
        },
    }


_EXECUTORS = {
    "protect": _protect_payload,
    "verify": _verify_payload,
    "attack-matrix": _attack_matrix_payload,
}


def execute_job(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task to its JSON-ready payload (raises on failure)."""
    return _EXECUTORS[task["kind"]](task)


def execute_batch(tasks: List[Dict[str, Any]]) -> List[Optional[Dict[str, Any]]]:
    """Run a batch of tasks in one pool dispatch, order-preserving.

    A failing job produces ``{"error": ..., "kind": ...}`` in its slot
    instead of raising, so batchmates still get their results.
    """
    payloads: List[Optional[Dict[str, Any]]] = []
    for task in tasks:
        try:
            payloads.append(execute_job(task))
        except Exception as exc:  # noqa: BLE001 — shipped to the waiter
            payloads.append(
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "kind": task.get("kind", "?"),
                    "program": task.get("program", "?"),
                }
            )
    return payloads
