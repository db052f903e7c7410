"""Chain-execution tracing: pinpoint the corrupted gadget of a chain."""

import json
from types import SimpleNamespace

import pytest

from repro.attacks.patching import corrupt_byte
from repro.binary import BinaryImage, Perm, Section
from repro.emu import ENGINES, Emulator, Profiler
from repro.emu.dispatch import cost_of
from repro.telemetry import (
    ChainExecutionTracer,
    MetricsRegistry,
    trace_chain_run,
)
from repro.x86 import Assembler, EAX, ESP, Imm

RET = SimpleNamespace(mnemonic="ret", is_return=True)


def _fake_emulator():
    return SimpleNamespace(
        cpu=SimpleNamespace(eip=0, esp=0), cycles=0, observer=None
    )


def _drive_chain(tracer, addresses, stamps=None):
    """Report a chain of one-``ret`` gadgets to ``tracer``: a ``ret`` at
    0x100 lands on ``addresses[0]`` and each gadget's ``ret`` lands on
    the next; ``stamps[i]`` is the cycle counter when gadget i is
    entered."""
    emulator = _fake_emulator()
    tracer.install(emulator)
    stamps = stamps or [0] * len(addresses)
    previous = 0x100
    for address, stamp in zip(addresses, stamps):
        emulator.cpu.eip, emulator.cycles = address, stamp
        tracer.record_step(previous, RET)
        previous = address
    emulator.cpu.eip = 0
    tracer.record_step(previous, RET)


def _text_gadget(protected):
    """A chain gadget living in .text (tamperable program code)."""
    image = protected.image
    record = protected.report.chains[0]
    return next(
        addr
        for addr in record.gadget_addresses
        if image.section_at(addr).name == ".text"
    )


def test_clean_run_records_gadget_steps(protected_wget_cleartext):
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    result, tracer = trace_chain_run(protected.image, record)
    assert not result.crashed
    assert tracer.steps, "chain executed, steps must be recorded"
    recorded = {step.address for step in tracer.steps}
    assert recorded <= set(record.gadget_addresses)
    # every step carries its mnemonic sequence ending in a return
    for step in tracer.steps[:50]:
        assert step.mnemonics
        assert step.mnemonics[-1] in ("ret", "retf")
    assert tracer.summary()["steps_recorded"] == len(tracer.steps)


def test_tampered_chain_identifies_corrupted_gadget(protected_wget_cleartext):
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    target = _text_gadget(protected)

    tampered = protected.image.clone()
    corrupt_byte(tampered, target).apply(tampered)
    result, tracer = trace_chain_run(tampered, record)

    baseline = protected.run()
    malfunction = (
        result.crashed
        or result.stdout != baseline.stdout
        or result.exit_status != baseline.exit_status
    )
    assert malfunction, "tampering a chain gadget must break the chain"
    assert tracer.corrupted_gadget(result.fault) == target


def test_corrupted_gadget_via_fault_eip_and_spans():
    tracer = ChainExecutionTracer(
        gadget_addresses=[0x1000, 0x2000],
        gadget_spans={0x1000: 0x1005, 0x2000: 0x2003},
    )

    class FakeFault:
        eip = 0x2001  # inside the second gadget's body

    assert tracer.corrupted_gadget(FakeFault()) == 0x2000
    # outside any span, and no steps recorded -> unknown
    FakeFault.eip = 0x9999
    assert tracer.corrupted_gadget(FakeFault()) is None


def test_install_fills_the_observer_slot_once():
    emulator = Emulator(engine="block")
    tracer = ChainExecutionTracer([0x1000])
    tracer.install(emulator)
    assert emulator.observer is tracer
    # the block engine reports to the tracer: no step-engine fallback
    assert emulator._compiled_engine() is emulator.blocks
    with pytest.raises(RuntimeError):
        ChainExecutionTracer([0x1000]).install(emulator)

    profiled = Emulator()
    profiled.observer = Profiler()
    with pytest.raises(RuntimeError):
        tracer.install(profiled)


def test_traced_run_publishes_no_hot_spot_counters():
    emulator = Emulator()
    ChainExecutionTracer([0x1000]).install(emulator)
    registry = MetricsRegistry(enabled=True)
    emulator._record_engine_metrics(registry)
    assert not [n for n in registry.to_dict() if n.startswith("emu.hot.")]


def test_divergence_against_expected_sequence():
    tracer = ChainExecutionTracer([0x1, 0x2, 0x3])
    _drive_chain(tracer, [0x1, 0x2, 0x3])
    assert [step.address for step in tracer.steps] == [0x1, 0x2, 0x3]
    assert all(step.mnemonics == ["ret"] for step in tracer.steps)
    assert tracer.instructions_seen == 4
    assert tracer.divergence([0x1, 0x2, 0x3]) is None
    assert tracer.divergence([0x1, 0x9, 0x3]) == 1
    assert tracer.divergence([0x1]) == 1  # executed more than expected
    assert tracer.divergence([0x1, 0x2, 0x3, 0x4]) == 3  # stopped short


def test_steps_carry_monotonic_cycle_stamps(protected_wget_cleartext):
    """Every gadget dispatch is stamped with the emulator cycle counter,
    so a divergence can be located on the detection-latency axis."""
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    result, tracer = trace_chain_run(protected.image, record)
    assert not result.crashed
    stamps = [step.cycles for step in tracer.steps]
    assert all(c is not None for c in stamps)
    assert stamps == sorted(stamps)
    assert stamps[-1] <= result.cycles


def test_divergence_cycles_locates_first_divergent_dispatch():
    tracer = ChainExecutionTracer([0x1, 0x2, 0x3])
    _drive_chain(tracer, [0x1, 0x2, 0x3], stamps=[10, 20, 30])
    assert [step.cycles for step in tracer.steps] == [10, 20, 30]
    assert tracer.divergence_cycles([0x1, 0x2, 0x3]) is None
    assert tracer.divergence_cycles([0x1, 0x9, 0x3]) == 20
    assert tracer.divergence_cycles([0x1]) == 20  # ran past expectations
    # stopped short: the divergent dispatch never happened
    assert tracer.divergence_cycles([0x1, 0x2, 0x3, 0x4]) is None


def test_dispatch_commits_only_when_the_gadget_starts():
    tracer = ChainExecutionTracer([0x1])
    emulator = _fake_emulator()
    tracer.install(emulator)
    emulator.cpu.eip, emulator.cpu.esp, emulator.cycles = 0x1, 0x80, 7
    tracer.record_step(0x100, RET)
    assert tracer.steps == []  # the ret landed; nothing started yet
    emulator.cpu.esp, emulator.cycles = 0x7C, 9  # the gadget's push ran
    tracer.record_step(0x1, SimpleNamespace(mnemonic="push", is_return=False))
    (step,) = tracer.steps
    # stamped with the entry state, not the state after the first insn
    assert (step.address, step.esp, step.cycles) == (0x1, 0x80, 7)
    assert step.mnemonics == ["push"]


# ----------------------------------------------------------------------
# Dispatch definition on real runs, identical under both engines
# ----------------------------------------------------------------------

BASE = 0x1000


def _dispatch_image():
    """``f`` falls through into gadget ``g``; gadget ``h``'s ``ret``
    faults (esp unmapped) right in front of gadget ``k``; ``dg``/``dh``
    dispatch into ``g``/``h`` with a ``ret``."""
    a = Assembler(base=BASE)
    labels = {"f": a.label("f")}
    a.mov(EAX, 1)
    labels["g"] = a.label("g")
    a.add(EAX, 2)
    a.ret()
    labels["h"] = a.label("h")
    a.mov(ESP, Imm(0x10, 32))
    a.ret()
    labels["k"] = a.label("k")
    a.add(EAX, 3)
    a.ret()
    labels["dg"] = a.label("dg")
    a.push(Imm(labels["g"], 32))
    a.ret()
    labels["dh"] = a.label("dh")
    a.push(Imm(labels["h"], 32))
    a.ret()
    image = BinaryImage("dispatch")
    image.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    return image, labels


def _traced(engine, start):
    image, labels = _dispatch_image()
    emulator = Emulator(image, max_steps=1_000, engine=engine)
    tracer = ChainExecutionTracer([labels[n] for n in ("g", "h", "k")])
    tracer.install(emulator)
    emulator.cpu.eip = labels[start]
    result = emulator.run()
    steps = [(s.address, s.esp, s.cycles, s.mnemonics) for s in tracer.steps]
    return labels, result, steps, tracer.instructions_seen


def test_ret_into_a_gadget_is_a_dispatch():
    outcomes = {e: _traced(e, "dg")[2:] for e in ENGINES}
    assert outcomes["block"] == outcomes["step"]
    labels, result, steps, _ = _traced("block", "dg")
    assert [s[0] for s in steps] == [labels["g"]]
    assert steps[0][3] == ["add", "ret"]


def test_fall_through_into_a_gadget_is_not_a_dispatch():
    for engine in ENGINES:
        labels, result, steps, seen = _traced(engine, "f")
        assert result.steps == seen == 3  # mov, then g's add and ret ran
        assert steps == [], engine


def test_faulting_ret_records_nothing():
    outcomes = {}
    for engine in ENGINES:
        labels, result, steps, seen = _traced(engine, "dh")
        assert result.crashed, engine
        outcomes[engine] = (steps, seen)
        # h was dispatched into; its ret faulted before reaching k
        assert [s[0] for s in steps] == [labels["h"]], engine
        # stamped before h's mov and its (charged) faulting ret
        h_body = Assembler().mov(ESP, Imm(0x10, 32)).ret().disassemble()
        assert steps[0][2] == result.cycles - sum(map(cost_of, h_body))
    assert outcomes["block"] == outcomes["step"]


def test_jsonl_export(tmp_path, protected_wget_cleartext):
    protected = protected_wget_cleartext
    record = protected.report.chains[0]
    result, tracer = trace_chain_run(protected.image, record)
    assert not result.crashed
    path = tmp_path / "chain.jsonl"
    tracer.write_jsonl(str(path))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert events[-1]["type"] == "chain_trace"
    assert events[-1]["steps_recorded"] == len(tracer.steps)
    steps = [e for e in events if e["type"] == "chain_step"]
    assert steps and all("mnemonics" in e and "esp" in e for e in steps)
