"""Per-function cycle attribution, and its exactness under both engines.

The block engine reports each superblock execution with the exact
prefix it charged, so every case below — side exits, faults, aborts,
budget exhaustion, uncached stack code, ``run_steps`` and TamperWatch
single-stepping — must fold to the same profile as the step engine.
"""

from repro.binary import BinaryImage, Perm, Section
from repro.emu import (
    ENGINES, Emulator, Profiler, StepLimitExceeded, TamperWatch, profile_run,
)
from repro.x86 import Assembler, EAX, EBX, ECX, Imm, mem32

BASE = 0x1000


def test_profiler_attributes_functions(small_wget):
    result, profiler = profile_run(small_wget.image)
    assert not result.crashed
    assert profiler.total_cycles > 0
    shares = {
        name: profiler.time_fraction(name) for name in small_wget.functions
    }
    # the bulk work dominates, the digest is cheap
    assert shares["checksum_words"] > shares["digest_wget"]
    assert abs(sum(profiler.time_fraction(p.name) for p in profiler.profiles.values()) - 1.0) < 1e-9
    assert profiler.call_count("digest_wget") >= 2
    assert "function" in profiler.report()


def test_profile_run_runs_the_emulator_once(small_wget, monkeypatch):
    import repro.emu.profiler as profiler_mod

    built = []

    class CountingEmulator(Emulator):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("engine"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(profiler_mod, "Emulator", CountingEmulator)
    result, profiler = profile_run(small_wget.image)
    assert built == ["block"]
    assert profiler.total_samples == result.steps


def _fold(profiler):
    return (
        profiler.profiles,
        dict(profiler.call_edges),
        profiler.total_cycles,
        profiler.mnemonic_counts(),
    )


def profile_both(image, drive, max_steps=100_000):
    """Drive a profiled emulator under each engine; assert identical
    state and folded profiles.  Returns the block engine's emulator."""
    out = {}
    for engine in ENGINES:
        emu = Emulator(image, max_steps=max_steps, engine=engine)
        emu.observer = Profiler(image)
        try:
            outcome = drive(emu)
        except StepLimitExceeded as exc:
            outcome = repr(exc)
        assert emu.observer.total_samples == emu.steps
        out[engine] = (outcome, emu.steps, emu.cycles, _fold(emu.observer))
        if engine == "block":
            block_emu = emu
    assert out["step"] == out["block"], out
    return block_emu


def make_image(build, name="f"):
    """``build`` assembles one function at BASE (a ``ret`` is appended)."""
    a = Assembler(base=BASE)
    build(a)
    a.ret()
    code = a.assemble()
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, code, Perm.RX))
    img.add_section(Section(".data", 0x8000, bytes(256), Perm.RW))
    img.add_function(name, BASE, len(code))
    return img


def build_loop(a, n=50):
    a.mov(ECX, Imm(n, 32))
    a.mov(EAX, 0)
    a.label("top")
    a.add(EAX, ECX)
    a.dec(ECX)
    a.jne("top")


def call_base(emu):
    return emu.call_function(BASE)


def test_taken_jcc_side_exit_charges_the_prefix():
    emu = profile_both(make_image(build_loop), call_base)
    counts = emu.observer.mnemonic_counts()
    # the loop-body superblock runs through its jne 50 times but
    # reaches its trailing ret once: side exits are not whole blocks
    assert counts["add"] == counts["jne"] == 50
    assert counts["ret"] == 1
    assert max(emu.observer.block_samples.values()) >= 49
    assert emu.observer.profiles["f"].steps == emu.steps


def test_fault_mid_block_is_charged_through_the_faulting_insn():
    def build(a):
        a.mov(EAX, Imm(0x5000_0000, 32))  # unmapped
        a.mov(EBX, 1)
        a.mov(ECX, mem32(EAX))  # faults mid-block
        a.mov(EBX, 2)

    def run(emu):
        emu.cpu.eip = BASE
        result = emu.run()
        assert result.crashed
        return result.steps, repr(result.fault)

    emu = profile_both(make_image(build), run)
    assert emu.steps == 3
    assert emu.observer.profiles["f"].steps == 3


def test_self_modifying_store_abort_charges_the_prefix():
    probe = Assembler(base=BASE)
    probe.mov(EAX, Imm(0, 32))
    probe.mov(mem32(EAX), Imm(0x4B4B4B4B, 32))
    target = probe.here

    def build(a):
        a.mov(EAX, Imm(target, 32))
        a.mov(mem32(EAX), Imm(0x4B4B4B4B, 32))
        a.raw(b"\x43\x43\x43\x43")  # inc ebx x4 -> becomes dec ebx x4
        a.mov(EAX, EBX)

    emu = profile_both(make_image(build), call_base)
    assert emu.blocks.write_aborts >= 1
    counts = emu.observer.mnemonic_counts()
    assert counts["dec"] == 4 and "inc" not in counts


def test_step_limit_landing_mid_block():
    emu = profile_both(make_image(build_loop), call_base, max_steps=37)
    assert emu.steps == 37
    assert emu.observer.total_samples == 37


def test_uncached_stack_block():
    stack_code = 0x00BC_0000
    code = Assembler(base=stack_code)
    code.mov(EAX, Imm(7, 32))
    code.add(EAX, EAX)
    code.ret()

    def run(emu):
        emu.memory.write(stack_code, code.assemble())
        return [emu.call_function(stack_code) for _ in range(3)]

    emu = profile_both(make_image(build_loop), run)
    assert emu.blocks.compiled >= 3  # recompiled every call, never cached
    assert emu.observer.profiles["<unknown>"].steps == 9
    assert emu.observer.mnemonic_counts()["add"] == 3


def test_run_steps_lands_mid_block():
    def run(emu):
        emu.cpu.eip = BASE
        if emu.engine == "block":
            emu.blocks.run_steps(17)
        else:
            for _ in range(17):
                emu.step()
        return emu.cpu.eip

    emu = profile_both(make_image(build_loop), run)
    assert emu.observer.total_samples == 17


def test_tamper_watch_single_steps_are_observed():
    probe = Assembler(base=BASE)
    build_loop(probe)
    top = probe.address_of("top")

    def run(emu):
        emu.tamper_watch = TamperWatch([(top, top + 1)])
        value = emu.call_function(BASE)
        return value, emu.tamper_watch.hit_steps

    emu = profile_both(make_image(build_loop), run)
    assert emu.tamper_watch.hit
    assert emu.observer.profiles["f"].steps == emu.steps


def _call_graph_image():
    """main calls helper twice + one symbol-less target; alt calls helper."""
    a = Assembler(base=0x1000)
    a.label("main")
    a.call("helper")
    a.call("helper")
    a.call("nosym")
    a.ret()
    a.label("alt")
    a.call("helper")
    a.ret()
    a.label("helper")
    a.mov(EAX, 1)
    a.ret()
    a.label("nosym")  # deliberately gets no symbol table entry
    a.mov(EAX, 2)
    a.ret()
    image = BinaryImage("callgraph")
    image.add_section(Section(".text", 0x1000, a.assemble(), Perm.RX))
    bounds = {name: a.address_of(name) for name in ("main", "alt", "helper", "nosym")}
    image.add_function("main", bounds["main"], bounds["alt"] - bounds["main"])
    image.add_function("alt", bounds["alt"], bounds["helper"] - bounds["alt"])
    image.add_function("helper", bounds["helper"], bounds["nosym"] - bounds["helper"])
    return image, bounds


def test_call_to_symbolless_code_counts_as_unknown():
    # Regression: calls whose target has no symbol used to be silently
    # dropped from both the callee profile and the call-edge counter.
    image, bounds = _call_graph_image()
    emulator = profile_both(image, lambda emu: emu.call_function(bounds["main"]))
    profiler = emulator.observer
    assert profiler.call_count("<unknown>") == 1
    assert profiler.call_edges[("main", "<unknown>")] == 1
    assert profiler.call_count("helper") == 2


def test_callers_of_deduplicates_by_caller():
    image, bounds = _call_graph_image()
    for engine in ENGINES:
        emulator = Emulator(image, max_steps=10_000, engine=engine)
        profiler = Profiler(image)
        emulator.observer = profiler
        emulator.call_function(bounds["main"])  # helper called twice from main
        assert profiler.callers_of("helper") == 1
        emulator.call_function(bounds["alt"])   # second distinct caller
        assert profiler.callers_of("helper") == 2
        assert profiler.callers_of("<unknown>") == 1
        assert profiler.callers_of("never_called") == 0
