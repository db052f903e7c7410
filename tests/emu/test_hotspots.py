"""Engine hot spots from the run observer: aggregation, metrics export."""

from repro.binary import BinaryImage, Perm, Section
from repro.emu import Emulator, Profiler
from repro.telemetry import MetricsRegistry, telemetry_session
from repro.x86 import Assembler, EAX, ECX, Imm

BASE = 0x1000


def make_loop_image(n=50):
    a = Assembler(base=BASE)
    a.mov(ECX, Imm(n, 32))
    a.mov(EAX, 0)
    a.label("top")
    a.add(EAX, ECX)
    a.dec(ECX)
    a.jne("top")
    a.ret()
    img = BinaryImage("t")
    img.add_section(Section(".text", BASE, a.assemble(), Perm.RX))
    img.add_section(Section(".data", 0x8000, bytes(256), Perm.RW))
    return img


def entry_block():
    """The superblock at BASE: mov, mov, add, dec, jne (side exit), ret."""
    emu = Emulator(make_loop_image(), engine="block")
    return emu, emu.blocks._lookup(BASE)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def test_step_and_block_samples_merge():
    emu, block = entry_block()
    assert [i.mnemonic for i in block.insns] == ["mov", "mov", "add", "dec", "jne", "ret"]
    add = block.insns[2]
    hot = Profiler()
    for _ in range(3):
        hot.record_step(add.address, add)
    hot.record_block(block, 5)  # side exit at the jne
    hot.record_block(block, 5)
    hot.record_block(block, 6)  # ran through to the ret
    counts = hot.mnemonic_counts()
    # each execution counts exactly the prefix it charged
    assert counts["mov"] == 2 * 3
    assert counts["add"] == 3 + 3
    assert counts["jne"] == 3
    assert counts["ret"] == 1
    assert hot.block_samples == {BASE: 3}
    assert hot.total_samples == sum(counts.values()) == 3 + 5 + 5 + 6
    assert hot.top_mnemonics(1) == [("add", 6)]  # ties: count desc, then name
    assert hot.top_blocks(1) == [(BASE, 3)]


def test_ties_rank_deterministically_and_clear_resets():
    _, block = entry_block()
    dec, add = block.insns[3], block.insns[2]
    hot = Profiler()
    hot.record_step(dec.address, dec)
    hot.record_step(add.address, add)
    assert hot.top_mnemonics(2) == [("add", 1), ("dec", 1)]  # count desc, then name
    hot.clear()
    assert hot.total_samples == 0
    assert hot.hotspot_report() == "no hot-spot samples recorded"


def test_report_renders_mnemonic_and_block_tables():
    _, block = entry_block()
    hot = Profiler()
    hot.record_step(block.insns[0].address, block.insns[0])
    hot.record_block(block, 6)
    out = hot.hotspot_report()
    assert "engine hot spots (7 instruction samples)" in out
    assert "mov" in out and "ret" in out
    assert "0x00001000" in out  # block table keyed by start address


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


def test_step_engine_samples_every_instruction():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
    emu.observer = Profiler()
    emu.call_function(BASE)
    counts = emu.observer.mnemonic_counts()
    assert sum(counts.values()) == emu.steps
    assert counts.get("add", 0) == 50
    assert not emu.observer.block_samples  # no blocks in the step engine


def test_block_engine_samples_block_executions():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="block")
    emu.observer = Profiler()
    emu.call_function(BASE)
    hot = emu.observer
    assert hot.block_samples, "block engine must record block executions"
    assert max(hot.block_samples.values()) >= 40  # the loop body re-enters

    reference = Emulator(make_loop_image(), max_steps=100_000, engine="step")
    reference.observer = Profiler()
    reference.call_function(BASE)
    # exact, not executions x occurrences: identical to the step engine
    assert hot.mnemonic_counts() == reference.observer.mnemonic_counts()
    assert hot.total_samples == emu.steps


def test_no_sampling_without_a_profiler():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="block")
    emu.call_function(BASE)
    assert emu.observer is None  # call_function never auto-installs


# ----------------------------------------------------------------------
# Auto-install policy (REPRO_HOTSPOTS) and metrics export
# ----------------------------------------------------------------------


def test_auto_install_follows_metrics_and_env(monkeypatch):
    img = make_loop_image()
    monkeypatch.delenv("REPRO_HOTSPOTS", raising=False)
    emu = Emulator(img, max_steps=100_000, engine="step")
    emu._maybe_enable_profiler(MetricsRegistry(enabled=False))
    assert emu.observer is None  # auto + metrics off -> no profiler
    emu._maybe_enable_profiler(MetricsRegistry(enabled=True))
    assert emu.observer is not None and emu._profiler_auto

    monkeypatch.setenv("REPRO_HOTSPOTS", "0")
    forced_off = Emulator(img, max_steps=100_000, engine="step")
    forced_off._maybe_enable_profiler(MetricsRegistry(enabled=True))
    assert forced_off.observer is None  # "0" beats enabled metrics

    monkeypatch.setenv("REPRO_HOTSPOTS", "1")
    other = Emulator(img, max_steps=100_000, engine="step")
    other._maybe_enable_profiler(MetricsRegistry(enabled=False))
    assert other.observer is None  # any value but "0" means auto
    other._maybe_enable_profiler(MetricsRegistry(enabled=True))
    assert other.observer is not None


def test_auto_install_never_replaces_a_caller_profiler(monkeypatch):
    monkeypatch.delenv("REPRO_HOTSPOTS", raising=False)
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
    mine = Profiler()
    emu.observer = mine
    emu._maybe_enable_profiler(MetricsRegistry(enabled=True))
    assert emu.observer is mine and not emu._profiler_auto


def test_metrics_export_flushes_auto_profiler():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
    emu.observer = Profiler()
    emu._profiler_auto = True
    emu.call_function(BASE)
    registry = MetricsRegistry(enabled=True)
    emu._record_engine_metrics(registry)
    samples = registry.to_dict()
    assert samples['emu.hot.mnemonic{mnemonic="add"}']["value"] == 50
    # auto-installed profilers are cleared after the flush so repeated
    # runs do not double-count
    assert emu.observer.total_samples == 0


def test_metrics_export_retains_explicit_profiler():
    emu = Emulator(make_loop_image(), max_steps=100_000, engine="block")
    mine = Profiler()
    emu.observer = mine  # caller-installed: _profiler_auto stays False
    emu.call_function(BASE)
    registry = MetricsRegistry(enabled=True)
    emu._record_engine_metrics(registry)
    samples = registry.to_dict()
    assert any(name.startswith("emu.hot.block{") for name in samples)
    assert samples['emu.hot.mnemonic{mnemonic="add"}']["value"] == 50
    assert mine.total_samples == emu.steps  # left intact for the caller


def test_run_under_metrics_session_exports_hot_counters(monkeypatch):
    monkeypatch.delenv("REPRO_HOTSPOTS", raising=False)
    with telemetry_session(metrics=True) as (metrics, _tracer):
        emu = Emulator(make_loop_image(), max_steps=100_000, engine="step")
        emu.cpu.eip = BASE
        emu.run()  # the bare `ret` faults; metrics still flush
        samples = metrics.to_dict()
    hot_names = [n for n in samples if n.startswith("emu.hot.mnemonic{")]
    assert hot_names, "run() must auto-install and flush the profiler"
    assert emu.observer is not None and emu.observer.total_samples == 0
