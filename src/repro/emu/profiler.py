"""One run observer for both engines: function profiles and hot spots.

The verification-function selection algorithm of the paper's §VII-B needs
(1) how often each function is called, (2) the share of total execution
time it accounts for.  The same run also answers *which instructions and
superblocks* the engines spend their time in — the attribution §V needs
when a verification chain shows up as slowdown.

:class:`Profiler` is installed as ``Emulator.observer`` and fed by both
engines:

* :meth:`Emulator.step` reports every single-stepped instruction as
  ``(eip, insn)``;
* the block engine reports every superblock execution as ``(block,
  executed)``, where ``executed`` is the exact prefix the block charged
  (side exits, faults, syscalls and self-modifying-store aborts stop
  short of the whole block).

Recording is one counter bump per report.  Everything else — symbols,
static cycle costs, direct-call targets, mnemonics — is derived once per
distinct code unit from its instructions, and the function profiles,
call edges and hot-spot tables are folded from the counts when first
queried.  Because every report carries the executed prefix, the folded
counts are exact under either engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..binary.image import BinaryImage
from ..x86.decoder import decode
from .dispatch import cost_of
from .emulator import DEFAULT_ENGINE, Emulator

UNKNOWN = "<unknown>"


class FunctionProfile:
    """Aggregated statistics for one function."""

    __slots__ = ("name", "calls", "cycles", "steps")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.cycles = 0
        self.steps = 0

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionProfile) and (
            (self.name, self.calls, self.cycles, self.steps)
            == (other.name, other.calls, other.cycles, other.steps)
        )

    def __repr__(self) -> str:
        return (
            f"<FunctionProfile {self.name} calls={self.calls} "
            f"cycles={self.cycles} steps={self.steps}>"
        )


class _Fold:
    """Everything the queries read, folded from one set of counts."""

    __slots__ = (
        "profiles", "call_edges", "total_cycles", "mnemonics", "blocks",
        "block_lengths",
    )

    def __init__(self):
        self.profiles: Dict[str, FunctionProfile] = {}
        self.call_edges: Counter = Counter()
        self.total_cycles = 0
        self.mnemonics: Dict[str, int] = {}
        #: block start address -> executions (whole or partial)
        self.blocks: Dict[int, int] = {}
        self.block_lengths: Dict[int, int] = {}

    def profile(self, name: str) -> FunctionProfile:
        prof = self.profiles.get(name)
        if prof is None:
            prof = self.profiles[name] = FunctionProfile(name)
        return prof


class Profiler:
    """Counts executed code units; folds profiles and hot spots on demand.

    ``image`` supplies the symbols functions are named by; without one
    every instruction is attributed to ``<unknown>``.
    """

    def __init__(self, image: Optional[BinaryImage] = None):
        self.image = image
        #: (eip, instruction bytes) -> single-step executions
        self._steps: Dict[Tuple[int, bytes], int] = {}
        #: (block, executed prefix) -> executions
        self._blocks: Dict[tuple, int] = {}
        #: code unit (block object or step key) -> per-instruction rows
        self._tables: Dict[object, tuple] = {}
        self._fold: Optional[_Fold] = None

    # -- recording (hot paths) ------------------------------------------

    def record_step(self, eip: int, insn) -> None:
        """One single-stepped instruction (either engine)."""
        key = (eip, insn.raw)
        counts = self._steps
        counts[key] = counts.get(key, 0) + 1
        self._fold = None

    def record_block(self, block, executed: int) -> None:
        """One superblock execution that charged its first ``executed``
        instructions."""
        key = (block, executed)
        counts = self._blocks
        counts[key] = counts.get(key, 0) + 1
        self._fold = None

    def clear(self) -> None:
        self._steps.clear()
        self._blocks.clear()
        self._tables.clear()
        self._fold = None

    # -- folding ---------------------------------------------------------

    def _rows(self, unit) -> tuple:
        """Per-instruction ``(function, cycles, mnemonic, callee)`` rows
        for one code unit — a block object or an ``(eip, bytes)`` step
        key — built once; ``callee`` is the direct-call target's
        function, or ``None`` for any other instruction."""
        rows = self._tables.get(unit)
        if rows is None:
            if isinstance(unit, tuple):
                insns = (decode(unit[1], 0, address=unit[0]),)
            else:
                insns = unit.insns
            rows = self._tables[unit] = tuple(
                (
                    self._name_at(insn.address),
                    cost_of(insn),
                    insn.mnemonic,
                    self._callee(insn),
                )
                for insn in insns
            )
        return rows

    def _name_at(self, addr: int) -> str:
        symbol = self.image.symbols.at(addr) if self.image is not None else None
        return symbol.name if symbol is not None else UNKNOWN

    def _callee(self, insn) -> Optional[str]:
        if insn.mnemonic != "call":
            return None
        target = insn.branch_target()
        if target is None:
            return None
        # Calls into symbol-less code (stubs, inserted sections) still
        # count — attributed to <unknown> rather than silently dropped,
        # so call totals match reality.
        return self._name_at(target)

    def _folded(self) -> _Fold:
        fold = self._fold
        if fold is not None:
            return fold
        fold = _Fold()
        units = [(self._rows(key), 1, count) for key, count in self._steps.items()]
        for (block, executed), count in self._blocks.items():
            units.append((self._rows(block), executed, count))
            fold.blocks[block.start] = fold.blocks.get(block.start, 0) + count
            fold.block_lengths[block.start] = block.n
        mnemonics = fold.mnemonics
        for rows, executed, count in units:
            for name, cycles, mnemonic, callee in rows[:executed]:
                prof = fold.profile(name)
                prof.cycles += cycles * count
                prof.steps += count
                fold.total_cycles += cycles * count
                mnemonics[mnemonic] = mnemonics.get(mnemonic, 0) + count
                if callee is not None:
                    fold.profile(callee).calls += count
                    fold.call_edges[(name, callee)] += count
        self._fold = fold
        return fold

    # ------------------------------------------------------------------
    # Function profile (the selection algorithm's queries)
    # ------------------------------------------------------------------

    @property
    def profiles(self) -> Dict[str, FunctionProfile]:
        return self._folded().profiles

    @property
    def call_edges(self) -> Counter:
        return self._folded().call_edges

    @property
    def total_cycles(self) -> int:
        return self._folded().total_cycles

    def time_fraction(self, name: str) -> float:
        """Fraction of total cycles spent inside ``name``."""
        fold = self._folded()
        if fold.total_cycles == 0:
            return 0.0
        prof = fold.profiles.get(name)
        return prof.cycles / fold.total_cycles if prof else 0.0

    def call_count(self, name: str) -> int:
        prof = self.profiles.get(name)
        return prof.calls if prof else 0

    def callers_of(self, name: str) -> int:
        """Number of distinct calling functions observed."""
        return len({caller for (caller, callee) in self.call_edges if callee == name})

    def report(self) -> str:
        lines = [f"{'function':<28} {'calls':>8} {'cycles':>12} {'share':>8}"]
        for prof in sorted(
            self.profiles.values(), key=lambda p: (-p.cycles, p.name)
        ):
            share = self.time_fraction(prof.name)
            lines.append(
                f"{prof.name:<28} {prof.calls:>8} {prof.cycles:>12} {share:>7.1%}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Hot spots (``repro profile`` and the emu.hot.* metric families)
    # ------------------------------------------------------------------

    def mnemonic_counts(self) -> Dict[str, int]:
        """Executed instructions per mnemonic, across both engines."""
        return dict(self._folded().mnemonics)

    @property
    def block_samples(self) -> Dict[int, int]:
        """Block start address -> superblock executions (block engine)."""
        return dict(self._folded().blocks)

    @property
    def total_samples(self) -> int:
        """Executed instructions observed; equals the run's step total."""
        return sum(self._folded().mnemonics.values())

    def top_mnemonics(self, n: int = 10) -> List[Tuple[str, int]]:
        totals = self._folded().mnemonics
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def top_blocks(self, n: int = 10) -> List[Tuple[int, int]]:
        return sorted(
            self._folded().blocks.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    def hotspot_report(self, top: int = 10) -> str:
        """Human-readable hot-spot table (used by ``repro profile``)."""
        total = self.total_samples
        if not total:
            return "no hot-spot samples recorded"
        lines = [f"engine hot spots ({total:,} instruction samples)"]
        lines.append(f"  {'mnemonic':<10} {'samples':>14} {'share':>8}")
        for mnemonic, count in self.top_mnemonics(top):
            lines.append(
                f"  {mnemonic:<10} {count:>14,} {count / total:>8.2%}"
            )
        lengths = self._folded().block_lengths
        if lengths:
            lines.append(f"  {'block':<10} {'execs':>14} {'len':>8}")
            for start, execs in self.top_blocks(top):
                lines.append(f"  {start:#010x} {execs:>14,} {lengths[start]:>8}")
        return "\n".join(lines)


def profile_run(
    image: BinaryImage,
    stdin: bytes = b"",
    max_steps: int = 5_000_000,
    debugger_attached: bool = False,
    engine: str = DEFAULT_ENGINE,
):
    """Run ``image`` once under ``engine`` with a :class:`Profiler`
    installed; returns ``(RunResult, Profiler)``."""
    from .syscalls import OperatingSystem

    os = OperatingSystem(stdin=stdin, debugger_attached=debugger_attached)
    emulator = Emulator(image, os=os, max_steps=max_steps, engine=engine)
    profiler = Profiler(image)
    emulator.observer = profiler
    return emulator.run(), profiler
