"""Differential property: the memoized scanner ≡ the reference finder.

``find_gadgets_in_bytes`` (memoized single-pass scanner) must produce
*identical* gadget sets — address, end, classification, stack shape,
raw instruction bytes — to ``reference_find_gadgets_in_bytes`` (the
original exhaustive finder, kept in-tree as the oracle) on every input,
and must publish identical telemetry counter values.

The Hypothesis strategies are seeded with the adversarial shapes the
memo table has to get right:

* ``ret imm16`` truncated at / terminating exactly on the buffer end;
* rets within ``MAX_LOOKBACK_BYTES`` of offset 0 (clamped windows);
* dense runs of ret opcodes whose lookback windows overlap heavily
  (the memo-reuse hot case — and where a chain can terminate at a
  *different* return than the window under scan);
* ``include_far`` on and off, including the corner where a far-return
  chain's end coincides with a near-ret window's end;
* prefix-dense streams (segment/rep/operand-size prefixes) that make
  decode lengths irregular.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.gadgets.finder import (
    MAX_LOOKBACK_BYTES,
    find_gadgets_in_bytes,
    reference_find_gadgets_in_bytes,
)
from repro.telemetry import telemetry_session

RET, RET_IMM16, RETF, RETF_IMM16 = 0xC3, 0xC2, 0xCB, 0xCA

#: Byte alphabet biased toward interesting encodings: ret family,
#: prefixes, pop/mov/arith opcodes, modrm bytes.
_INTERESTING = [
    RET, RET_IMM16, RETF, RETF_IMM16,
    0x58, 0x59, 0x5B, 0x5D,              # pop r32
    0x89, 0x8B, 0x01, 0x03, 0x31, 0x29,  # mov/add/xor/sub r/m forms
    0x90, 0xF7, 0xFF, 0x6A, 0x68,        # nop, grp3, grp5, push imm
    0x66, 0x26, 0x2E, 0x3E, 0x64, 0xF0, 0xF2, 0xF3,  # prefixes
    0x00, 0xC0, 0xD8, 0xE8, 0x04, 0x24, 0x45, 0x85,  # modrm/disp bytes
]

_byte = st.sampled_from(_INTERESTING) | st.integers(0, 255)
_buffers = st.lists(_byte, min_size=0, max_size=160).map(bytes)


def _counters(fn, data, **kwargs):
    """Run ``fn`` under a private registry; return (gadgets, counters)."""
    with telemetry_session(metrics=True) as (registry, _tracer):
        gadgets = fn(data, **kwargs)
    samples = registry.to_dict()
    return gadgets, {
        name: samples[name]["value"]
        for name in (
            "gadgets.offsets_scanned",
            "gadgets.accepted",
            "gadgets.rejected",
        )
        if name in samples
    }


def fingerprint(gadgets):
    return sorted(
        (
            g.address,
            g.end,
            g.kind.key(),
            g.stack_words,
            g.far,
            g.ret_imm,
            g.synthetic,
            tuple(i.raw.hex() for i in g.instructions),
        )
        for g in gadgets
    )


def assert_equivalent(data, base=0x1000, max_insns=6, include_far=True):
    opt, opt_counts = _counters(
        find_gadgets_in_bytes, data,
        base=base, max_insns=max_insns, include_far=include_far,
    )
    ref, ref_counts = _counters(
        reference_find_gadgets_in_bytes, data,
        base=base, max_insns=max_insns, include_far=include_far,
    )
    assert fingerprint(opt) == fingerprint(ref), data.hex()
    # The optimized scanner batches counter updates but must publish the
    # exact values the reference accumulates one inc() at a time.
    assert opt_counts == ref_counts, (data.hex(), opt_counts, ref_counts)
    # Sorted-by-address output order is part of the contract.
    assert [g.address for g in opt] == sorted(g.address for g in opt)


@given(data=_buffers, include_far=st.booleans())
@settings(max_examples=120, deadline=None)
# ret imm16 truncated at the buffer end (no room for its immediate)...
@example(data=bytes([0x58, RET_IMM16]), include_far=True)
@example(data=bytes([0x58, RET_IMM16, 0x04]), include_far=True)
# ...and terminating exactly on it.
@example(data=bytes([0x58, RET_IMM16, 0x04, 0x00]), include_far=True)
# rets within MAX_LOOKBACK_BYTES of offset 0: the window clamps at 0.
@example(data=bytes([RET]), include_far=True)
@example(data=bytes([0x90, RET, 0x90, RET]), include_far=False)
# overlapping ret windows: every byte is a terminator.
@example(data=bytes([RET] * 12), include_far=True)
@example(data=bytes([RET_IMM16, 0x01, 0x00] * 6), include_far=True)
# far/near end-coincidence: "retf imm16" at i ends where "ret" at i+2
# ends, so the far chain satisfies the near window's end check even
# with include_far=False — the scanner must reproduce that corner.
@example(data=bytes([0x58, RETF_IMM16, 0x00, RET]), include_far=False)
@example(data=bytes([0x58, RETF_IMM16, 0x00, RET]), include_far=True)
# prefix-dense streams: irregular decode lengths across the window.
@example(data=bytes([0x66, 0x26, 0xF3, 0x90] * 8 + [RET]), include_far=True)
@example(data=bytes([0x66, RET_IMM16, 0x66, RETF, 0x2E, RET] * 5),
         include_far=True)
def test_scanner_equals_reference(data, include_far):
    assert_equivalent(data, include_far=include_far)


@given(data=_buffers, max_insns=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
@example(data=bytes([0x90] * 8 + [RET]), max_insns=6)
@example(data=bytes([0x58] * 7 + [RET]), max_insns=8)
def test_scanner_equals_reference_across_length_bounds(data, max_insns):
    assert_equivalent(data, max_insns=max_insns)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scanner_equals_reference_on_ret_salted_streams(seed):
    """Random streams salted with ret-family bytes every few positions,
    so nearly every lookback window overlaps several others."""
    rng = random.Random(seed)
    chunks = []
    for _ in range(rng.randrange(1, 24)):
        chunks.append(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 7))))
        chunks.append(bytes([rng.choice([RET, RET_IMM16, RETF, RETF_IMM16])]))
    data = b"".join(chunks)
    assert_equivalent(data, include_far=bool(seed & 1))


def test_window_clamp_near_offset_zero():
    """A ret closer to offset 0 than MAX_LOOKBACK_BYTES must still
    yield its gadgets (the window clamps instead of going negative)."""
    data = bytes([0x58, 0xC3])  # pop eax; ret at offsets 0/1
    assert len(data) < MAX_LOOKBACK_BYTES
    opt = find_gadgets_in_bytes(data, base=0)
    ref = reference_find_gadgets_in_bytes(data, base=0)
    assert fingerprint(opt) == fingerprint(ref)
    assert {g.address for g in opt} == {0, 1}
