"""Property-based tests on the ISA substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.x86 import (
    DecodeError, GP32, Imm, decode, assemble, to_signed, to_unsigned,
)

regs32 = st.sampled_from([r for r in GP32 if r.name != "esp"])


@given(st.integers(0, 0xFFFFFFFF), st.sampled_from([8, 16, 32]))
def test_signed_unsigned_roundtrip(value, width):
    value &= (1 << width) - 1
    assert to_unsigned(to_signed(value, width), width) == value


@given(regs32, st.integers(0, 0xFFFFFFFF))
def test_mov_imm_roundtrip(reg, value):
    encoded = assemble("mov", reg, Imm(value, 32))
    insn = decode(encoded, 0)
    assert insn.mnemonic == "mov"
    assert insn.operands[0] is reg
    assert insn.operands[1].value == value


@given(regs32, regs32, st.sampled_from(["add", "sub", "xor", "and", "or", "cmp"]))
def test_arith_rr_roundtrip(dst, src, mnemonic):
    encoded = assemble(mnemonic, dst, src)
    insn = decode(encoded, 0)
    assert insn.mnemonic == mnemonic
    assert insn.operands == (dst, src)


@settings(max_examples=300)
@given(st.binary(min_size=1, max_size=16))
def test_decoder_never_crashes(data):
    """Arbitrary bytes either decode or raise DecodeError — nothing else."""
    try:
        insn = decode(data, 0)
    except DecodeError:
        return
    assert 1 <= insn.length <= len(data)


@settings(max_examples=100)
@given(st.binary(min_size=1, max_size=40))
def test_gadget_finder_total(data):
    """The finder terminates and returns well-formed gadgets on noise."""
    from repro.gadgets import find_gadgets_in_bytes
    for gadget in find_gadgets_in_bytes(bytes(data), base=0):
        assert gadget.instructions[-1].is_return
        assert gadget.length >= 1


# ----------------------------------------------------------------------
# Add-family (0x00..0x05) modrm/sib/disp edge cases
# ----------------------------------------------------------------------

def _expected_modrm_tail(modrm, sib):
    """Bytes after the opcode for a modrm-form instruction."""
    mod, rm = modrm >> 6, modrm & 7
    if mod == 3:
        return 1
    length = 1
    disp = {0: 0, 1: 1, 2: 4}[mod]
    if rm == 4:  # SIB follows
        length += 1
        if mod == 0 and (sib & 7) == 5:
            disp = 4  # base=101 with mod=00: disp32, no base
    elif rm == 5 and mod == 0:
        disp = 4
    return length + disp


@settings(max_examples=400)
@given(st.integers(0, 5), st.integers(0, 255), st.integers(0, 255))
def test_add_family_lengths_follow_modrm_rules(form, modrm, sib):
    data = bytes([form, modrm, sib]) + bytes(8)
    insn = decode(data, 0)
    if form == 4:       # al, imm8
        expected = 2
    elif form == 5:     # eax, imm32
        expected = 5
    else:
        expected = 1 + _expected_modrm_tail(modrm, sib)
    assert insn.mnemonic == "add"
    assert insn.length == expected
    assert insn.raw == data[:expected]


def test_add_family_every_modrm_byte_decodes():
    """0x01 /r is total over all 256 modrm bytes (with padding)."""
    for modrm in range(256):
        data = bytes([0x01, modrm]) + bytes(10)
        insn = decode(data, 0)
        assert insn.mnemonic == "add"
        assert insn.raw == data[: insn.length]


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=16))
def test_decoded_raw_is_the_consumed_prefix(data):
    """``insn.raw`` must be exactly the bytes consumed, prefixes included."""
    try:
        insn = decode(data, 0)
    except DecodeError:
        return
    assert insn.raw == data[: insn.length]


# ----------------------------------------------------------------------
# Return-family encodings stay distinct
# ----------------------------------------------------------------------

def test_ret_family_distinct_mnemonics_and_lengths():
    ret = decode(b"\xc3", 0)
    retf = decode(b"\xcb", 0)
    ret_imm = decode(b"\xc2\x08\x00", 0)
    retf_imm = decode(b"\xca\x10\x00", 0)
    assert ret.mnemonic == "ret" and ret.length == 1
    assert retf.mnemonic == "retf" and retf.length == 1
    assert ret_imm.mnemonic == "ret" and ret_imm.length == 3
    assert ret_imm.operands[0].value == 8
    assert retf_imm.mnemonic == "retf" and retf_imm.operands[0].value == 16
    for insn in (ret, retf, ret_imm, retf_imm):
        assert insn.is_return
    assert len({insn.raw for insn in (ret, retf, ret_imm, retf_imm)}) == 4


def test_rep_prefixed_return_is_rejected():
    with pytest.raises(DecodeError):
        decode(b"\xf3\xc3", 0)


# ----------------------------------------------------------------------
# Prefix handling
# ----------------------------------------------------------------------

def test_operand_size_prefix_switches_to_16_bit():
    insn = decode(b"\x66\x01\xc8", 0)  # add ax-family, modrm c8
    assert insn.mnemonic == "add"
    assert insn.length == 3
    assert insn.raw == b"\x66\x01\xc8"
    assert all(op.name.startswith(("ax", "cx")) for op in insn.operands)


def test_prefix_count_is_bounded():
    assert decode(b"\x2e" * 4 + b"\xc3", 0).mnemonic == "ret"
    with pytest.raises(DecodeError):
        decode(b"\x2e" * 5 + b"\xc3", 0)


def test_prefixed_immediate_offset_accounts_for_prefixes():
    plain = decode(b"\x05\x44\x33\x22\x11", 0)      # add eax, imm32
    prefixed = decode(b"\x2e\x05\x44\x33\x22\x11", 0)
    assert plain.imm_offset == 1
    assert prefixed.imm_offset == 2
    assert prefixed.raw[0] == 0x2E


# ----------------------------------------------------------------------
# Decode-cache keys cannot alias distinct encodings
# ----------------------------------------------------------------------

def test_decode_cache_distinguishes_equivalent_encodings():
    """01 /r and 03 /r both mean "add eax, ecx" — the cache must keep
    the byte-level distinction (Parallax protects *encodings*)."""
    from repro.cache import cache_session
    from repro.x86.decoder import decode_all_cached

    direction_a = b"\x01\xc8\xc3"
    direction_b = b"\x03\xc1\xc3"
    with cache_session():
        one = decode_all_cached(direction_a)
        two = decode_all_cached(direction_b)
        assert [i.raw for i in one] != [i.raw for i in two]
        assert one[0].mnemonic == two[0].mnemonic == "add"
        # a hit returns a fresh list, equal contents
        again = decode_all_cached(direction_a)
        assert again is not one
        assert [i.raw for i in again] == [i.raw for i in one]
        # address participates in the key
        rebased = decode_all_cached(direction_a, address=0x1000)
        assert rebased[0].address == 0x1000 and one[0].address == 0


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=8), st.binary(min_size=1, max_size=8))
def test_decode_cache_keys_distinct_for_distinct_inputs(a, b):
    from repro.cache import namespace_key

    def key(data, address=0, stop_on_error=False):
        return namespace_key("decode", data, address, stop_on_error)

    if a != b:
        assert key(a) != key(b)
    assert key(a) != key(a, address=1)
    assert key(a) != key(a, stop_on_error=True)
    # concatenation aliasing: trailing data byte vs address byte
    assert key(a + b"\x10", 0) != key(a, 0x10)
