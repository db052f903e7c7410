"""Mnemonic -> handler dispatch table shared by both execution engines.

Each handler implements the architectural semantics of one mnemonic,
operating on an :class:`~repro.emu.emulator.Emulator` and a decoded
:class:`~repro.x86.instruction.Instruction`.  The step engine calls
handlers straight out of :data:`DISPATCH`; the block engine
(:mod:`repro.emu.blocks`) pre-binds them per compiled instruction and
falls back to them for every shape its specializer does not inline —
so there is exactly one implementation of every instruction's
semantics, and the two engines cannot drift apart.

Handlers assume the caller has already advanced ``cpu.eip`` past the
instruction (so ``cpu.eip`` is the fall-through address), exactly as
hardware exposes the return address to ``call``.
"""

from __future__ import annotations

from ..x86.operands import Mem, to_signed
from .cpu import MASK32
from .errors import DivideError, EmulationError, Halted

#: Cycle cost per mnemonic (default 1); memory operands add 1 each.
CYCLE_COSTS = {
    "mul": 4,
    "imul": 4,
    "div": 24,
    "idiv": 24,
    "call": 2,
    "ret": 2,
    "retf": 3,
    "pushad": 8,
    "popad": 8,
    "leave": 2,
    "int": 60,
}

#: Extra cycles when a return's target does not match the shadow
#: return-address stack — the branch-predictor miss that makes ROP
#: chains an order of magnitude slower than straight code on real
#: hardware.  Calls/returns in ordinary code pair up and stay cheap.
RET_MISPREDICT_PENALTY = 18

#: Depth of the modelled return-stack buffer (typical hardware: 16).
RAS_DEPTH = 16

#: Condition-code suffixes understood by jcc/setcc.
CONDITION_CODES = (
    "o", "no", "b", "ae", "e", "ne", "be", "a",
    "s", "ns", "p", "np", "l", "ge", "le", "g",
)


def cost_of(insn) -> int:
    """Static cycle cost of ``insn`` (memoized on the instruction)."""
    cost = insn.cycle_cost
    if cost is None:
        cost = CYCLE_COSTS.get(insn.mnemonic, 1)
        for op in insn.operands:
            if isinstance(op, Mem):
                cost += 1
        insn.cycle_cost = cost
    return cost


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------


def _op_mov(emu, insn):
    ops = insn.operands
    emu._write_operand(ops[0], emu._read_operand(ops[1], emu._width_of(ops[0])))


def _op_push(emu, insn):
    emu.push(emu._read_operand(insn.operands[0], 32))


def _op_pop(emu, insn):
    emu._write_operand(insn.operands[0], emu.pop())


def _op_ret(emu, insn):
    cpu = emu.cpu
    cpu.eip = emu.pop()
    if insn.operands:
        cpu.esp = (cpu.esp + insn.operands[0].value) & MASK32
    emu._predict_return(cpu.eip)


def _op_retf(emu, insn):
    cpu = emu.cpu
    target = emu.pop()
    emu.pop()  # discard code-segment word; a fault here leaves eip alone
    cpu.eip = target
    if insn.operands:
        cpu.esp = (cpu.esp + insn.operands[0].value) & MASK32
    emu._predict_return(cpu.eip)


def _op_call(emu, insn):
    cpu = emu.cpu
    target = emu._branch_target(insn.operands[0])
    emu.push(cpu.eip)
    ras = emu._ras
    if len(ras) >= RAS_DEPTH:
        del ras[0]
    ras.append(cpu.eip)
    cpu.eip = target


def _op_jmp(emu, insn):
    emu.cpu.eip = emu._branch_target(insn.operands[0])


def _make_jcc(cc):
    def handler(emu, insn):
        cpu = emu.cpu
        if cpu.condition(cc):
            cpu.eip = emu._branch_target(insn.operands[0])

    return handler


def _make_setcc(cc):
    def handler(emu, insn):
        emu._write_operand(insn.operands[0], int(emu.cpu.condition(cc)))

    return handler


def _op_add(emu, insn):
    ops = insn.operands
    width = emu._width_of(ops[0])
    a = emu._read_operand(ops[0], width)
    b = emu._read_operand(ops[1], width)
    emu._write_operand(ops[0], emu.cpu.set_add_flags(a, b, 0, width))


def _op_adc(emu, insn):
    ops = insn.operands
    cpu = emu.cpu
    width = emu._width_of(ops[0])
    a = emu._read_operand(ops[0], width)
    b = emu._read_operand(ops[1], width)
    emu._write_operand(ops[0], cpu.set_add_flags(a, b, int(cpu.cf), width))


def _op_sub(emu, insn):
    ops = insn.operands
    width = emu._width_of(ops[0])
    a = emu._read_operand(ops[0], width)
    b = emu._read_operand(ops[1], width)
    emu._write_operand(ops[0], emu.cpu.set_sub_flags(a, b, 0, width))


def _op_sbb(emu, insn):
    ops = insn.operands
    cpu = emu.cpu
    width = emu._width_of(ops[0])
    a = emu._read_operand(ops[0], width)
    b = emu._read_operand(ops[1], width)
    emu._write_operand(ops[0], cpu.set_sub_flags(a, b, int(cpu.cf), width))


def _op_cmp(emu, insn):
    ops = insn.operands
    width = emu._width_of(ops[0])
    a = emu._read_operand(ops[0], width)
    b = emu._read_operand(ops[1], width)
    emu.cpu.set_sub_flags(a, b, 0, width)


def _make_logic(combine):
    def handler(emu, insn):
        ops = insn.operands
        width = emu._width_of(ops[0])
        a = emu._read_operand(ops[0], width)
        b = emu._read_operand(ops[1], width)
        result = combine(a, b)
        emu.cpu.set_logic_flags(result, width)
        emu._write_operand(ops[0], result)

    return handler


def _op_test(emu, insn):
    ops = insn.operands
    width = emu._width_of(ops[0])
    a = emu._read_operand(ops[0], width)
    b = emu._read_operand(ops[1], width)
    emu.cpu.set_logic_flags(a & b, width)


def _op_inc(emu, insn):
    cpu = emu.cpu
    width = emu._width_of(insn.operands[0])
    a = emu._read_operand(insn.operands[0], width)
    carry = cpu.cf  # inc/dec preserve CF
    result = cpu.set_add_flags(a, 1, 0, width)
    cpu.cf = carry
    emu._write_operand(insn.operands[0], result)


def _op_dec(emu, insn):
    cpu = emu.cpu
    width = emu._width_of(insn.operands[0])
    a = emu._read_operand(insn.operands[0], width)
    carry = cpu.cf
    result = cpu.set_sub_flags(a, 1, 0, width)
    cpu.cf = carry
    emu._write_operand(insn.operands[0], result)


def _op_neg(emu, insn):
    width = emu._width_of(insn.operands[0])
    a = emu._read_operand(insn.operands[0], width)
    emu._write_operand(insn.operands[0], emu.cpu.set_sub_flags(0, a, 0, width))


def _op_not(emu, insn):
    width = emu._width_of(insn.operands[0])
    a = emu._read_operand(insn.operands[0], width)
    emu._write_operand(insn.operands[0], ~a & ((1 << width) - 1))


def _op_lea(emu, insn):
    emu._write_operand(insn.operands[0], emu._effective_address(insn.operands[1]))


def _op_xchg(emu, insn):
    ops = insn.operands
    wa, wb = emu._width_of(ops[0]), emu._width_of(ops[1])
    a = emu._read_operand(ops[0], wa)
    b = emu._read_operand(ops[1], wb)
    emu._write_operand(ops[0], b)
    emu._write_operand(ops[1], a)


def _make_shift(m):
    def handler(emu, insn):
        ops = insn.operands
        cpu = emu.cpu
        width = emu._width_of(ops[0])
        count = emu._read_operand(ops[1], 8) & 0x1F
        value = emu._read_operand(ops[0], width)
        if count == 0:
            return
        mask = (1 << width) - 1
        if m == "shl":
            result = (value << count) & mask
            cpu.cf = bool((value >> (width - count)) & 1) if count <= width else False
        elif m == "shr":
            result = (value >> count) & mask
            cpu.cf = bool((value >> (count - 1)) & 1)
        else:  # sar
            signed = to_signed(value, width)
            cpu.cf = bool((signed >> (count - 1)) & 1) if count <= width else signed < 0
            result = (signed >> count) & mask if count < width else (mask if signed < 0 else 0)
        cpu.zf = result == 0
        cpu.sf = bool(result >> (width - 1))
        emu._write_operand(ops[0], result)

    return handler


def _op_pushad(emu, insn):
    cpu = emu.cpu
    original_esp = cpu.esp
    for code in range(8):
        emu.push(original_esp if code == 4 else cpu.regs[code])


def _op_popad(emu, insn):
    cpu = emu.cpu
    for code in reversed(range(8)):
        value = emu.pop()
        if code != 4:  # esp is popped but discarded
            cpu.regs[code] = value


def _op_leave(emu, insn):
    cpu = emu.cpu
    cpu.esp = cpu.ebp
    cpu.ebp = emu.pop()


def _op_movzx(emu, insn):
    ops = insn.operands
    emu._write_operand(ops[0], emu._read_operand(ops[1], emu._width_of(ops[1])))


def _op_movsx(emu, insn):
    ops = insn.operands
    src_width = emu._width_of(ops[1])
    value = emu._read_operand(ops[1], src_width)
    emu._write_operand(ops[0], to_signed(value, src_width) & MASK32)


def _op_multiply(emu, insn):
    m = insn.mnemonic
    ops = insn.operands
    cpu = emu.cpu
    if m == "imul" and len(ops) == 3:  # imul r32, r/m32, imm
        a = to_signed(emu._read_operand(ops[1], 32), 32)
        b = ops[2].signed
        product = a * b
        result = product & MASK32
        cpu.cf = cpu.of = product != to_signed(result, 32)
        emu._write_operand(ops[0], result)
    elif m == "imul" and len(ops) == 2:  # imul r32, r/m32
        a = to_signed(cpu.get(ops[0]), 32)
        b = to_signed(emu._read_operand(ops[1], 32), 32)
        product = a * b
        result = product & MASK32
        cpu.cf = cpu.of = product != to_signed(result, 32)
        emu._write_operand(ops[0], result)
    else:  # one-operand mul/imul: edx:eax = eax * op
        width = emu._width_of(ops[0])
        if width != 32:
            raise EmulationError("8-bit multiply not supported", eip=cpu.eip)
        a = cpu.regs[0]
        b = emu._read_operand(ops[0], 32)
        if m == "imul":
            product = to_signed(a, 32) * to_signed(b, 32)
        else:
            product = a * b
        cpu.regs[0] = product & MASK32
        cpu.regs[2] = (product >> 32) & MASK32
        if m == "imul":
            # CF=OF unless edx:eax is just the sign extension of eax.
            cpu.cf = cpu.of = product != to_signed(product & MASK32, 32)
        else:
            cpu.cf = cpu.of = cpu.regs[2] != 0


def _op_divide(emu, insn):
    m = insn.mnemonic
    cpu = emu.cpu
    divisor = emu._read_operand(insn.operands[0], 32)
    dividend = (cpu.regs[2] << 32) | cpu.regs[0]
    if m == "idiv":
        divisor = to_signed(divisor, 32)
        dividend = to_signed(dividend, 64)
    if divisor == 0:
        raise DivideError("division by zero", eip=cpu.eip)
    if m == "idiv":
        quotient = int(dividend / divisor)  # truncation toward zero
        remainder = dividend - quotient * divisor
        if not -(1 << 31) <= quotient < (1 << 31):
            raise DivideError("idiv quotient overflow", eip=cpu.eip)
    else:
        quotient, remainder = divmod(dividend, divisor)
        if quotient > MASK32:
            raise DivideError("div quotient overflow", eip=cpu.eip)
    cpu.regs[0] = quotient & MASK32
    cpu.regs[2] = remainder & MASK32


def _op_cdq(emu, insn):
    cpu = emu.cpu
    cpu.regs[2] = MASK32 if cpu.regs[0] & 0x8000_0000 else 0


def _op_nop(emu, insn):
    pass


def _op_int(emu, insn):
    cpu = emu.cpu
    if insn.operands[0].value == 0x80:
        cpu.regs[0] = emu.os.dispatch(emu) & MASK32
    else:
        raise EmulationError(
            f"unhandled software interrupt {insn.operands[0].value:#x}", eip=cpu.eip
        )


def _op_int3(emu, insn):
    raise EmulationError("breakpoint trap (int3)", eip=emu.cpu.eip)


def _op_hlt(emu, insn):
    raise Halted("hlt executed", eip=emu.cpu.eip)


def _build_dispatch():
    table = {
        "mov": _op_mov,
        "push": _op_push,
        "pop": _op_pop,
        "ret": _op_ret,
        "retf": _op_retf,
        "call": _op_call,
        "jmp": _op_jmp,
        "add": _op_add,
        "adc": _op_adc,
        "sub": _op_sub,
        "sbb": _op_sbb,
        "cmp": _op_cmp,
        "and": _make_logic(lambda a, b: a & b),
        "or": _make_logic(lambda a, b: a | b),
        "xor": _make_logic(lambda a, b: a ^ b),
        "test": _op_test,
        "inc": _op_inc,
        "dec": _op_dec,
        "neg": _op_neg,
        "not": _op_not,
        "lea": _op_lea,
        "xchg": _op_xchg,
        "shl": _make_shift("shl"),
        "shr": _make_shift("shr"),
        "sar": _make_shift("sar"),
        "pushad": _op_pushad,
        "popad": _op_popad,
        "leave": _op_leave,
        "movzx": _op_movzx,
        "movsx": _op_movsx,
        "mul": _op_multiply,
        "imul": _op_multiply,
        "div": _op_divide,
        "idiv": _op_divide,
        "cdq": _op_cdq,
        "nop": _op_nop,
        "int": _op_int,
        "int3": _op_int3,
        "hlt": _op_hlt,
    }
    for cc in CONDITION_CODES:
        table["j" + cc] = _make_jcc(cc)
        table["set" + cc] = _make_setcc(cc)
    return table


#: The one table both engines execute from.
DISPATCH = _build_dispatch()
