"""Pre-decoding of :class:`~repro.hw.isa.Instruction` objects into closures.

The reference interpreter (:meth:`repro.hw.core.IbexCore._execute`) pays a
long mnemonic-dispatch chain, two signed/unsigned operand conversions and a
per-instruction statistics update for *every executed instruction*.  This
module instead decodes each instruction **once** into a small Python
closure specialized on its register indices and immediate (classic
threaded-code technique); executing the program then touches only list
indexing and integer arithmetic.  The JIT (:mod:`repro.hw.sim.jit`) builds
its basic blocks from :func:`decode_meta` and falls back to the
:func:`decode_program` closures for blocks it cannot generate source for
and for pcs that are not block leaders.

Every closure reproduces the interpreter's semantics bit-exactly, including
its quirks (``div``/``rem`` via ``int(a / b)``, unmasked load/store
addresses, ``jalr`` target ``& ~1``).  Registers are stored exactly like the
interpreter stores them: unsigned 32-bit Python ints, with ``x0``
hard-wired to zero by never writing it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..isa import BRANCHES, Instruction
from ..memory import Memory
from ..sdotp import sdotp4, sdotp8

MASK = 0xFFFFFFFF

# Instruction kinds, used by the block builder and the simulator main loop.
STRAIGHT = 0
BRANCH = 1
JAL = 2
JALR = 3
EBREAK = 4


def _sx(value: int) -> int:
    """Signed view of an unsigned 32-bit register value."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class Decoded:
    """One pre-decoded instruction.

    ``op`` is a closure ``op(regs)`` executing the instruction's side
    effects (``None`` for architectural no-ops such as ALU writes to
    ``x0``); control-flow instructions carry no ``op`` and are handled by
    the simulator through ``kind``/``cond``/``taken_pc``.
    """

    __slots__ = (
        "instr",
        "mnemonic",
        "kind",
        "op",
        "cond",
        "cost",
        "rd",
        "rs1",
        "imm",
        "pc",
        "taken_pc",
    )

    def __init__(self, instr: Instruction, index: int):
        self.instr = instr
        self.mnemonic = instr.mnemonic
        self.kind = STRAIGHT
        self.op: Optional[Callable] = None
        self.cond: Optional[Callable] = None
        self.cost = 0
        self.rd = instr.rd
        self.rs1 = instr.rs1
        self.imm = instr.imm
        self.pc = 4 * index
        self.taken_pc = 4 * index + instr.imm


def _compile_branch(instr: Instruction) -> Callable:
    """Branch condition closure; compares exactly like the interpreter."""
    a, b = instr.rs1, instr.rs2
    m = instr.mnemonic
    if m == "beq":
        return lambda regs: regs[a] == regs[b]
    if m == "bne":
        return lambda regs: regs[a] != regs[b]
    if m == "blt":
        return lambda regs: _sx(regs[a]) < _sx(regs[b])
    if m == "bge":
        return lambda regs: _sx(regs[a]) >= _sx(regs[b])
    if m == "bltu":
        return lambda regs: regs[a] < regs[b]
    return lambda regs: regs[a] >= regs[b]  # bgeu


def _compile_straight(
    instr: Instruction, index: int, mem: Memory, enable_sdotp: bool
) -> Optional[Callable]:
    """Closure for a non-control-flow instruction (or ``None`` for a no-op)."""
    from ..core import SimulationError  # deferred to avoid a module cycle

    m = instr.mnemonic
    rd, a, b, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    uimm = imm & MASK

    if m in ("sdotp8", "sdotp4"):
        fn = sdotp8 if m == "sdotp8" else sdotp4
        if not enable_sdotp:
            def op(regs, m=m):
                raise SimulationError(
                    f"{m} executed on a core without the SDOTP extension"
                )
            return op
        if rd == 0:
            return None

        def op(regs, fn=fn, rd=rd, a=a, b=b):
            regs[rd] = fn(regs[a], regs[b], regs[rd])
        return op

    # Memory accesses keep their side effects (bounds checks) even when the
    # destination is x0, exactly like the interpreter.
    if m == "lw":
        lw = mem.load_word
        if rd == 0:
            return lambda regs: lw(regs[a] + imm, signed=False) and None
        def op(regs):
            regs[rd] = lw(regs[a] + imm, signed=False)
        return op
    if m == "lh":
        lh = mem.load_half
        if rd == 0:
            return lambda regs: lh(regs[a] + imm) and None
        def op(regs):
            regs[rd] = lh(regs[a] + imm) & MASK
        return op
    if m == "lhu":
        lh = mem.load_half
        if rd == 0:
            return lambda regs: lh(regs[a] + imm, signed=False) and None
        def op(regs):
            regs[rd] = lh(regs[a] + imm, signed=False)
        return op
    if m == "lb":
        lb = mem.load_byte
        if rd == 0:
            return lambda regs: lb(regs[a] + imm) and None
        def op(regs):
            regs[rd] = lb(regs[a] + imm) & MASK
        return op
    if m == "lbu":
        lb = mem.load_byte
        if rd == 0:
            return lambda regs: lb(regs[a] + imm, signed=False) and None
        def op(regs):
            regs[rd] = lb(regs[a] + imm, signed=False)
        return op
    if m == "sw":
        sw = mem.store_word
        return lambda regs: sw(regs[a] + imm, regs[b])
    if m == "sh":
        sh = mem.store_half
        return lambda regs: sh(regs[a] + imm, regs[b])
    if m == "sb":
        sb = mem.store_byte
        return lambda regs: sb(regs[a] + imm, regs[b])

    if rd == 0:  # remaining instructions only write a register
        return None

    if m == "add":
        def op(regs):
            regs[rd] = (regs[a] + regs[b]) & MASK
    elif m == "sub":
        def op(regs):
            regs[rd] = (regs[a] - regs[b]) & MASK
    elif m == "and":
        def op(regs):
            regs[rd] = regs[a] & regs[b]
    elif m == "or":
        def op(regs):
            regs[rd] = regs[a] | regs[b]
    elif m == "xor":
        def op(regs):
            regs[rd] = regs[a] ^ regs[b]
    elif m == "sll":
        def op(regs):
            regs[rd] = (regs[a] << (regs[b] & 0x1F)) & MASK
    elif m == "srl":
        def op(regs):
            regs[rd] = regs[a] >> (regs[b] & 0x1F)
    elif m == "sra":
        def op(regs):
            regs[rd] = (_sx(regs[a]) >> (regs[b] & 0x1F)) & MASK
    elif m == "slt":
        def op(regs):
            regs[rd] = int(_sx(regs[a]) < _sx(regs[b]))
    elif m == "sltu":
        def op(regs):
            regs[rd] = int(regs[a] < regs[b])
    elif m == "mul":
        def op(regs):
            regs[rd] = (regs[a] * regs[b]) & MASK
    elif m == "mulh":
        def op(regs):
            regs[rd] = ((_sx(regs[a]) * _sx(regs[b])) >> 32) & MASK
    elif m == "div":
        # int(x / y) matches the interpreter exactly, float rounding and all.
        def op(regs):
            rs1, rs2 = _sx(regs[a]), _sx(regs[b])
            regs[rd] = MASK if rs2 == 0 else int(rs1 / rs2) & MASK
    elif m == "rem":
        def op(regs):
            rs1, rs2 = _sx(regs[a]), _sx(regs[b])
            regs[rd] = rs1 & MASK if rs2 == 0 else (rs1 - int(rs1 / rs2) * rs2) & MASK
    elif m == "addi":
        def op(regs):
            regs[rd] = (regs[a] + imm) & MASK
    elif m == "andi":
        def op(regs):
            regs[rd] = regs[a] & uimm
    elif m == "ori":
        def op(regs):
            regs[rd] = regs[a] | uimm
    elif m == "xori":
        def op(regs):
            regs[rd] = regs[a] ^ uimm
    elif m == "slti":
        def op(regs):
            regs[rd] = int(_sx(regs[a]) < imm)
    elif m == "sltiu":
        def op(regs):
            regs[rd] = int(regs[a] < uimm)
    elif m == "slli":
        sh = imm & 0x1F
        def op(regs):
            regs[rd] = (regs[a] << sh) & MASK
    elif m == "srli":
        sh = imm & 0x1F
        def op(regs):
            regs[rd] = regs[a] >> sh
    elif m == "srai":
        sh = imm & 0x1F
        def op(regs):
            regs[rd] = (_sx(regs[a]) >> sh) & MASK
    elif m == "lui":
        def op(regs):
            regs[rd] = uimm
    elif m == "auipc":
        # Position-dependent: specialized on the static pc (4 * index).
        value = (4 * index + imm) & MASK
        def op(regs):
            regs[rd] = value
    else:  # pragma: no cover - defensive, mirrors the interpreter
        def op(regs, m=m):
            raise SimulationError(f"unimplemented instruction {m}")
    return op


def decode_meta(
    program: List[Instruction],
    cycle_model,
) -> List[Decoded]:
    """Memory-independent pre-decode: kinds, costs, pcs and branch conditions.

    The resulting :class:`Decoded` objects carry no executable ``op``
    closures (those bind a concrete :class:`~repro.hw.memory.Memory`); the
    JIT template builder uses this form to construct basic blocks and
    generated source that can be shared across engines and memories.
    """
    decoded: List[Decoded] = []
    for index, instr in enumerate(program):
        d = Decoded(instr, index)
        m = instr.mnemonic
        if m in BRANCHES:
            d.kind = BRANCH
            d.cond = _compile_branch(instr)
        elif m == "jal":
            d.kind = JAL
            d.cost = cycle_model.jump
        elif m == "jalr":
            d.kind = JALR
            d.cost = cycle_model.jump
        elif m == "ebreak":
            d.kind = EBREAK
            d.cost = cycle_model.cost(instr)
        else:
            d.kind = STRAIGHT
            d.cost = cycle_model.cost(instr)
        decoded.append(d)
    return decoded


def decode_program(
    program: List[Instruction],
    memory: Memory,
    cycle_model,
    enable_sdotp: bool,
) -> List[Decoded]:
    """Pre-decode every instruction of ``program`` into a :class:`Decoded`."""
    decoded = decode_meta(program, cycle_model)
    for index, d in enumerate(decoded):
        if d.kind == STRAIGHT:
            d.op = _compile_straight(d.instr, index, memory, enable_sdotp)
    return decoded
