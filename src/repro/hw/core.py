"""Instruction-level simulator of the (customized) IBEX core.

The simulator executes RV32IM programs plus, when ``enable_sdotp`` is set,
the MAUPITI SDOTP extension.  It models the quantities the paper reports:

* executed instruction counts per category,
* an approximate cycle count based on the IBEX 2-stage pipeline timing
  (1 cycle for ALU/stores, 2 for loads, 1 for the single-cycle multiplier,
  extra cycles for taken branches and jumps),
* and, through :mod:`repro.hw.energy`, the energy per inference.

Programs halt by executing ``ebreak``.

The reference semantics of every instruction live in one function,
:func:`step`.

Two execution modes are available (``IbexCore(mode=...)``):

* ``"interp"`` — the reference interpreter: :func:`step` once per executed
  instruction.  Simple, obviously correct, slow.
* ``"jit"`` (default for the deployment platforms) — the compiled simulator
  of :mod:`repro.hw.sim.jit`: the program is split into basic blocks, the
  structured inner loops emitted by :mod:`repro.deploy.codegen` run as
  vectorized numpy kernels, the remaining blocks as generated and
  ``exec``-compiled straight-line Python, and cycle/energy accounting is
  derived analytically from the same :class:`CycleModel`.  Compiled
  templates are shared process-wide across engines through
  :mod:`repro.hw.sim.trace_cache`, which also hands each thread its one
  binding of a template; a run finds both without rehashing the program,
  and any edit of the program list or of an instruction field between runs
  is still seen and recompiles.  A run is one state of the JIT's one
  lockstep loop (:meth:`~repro.hw.sim.jit.JitProgram.run_lockstep`) on the
  core's own memory.  Control that lands on a pc where no block starts
  (``jalr`` into a block's middle, a misaligned pc) is single-stepped
  through :func:`step`.  Registers, memory, cycle counts and per-mnemonic
  statistics are bit-exact against the interpreter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cycles import CycleModel, DEFAULT_CYCLE_MODEL
from .isa import BRANCHES, Instruction
from .memory import Memory
from .sdotp import sdotp4, sdotp8

SIM_MODES = ("interp", "jit")

MASK = 0xFFFFFFFF


class SimulationError(Exception):
    """Raised on illegal instructions, bad memory accesses or runaway programs."""


def step(
    instr: Instruction,
    pc: int,
    regs: List[int],
    memory: Memory,
    enable_sdotp: bool,
    cycle_model: CycleModel,
) -> Tuple[Optional[int], int]:
    """Execute ``instr`` at ``pc``: the reference semantics of RV32IM + SDOTP.

    ``regs`` holds unsigned 32-bit ints and is updated in place; ``x0``
    reads as zero and is never written.  Returns ``(next_pc, cycles)``,
    with ``next_pc`` ``None`` on ``ebreak`` (a pc can be negative through
    ``jalr``, so no numeric sentinel is safe).  A fault raises before any
    register is written.
    """
    m = instr.mnemonic
    rd = instr.rd
    imm = instr.imm
    urs1 = regs[instr.rs1] if instr.rs1 else 0
    urs2 = regs[instr.rs2] if instr.rs2 else 0
    rs1 = urs1 - 0x1_0000_0000 if urs1 & 0x8000_0000 else urs1
    rs2 = urs2 - 0x1_0000_0000 if urs2 & 0x8000_0000 else urs2
    next_pc = pc + 4
    taken = False
    value = None  # what ``rd`` receives, before masking to 32 bits

    if m == "add":
        value = rs1 + rs2
    elif m == "sub":
        value = rs1 - rs2
    elif m == "and":
        value = urs1 & urs2
    elif m == "or":
        value = urs1 | urs2
    elif m == "xor":
        value = urs1 ^ urs2
    elif m == "sll":
        value = urs1 << (urs2 & 0x1F)
    elif m == "srl":
        value = urs1 >> (urs2 & 0x1F)
    elif m == "sra":
        value = rs1 >> (urs2 & 0x1F)
    elif m == "slt":
        value = int(rs1 < rs2)
    elif m == "sltu":
        value = int(urs1 < urs2)
    elif m == "mul":
        value = rs1 * rs2
    elif m == "mulh":
        value = (rs1 * rs2) >> 32
    elif m == "div":
        value = -1 if rs2 == 0 else int(rs1 / rs2)
    elif m == "rem":
        value = rs1 if rs2 == 0 else rs1 - int(rs1 / rs2) * rs2
    elif m in ("sdotp8", "sdotp4"):
        if not enable_sdotp:
            raise SimulationError(
                f"{m} executed on a core without the SDOTP extension"
            )
        acc = regs[rd] if rd else 0
        value = sdotp8(urs1, urs2, acc) if m == "sdotp8" else sdotp4(urs1, urs2, acc)
    elif m == "addi":
        value = rs1 + imm
    elif m == "andi":
        value = urs1 & (imm & MASK)
    elif m == "ori":
        value = urs1 | (imm & MASK)
    elif m == "xori":
        value = urs1 ^ (imm & MASK)
    elif m == "slti":
        value = int(rs1 < imm)
    elif m == "sltiu":
        value = int(urs1 < (imm & MASK))
    elif m == "slli":
        value = urs1 << (imm & 0x1F)
    elif m == "srli":
        value = urs1 >> (imm & 0x1F)
    elif m == "srai":
        value = rs1 >> (imm & 0x1F)
    elif m == "lui":
        value = imm
    elif m == "auipc":
        value = pc + imm
    # Loads keep their side effects (bounds checks) even when rd is x0.
    elif m == "lw":
        value = memory.load_word(urs1 + imm, signed=False)
    elif m == "lh":
        value = memory.load_half(urs1 + imm)
    elif m == "lhu":
        value = memory.load_half(urs1 + imm, signed=False)
    elif m == "lb":
        value = memory.load_byte(urs1 + imm)
    elif m == "lbu":
        value = memory.load_byte(urs1 + imm, signed=False)
    elif m == "sw":
        memory.store_word(urs1 + imm, urs2)
    elif m == "sh":
        memory.store_half(urs1 + imm, urs2)
    elif m == "sb":
        memory.store_byte(urs1 + imm, urs2)
    elif m in BRANCHES:
        if m == "beq":
            taken = urs1 == urs2
        elif m == "bne":
            taken = urs1 != urs2
        elif m == "blt":
            taken = rs1 < rs2
        elif m == "bge":
            taken = rs1 >= rs2
        elif m == "bltu":
            taken = urs1 < urs2
        else:  # bgeu
            taken = urs1 >= urs2
        if taken:
            next_pc = pc + imm
    elif m == "jal":
        value = pc + 4
        next_pc = pc + imm
    elif m == "jalr":
        value = pc + 4
        next_pc = (urs1 + imm) & ~1
    elif m == "ebreak":
        next_pc = None
    else:  # pragma: no cover - Instruction rejects unknown mnemonics
        raise SimulationError(f"unimplemented instruction {m}")

    if value is not None and rd:
        regs[rd] = value & MASK
    return next_pc, cycle_model.cost(instr, taken)


@functools.cache
def _jit_tier():
    """``(bind_program, FrameDmem)`` of :mod:`repro.hw.sim`, imported on the
    first jit run: the JIT imports this module, and ``import repro`` should
    not pay for the JIT."""
    from .sim.kernels import FrameDmem
    from .sim.trace_cache import bind_program

    return bind_program, FrameDmem


@dataclass
class ExecutionStats:
    """Counters accumulated while running a program."""

    instructions: int = 0
    cycles: int = 0
    per_mnemonic: Dict[str, int] = field(default_factory=dict)

    def record(self, mnemonic: str, cycles: int) -> None:
        self.instructions += 1
        self.cycles += cycles
        self.per_mnemonic[mnemonic] = self.per_mnemonic.get(mnemonic, 0) + 1

    def record_block(self, instructions: int, cycles: int, counts: Dict[str, int]) -> None:
        """Merge aggregated counters from a block of executed instructions."""
        self.instructions += instructions
        self.cycles += cycles
        pm = self.per_mnemonic
        if not pm:
            pm.update(counts)
            return
        for mnemonic, count in counts.items():
            pm[mnemonic] = pm.get(mnemonic, 0) + count

    @property
    def sdotp_count(self) -> int:
        return self.per_mnemonic.get("sdotp8", 0) + self.per_mnemonic.get("sdotp4", 0)


class IbexCore:
    """The customized IBEX core (SDOTP optional, to model the vanilla core)."""

    def __init__(
        self,
        memory: Optional[Memory] = None,
        enable_sdotp: bool = True,
        cycle_model: Optional[CycleModel] = None,
        max_instructions: int = 50_000_000,
        mode: str = "interp",
    ):
        if mode not in SIM_MODES:
            raise ValueError(f"unknown simulation mode {mode!r}; expected one of {SIM_MODES}")
        self.memory = memory if memory is not None else Memory()
        self.enable_sdotp = enable_sdotp
        self.cycle_model = cycle_model or DEFAULT_CYCLE_MODEL
        self.max_instructions = max_instructions
        self.mode = mode
        self.registers = [0] * 32
        self.pc = 0
        self.stats = ExecutionStats()
        self.halted = False
        # ``(memory, FrameDmem)`` of the last jit run: while ``memory`` is
        # the same, the thread's binding keeps its kernel runners.
        self._jit_dmem: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self.registers = [0] * 32
        self.pc = 0
        self.stats = ExecutionStats()
        self.halted = False

    # ------------------------------------------------------------------ #
    def run(self, program: List[Instruction], entry_pc: int = 0) -> ExecutionStats:
        """Execute ``program`` (a list of instructions laid out from address 0
        of the instruction memory, 4 bytes per slot) until ``ebreak``."""
        if self.mode == "jit":
            return self._run_jit(program, entry_pc)
        self.halted = False
        regs, memory, stats = self.registers, self.memory, self.stats
        enable_sdotp, cycle_model = self.enable_sdotp, self.cycle_model
        count_limit = self.max_instructions
        pc = entry_pc
        try:
            while True:
                index = pc // 4
                if not 0 <= index < len(program):
                    raise SimulationError(f"PC 0x{pc:08x} outside the program")
                instr = program[index]
                next_pc, cycles = step(
                    instr, pc, regs, memory, enable_sdotp, cycle_model
                )
                stats.record(instr.mnemonic, cycles)
                if next_pc is not None:
                    pc = next_pc
                if stats.instructions > count_limit:
                    raise SimulationError(
                        f"instruction limit exceeded ({count_limit}); runaway program?"
                    )
                if next_pc is None:
                    break
        finally:
            self.pc = pc
        self.halted = True
        return stats

    # ------------------------------------------------------------------ #
    def _run_jit(self, program: List[Instruction], entry_pc: int = 0) -> ExecutionStats:
        """Execute through the JIT tier (:mod:`repro.hw.sim.jit`).

        :func:`~repro.hw.sim.trace_cache.bind_program` finds the template in
        the process-wide trace cache (shared across every engine compiling
        the same program; an in-place edit of ``program`` is seen and
        recompiles) and hands back this thread's binding of it, pointed at
        this core's memory.  The run is one state of the JIT's lockstep
        loop over the core's own dmem: registers, memory and stats change
        in place.
        """
        bind_program, FrameDmem = _jit_tier()
        bound = bind_program(
            program, self.cycle_model, self.enable_sdotp, [self.memory]
        )
        state = bound.start(
            self.registers, self.stats, entry_pc, self.max_instructions
        )
        dmem = self._jit_dmem
        if dmem is None or dmem[0] is not self.memory:
            dmem = self._jit_dmem = (self.memory, FrameDmem.of(self.memory))
        self.halted = False
        bound.run_lockstep([state], [self.stats], dmem[1])
        self.pc = state.final_pc
        self.halted = True
        return self.stats
