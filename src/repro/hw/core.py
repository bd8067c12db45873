"""Instruction-level simulator of the (customized) IBEX core.

The simulator executes RV32IM programs plus, when ``enable_sdotp`` is set,
the MAUPITI SDOTP extension.  It models the quantities the paper reports:

* executed instruction counts per category,
* an approximate cycle count based on the IBEX 2-stage pipeline timing
  (1 cycle for ALU/stores, 2 for loads, 1 for the single-cycle multiplier,
  extra cycles for taken branches and jumps),
* and, through :mod:`repro.hw.energy`, the energy per inference.

Programs halt by executing ``ebreak``.

Two execution modes are available (``IbexCore(mode=...)``):

* ``"interp"`` — the per-instruction reference interpreter below.  Simple,
  obviously correct, slow.
* ``"jit"`` (default for the deployment platforms) — the compiled simulator
  of :mod:`repro.hw.sim.jit`: the program is split into basic blocks, the
  structured inner loops emitted by :mod:`repro.deploy.codegen` run as
  vectorized numpy kernels, the remaining blocks as generated and
  ``exec``-compiled straight-line Python, and cycle/energy accounting is
  derived analytically from the same :class:`CycleModel`.  Compiled
  templates are shared process-wide across engines through
  :mod:`repro.hw.sim.trace_cache`.  Registers, memory, cycle counts and
  per-mnemonic statistics are bit-exact against the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .cycles import CycleModel, DEFAULT_CYCLE_MODEL
from .isa import BRANCHES, Instruction
from .memory import Memory
from .sdotp import sdotp4, sdotp8, to_signed, to_unsigned

SIM_MODES = ("interp", "jit")


class SimulationError(Exception):
    """Raised on illegal instructions, bad memory accesses or runaway programs."""


def _program_fingerprint(program: List[Instruction]) -> int:
    """Cheap content hash guarding the per-core cache of bound JIT programs.

    Programs are plain mutable lists of mutable instructions; a stale binding
    after an in-place edit would silently break the bit-exactness contract,
    so the cache revalidates on every run (a few hundred microseconds,
    negligible against a simulated frame)."""
    return hash(
        tuple(
            (i.mnemonic, i.rd, i.rs1, i.rs2, i.imm) for i in program
        )
    )


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
        # JIT-mode bound programs keyed by id(program); the program object
        # itself is kept alive in the value so a recycled id can never alias
        # a binding.  The underlying templates live in the process-wide
        # trace cache.
        self._jit_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self.registers = [0] * 32
        self.pc = 0
        self.stats = ExecutionStats()
        self.halted = False

    def _read(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index]

    def _write(self, index: int, value: int) -> None:
        if index != 0:
            self.registers[index] = to_unsigned(value, 32)

    # ------------------------------------------------------------------ #
    def run(self, program: List[Instruction], entry_pc: int = 0) -> ExecutionStats:
        """Execute ``program`` (a list of instructions laid out from address 0
        of the instruction memory, 4 bytes per slot) until ``ebreak``."""
        if self.mode == "jit":
            return self._run_jit(program, entry_pc)
        self.pc = entry_pc
        self.halted = False
        count_limit = self.max_instructions
        while not self.halted:
            index = self.pc // 4
            if not 0 <= index < len(program):
                raise SimulationError(f"PC 0x{self.pc:08x} outside the program")
            instr = program[index]
            self._execute(instr)
            if self.stats.instructions > count_limit:
                raise SimulationError(
                    f"instruction limit exceeded ({count_limit}); runaway program?"
                )
        return self.stats

    # ------------------------------------------------------------------ #
    def _run_jit(self, program: List[Instruction], entry_pc: int = 0) -> ExecutionStats:
        """Execute through the JIT tier (:mod:`repro.hw.sim.jit`).

        The memory-independent template comes from the process-wide trace
        cache (shared across every engine compiling the same program); the
        binding of that template to this core's memory is cached per
        program object and revalidated against the program's content on
        every run.  A core only ever owns one memory, which keeps the cache
        sound.
        """
        from .sim.trace_cache import get_template  # deferred import cycle

        key = id(program)
        fingerprint = _program_fingerprint(program)
        cached = self._jit_cache.pop(key, None)  # re-insert below: LRU order
        if cached is None or cached[0] is not program or cached[1] != fingerprint:
            if len(self._jit_cache) >= 8:
                # Evict the least recently used binding, so hot programs
                # survive sweeps over many compiled models on one platform.
                self._jit_cache.pop(next(iter(self._jit_cache)))
            template = get_template(program, self.cycle_model, self.enable_sdotp)
            cached = (program, fingerprint, template.bind(program, self.memory))
        self._jit_cache[key] = cached
        bound = cached[2]
        self.halted = False
        self.pc = bound.run(
            self.registers,
            self.stats,
            entry_pc=entry_pc,
            max_instructions=self.max_instructions,
        )
        self.halted = True
        return self.stats

    # ------------------------------------------------------------------ #
    def _execute(self, instr: Instruction) -> None:
        m = instr.mnemonic
        rs1 = to_signed(self._read(instr.rs1), 32)
        rs2 = to_signed(self._read(instr.rs2), 32)
        urs1 = self._read(instr.rs1)
        urs2 = self._read(instr.rs2)
        next_pc = self.pc + 4
        taken = False

        if m == "add":
            self._write(instr.rd, rs1 + rs2)
        elif m == "sub":
            self._write(instr.rd, rs1 - rs2)
        elif m == "and":
            self._write(instr.rd, urs1 & urs2)
        elif m == "or":
            self._write(instr.rd, urs1 | urs2)
        elif m == "xor":
            self._write(instr.rd, urs1 ^ urs2)
        elif m == "sll":
            self._write(instr.rd, urs1 << (urs2 & 0x1F))
        elif m == "srl":
            self._write(instr.rd, urs1 >> (urs2 & 0x1F))
        elif m == "sra":
            self._write(instr.rd, rs1 >> (urs2 & 0x1F))
        elif m == "slt":
            self._write(instr.rd, int(rs1 < rs2))
        elif m == "sltu":
            self._write(instr.rd, int(urs1 < urs2))
        elif m == "mul":
            self._write(instr.rd, rs1 * rs2)
        elif m == "mulh":
            self._write(instr.rd, (rs1 * rs2) >> 32)
        elif m == "div":
            if rs2 == 0:
                self._write(instr.rd, -1)
            else:
                self._write(instr.rd, int(rs1 / rs2))
        elif m == "rem":
            if rs2 == 0:
                self._write(instr.rd, rs1)
            else:
                self._write(instr.rd, rs1 - int(rs1 / rs2) * rs2)
        elif m in ("sdotp8", "sdotp4"):
            if not self.enable_sdotp:
                raise SimulationError(
                    f"{m} executed on a core without the SDOTP extension"
                )
            acc = self._read(instr.rd)
            result = sdotp8(urs1, urs2, acc) if m == "sdotp8" else sdotp4(urs1, urs2, acc)
            self._write(instr.rd, result)
        elif m == "addi":
            self._write(instr.rd, rs1 + instr.imm)
        elif m == "andi":
            self._write(instr.rd, urs1 & to_unsigned(instr.imm, 32))
        elif m == "ori":
            self._write(instr.rd, urs1 | to_unsigned(instr.imm, 32))
        elif m == "xori":
            self._write(instr.rd, urs1 ^ to_unsigned(instr.imm, 32))
        elif m == "slti":
            self._write(instr.rd, int(rs1 < instr.imm))
        elif m == "sltiu":
            self._write(instr.rd, int(urs1 < to_unsigned(instr.imm, 32)))
        elif m == "slli":
            self._write(instr.rd, urs1 << (instr.imm & 0x1F))
        elif m == "srli":
            self._write(instr.rd, urs1 >> (instr.imm & 0x1F))
        elif m == "srai":
            self._write(instr.rd, rs1 >> (instr.imm & 0x1F))
        elif m == "lui":
            self._write(instr.rd, instr.imm)
        elif m == "auipc":
            self._write(instr.rd, self.pc + instr.imm)
        elif m == "lw":
            self._write(instr.rd, self.memory.load_word(urs1 + instr.imm, signed=False))
        elif m == "lh":
            self._write(instr.rd, self.memory.load_half(urs1 + instr.imm))
        elif m == "lhu":
            self._write(instr.rd, self.memory.load_half(urs1 + instr.imm, signed=False))
        elif m == "lb":
            self._write(instr.rd, self.memory.load_byte(urs1 + instr.imm))
        elif m == "lbu":
            self._write(instr.rd, self.memory.load_byte(urs1 + instr.imm, signed=False))
        elif m == "sw":
            self.memory.store_word(urs1 + instr.imm, urs2)
        elif m == "sh":
            self.memory.store_half(urs1 + instr.imm, urs2)
        elif m == "sb":
            self.memory.store_byte(urs1 + instr.imm, urs2)
        elif m in BRANCHES:
            conditions = {
                "beq": rs1 == rs2,
                "bne": rs1 != rs2,
                "blt": rs1 < rs2,
                "bge": rs1 >= rs2,
                "bltu": urs1 < urs2,
                "bgeu": urs1 >= urs2,
            }
            taken = conditions[m]
            if taken:
                next_pc = self.pc + instr.imm
        elif m == "jal":
            self._write(instr.rd, self.pc + 4)
            next_pc = self.pc + instr.imm
        elif m == "jalr":
            self._write(instr.rd, self.pc + 4)
            next_pc = (urs1 + instr.imm) & ~1
        elif m == "ebreak":
            self.halted = True
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unimplemented instruction {m}")

        self.stats.record(m, self.cycle_model.cost(instr, taken))
        if not self.halted:
            self.pc = next_pc
