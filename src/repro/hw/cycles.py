"""The shared per-instruction cycle model of the IBEX / MAUPITI cores.

This is the single source of cycle-cost truth for the whole stack: the
reference interpreter (:class:`repro.hw.core.IbexCore`), the JIT
simulator (:mod:`repro.hw.sim`) and the platform specifications in
:mod:`repro.hw.energy` all derive their timing from the same
:class:`CycleModel` instance, so cycle (and therefore energy) figures can
never drift apart between execution paths or engine backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import BRANCHES, CUSTOM, Instruction, LOADS, STORES


@dataclass(frozen=True)
class CycleModel:
    """Per-instruction-class cycle costs (IBEX small configuration).

    The vanilla IBEX executes most instructions in 1 cycle, loads in 2
    (memory access in the second stage), stores in 1 plus a memory cycle,
    taken branches in 3 (pipeline flush) and jumps in 2.  The MAUPITI SDOTP
    unit is single-cycle by construction (replicated multipliers keep it off
    the critical path).

    The class is frozen: both platform specs and every simulator share one
    configuration, so a variant timing model is expressed as a *new*
    instance rather than by mutating the shared one.
    """

    alu: int = 1
    mul: int = 1
    div: int = 37
    load: int = 2
    store: int = 2
    branch_not_taken: int = 1
    branch_taken: int = 3
    jump: int = 2
    sdotp: int = 1

    def cost(self, instr: Instruction, taken: bool = False) -> int:
        m = instr.mnemonic
        if m in CUSTOM:
            return self.sdotp
        if m in LOADS:
            return self.load
        if m in STORES:
            return self.store
        if m in BRANCHES:
            return self.branch_taken if taken else self.branch_not_taken
        if m in ("jal", "jalr"):
            return self.jump
        if m in ("mul", "mulh"):
            return self.mul
        if m in ("div", "rem"):
            return self.div
        return self.alu


#: The one cycle configuration shared by the IBEX and MAUPITI platform
#: specs and, through them, by every engine backend.
DEFAULT_CYCLE_MODEL = CycleModel()
