"""Memory-independent pre-decoding of a program for the block builder.

:func:`decode_meta` tags every :class:`~repro.hw.isa.Instruction` with its
kind (straight-line, branch, ``jal``, ``jalr``, ``ebreak``), its static pc
and branch target, and its fixed cycle cost from the shared
:class:`~repro.hw.cycles.CycleModel`.  :mod:`repro.hw.sim.blocks` splits the
result into basic blocks, and :mod:`repro.hw.sim.jit` generates one Python
function per block from it.  Nothing here executes an instruction: the
semantics live in the JIT's source generator and, for everything else, in
the interpreter's :func:`repro.hw.core.step`.
"""

from __future__ import annotations

from typing import List

from ..isa import BRANCHES, Instruction

# Instruction kinds, used by the block builder and the simulator main loop.
STRAIGHT = 0
BRANCH = 1
JAL = 2
JALR = 3
EBREAK = 4


class Decoded:
    """One pre-decoded instruction: its kind, fixed cost and static pcs.

    Branch costs depend on the outcome, so a branch's ``cost`` is 0 and the
    simulator charges taken/not-taken per execution.
    """

    __slots__ = (
        "instr",
        "mnemonic",
        "kind",
        "cost",
        "rd",
        "imm",
        "pc",
        "taken_pc",
    )

    def __init__(self, instr: Instruction, index: int):
        self.instr = instr
        self.mnemonic = instr.mnemonic
        self.kind = STRAIGHT
        self.cost = 0
        self.rd = instr.rd
        self.imm = instr.imm
        self.pc = 4 * index
        self.taken_pc = 4 * index + instr.imm


def decode_meta(
    program: List[Instruction],
    cycle_model,
) -> List[Decoded]:
    """Pre-decode every instruction of ``program`` into a :class:`Decoded`.

    The result binds no :class:`~repro.hw.memory.Memory`, so the blocks and
    generated source built from it are shared across engines and memories.
    """
    decoded: List[Decoded] = []
    for index, instr in enumerate(program):
        d = Decoded(instr, index)
        m = instr.mnemonic
        if m in BRANCHES:
            d.kind = BRANCH
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
