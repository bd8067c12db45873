"""RV32IM instruction set subset plus the MAUPITI SDOTP extension.

The deployment toolchain emits :class:`Instruction` objects; this module
defines their semantics-free representation, the register file names, and the
binary encoding/decoding used for code-size accounting and for round-trip
verification (the simulator executes the object form directly for speed, but
every instruction can be encoded to its 32-bit word and decoded back).

Custom instructions (Sec. III-B2)
---------------------------------
Two Sum-of-Dot-Product instructions are added on the *custom-0* opcode
(0x0B), both R-type, with ``rd`` used as source *and* destination (the third
read port added to the IBEX register file):

``SDOTP8 rd, rs1, rs2``
    ``rd += sum_{i=0..3} int8(rs1[i]) * int8(rs2[i])``
``SDOTP4 rd, rs1, rs2``
    ``rd += sum_{i=0..7} int4(rs1[i]) * int4(rs2[i])``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# --------------------------------------------------------------------------- #
# Registers
# --------------------------------------------------------------------------- #
ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)
REGISTER_INDEX: Dict[str, int] = {name: i for i, name in enumerate(ABI_NAMES)}
REGISTER_INDEX.update({f"x{i}": i for i in range(32)})


def reg(name_or_index) -> int:
    """Resolve a register given its ABI name, ``x``-name or index."""
    if isinstance(name_or_index, int):
        if not 0 <= name_or_index < 32:
            raise ValueError(f"register index out of range: {name_or_index}")
        return name_or_index
    try:
        return REGISTER_INDEX[name_or_index]
    except KeyError:
        raise ValueError(f"unknown register {name_or_index!r}") from None


# --------------------------------------------------------------------------- #
# Mnemonics and formats
# --------------------------------------------------------------------------- #
R_TYPE = {
    "add": (0b0110011, 0b000, 0b0000000),
    "sub": (0b0110011, 0b000, 0b0100000),
    "sll": (0b0110011, 0b001, 0b0000000),
    "slt": (0b0110011, 0b010, 0b0000000),
    "sltu": (0b0110011, 0b011, 0b0000000),
    "xor": (0b0110011, 0b100, 0b0000000),
    "srl": (0b0110011, 0b101, 0b0000000),
    "sra": (0b0110011, 0b101, 0b0100000),
    "or": (0b0110011, 0b110, 0b0000000),
    "and": (0b0110011, 0b111, 0b0000000),
    # M extension
    "mul": (0b0110011, 0b000, 0b0000001),
    "mulh": (0b0110011, 0b001, 0b0000001),
    "div": (0b0110011, 0b100, 0b0000001),
    "rem": (0b0110011, 0b110, 0b0000001),
    # MAUPITI custom-0 extension
    "sdotp8": (0b0001011, 0b000, 0b0000000),
    "sdotp4": (0b0001011, 0b001, 0b0000000),
}

I_TYPE = {
    "addi": (0b0010011, 0b000),
    "slti": (0b0010011, 0b010),
    "sltiu": (0b0010011, 0b011),
    "xori": (0b0010011, 0b100),
    "ori": (0b0010011, 0b110),
    "andi": (0b0010011, 0b111),
    "slli": (0b0010011, 0b001),
    "srli": (0b0010011, 0b101),
    "srai": (0b0010011, 0b101),
    "lb": (0b0000011, 0b000),
    "lh": (0b0000011, 0b001),
    "lw": (0b0000011, 0b010),
    "lbu": (0b0000011, 0b100),
    "lhu": (0b0000011, 0b101),
    "jalr": (0b1100111, 0b000),
    "ebreak": (0b1110011, 0b000),
}

S_TYPE = {
    "sb": (0b0100011, 0b000),
    "sh": (0b0100011, 0b001),
    "sw": (0b0100011, 0b010),
}

B_TYPE = {
    "beq": (0b1100011, 0b000),
    "bne": (0b1100011, 0b001),
    "blt": (0b1100011, 0b100),
    "bge": (0b1100011, 0b101),
    "bltu": (0b1100011, 0b110),
    "bgeu": (0b1100011, 0b111),
}

U_TYPE = {"lui": 0b0110111, "auipc": 0b0010111}
J_TYPE = {"jal": 0b1101111}

LOADS = {"lb", "lh", "lw", "lbu", "lhu"}
STORES = {"sb", "sh", "sw"}
BRANCHES = set(B_TYPE)
CUSTOM = {"sdotp8", "sdotp4"}
ALL_MNEMONICS = (
    set(R_TYPE) | set(I_TYPE) | set(S_TYPE) | set(B_TYPE) | set(U_TYPE) | set(J_TYPE)
)


_EDIT_STAMPS = itertools.count(1)
_edit_stamp = 0


def edit_stamp() -> int:
    """A token that changes whenever any :class:`Instruction` field is set.

    Programs are plain lists of mutable instructions.  The JIT trace cache
    remembers a program list with its elements and this stamp: an equal
    stamp later proves that no instruction anywhere was edited in place
    since.  Each assignment takes a unique token (``next`` on an
    ``itertools.count`` is atomic), so a stale write from a preempted
    thread can never bring back an earlier stamp.
    """
    return _edit_stamp


@dataclass
class Instruction:
    """A single (possibly labelled) instruction.

    ``imm`` holds the immediate for I/S/B/U/J formats.  For branches and
    jumps emitted by the code generator, ``target`` holds a symbolic label
    that the assembler resolves into a PC-relative immediate.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: Optional[str] = None
    label: Optional[str] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if self.mnemonic not in ALL_MNEMONICS:
            raise ValueError(f"unknown mnemonic {self.mnemonic!r}")

    def __setattr__(self, name: str, value) -> None:
        # Every field assignment, in place or in ``__init__``, takes a fresh
        # edit stamp: see :func:`edit_stamp`.
        global _edit_stamp
        object.__setattr__(self, name, value)
        _edit_stamp = next(_EDIT_STAMPS)

    @property
    def is_compressible(self) -> bool:
        """Rough RV32C compressibility heuristic used for code-size accounting.

        The real toolchain compiles with ``riscv32-imc``; roughly, common
        ALU/load/store/branch instructions with small immediates and popular
        registers have 16-bit encodings.  Custom SDOTP instructions and
        U/J-type instructions are never compressed.
        """
        if self.mnemonic in CUSTOM or self.mnemonic in U_TYPE or self.mnemonic in J_TYPE:
            return self.mnemonic in J_TYPE and -2048 <= self.imm < 2048
        if self.mnemonic in {"addi", "andi", "slli", "srli", "srai"}:
            return -32 <= self.imm < 32
        if self.mnemonic in {"lw", "sw"}:
            return 0 <= self.imm < 128 and self.imm % 4 == 0
        if self.mnemonic in {"add", "sub", "and", "or", "xor", "mul"}:
            return True
        if self.mnemonic in BRANCHES:
            return self.mnemonic in {"beq", "bne"}
        return False

    def size_bytes(self) -> int:
        return 2 if self.is_compressible else 4

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        prefix = f"{self.label}: " if self.label else ""
        if self.mnemonic in R_TYPE:
            body = f"{self.mnemonic} x{self.rd}, x{self.rs1}, x{self.rs2}"
        elif self.mnemonic in LOADS or self.mnemonic == "jalr":
            body = f"{self.mnemonic} x{self.rd}, {self.imm}(x{self.rs1})"
        elif self.mnemonic in STORES:
            body = f"{self.mnemonic} x{self.rs2}, {self.imm}(x{self.rs1})"
        elif self.mnemonic in BRANCHES:
            tgt = self.target if self.target else self.imm
            body = f"{self.mnemonic} x{self.rs1}, x{self.rs2}, {tgt}"
        elif self.mnemonic in U_TYPE:
            body = f"{self.mnemonic} x{self.rd}, {self.imm}"
        elif self.mnemonic in J_TYPE:
            tgt = self.target if self.target else self.imm
            body = f"{self.mnemonic} x{self.rd}, {tgt}"
        else:
            body = f"{self.mnemonic} x{self.rd}, x{self.rs1}, {self.imm}"
        return prefix + body


# --------------------------------------------------------------------------- #
# Encoding / decoding
# --------------------------------------------------------------------------- #
def _field(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    return value & mask


def _sign_extend(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def encode(instr: Instruction) -> int:
    """Encode an instruction into its 32-bit word."""
    m = instr.mnemonic
    if m in R_TYPE:
        opcode, funct3, funct7 = R_TYPE[m]
        return (
            (funct7 << 25)
            | (_field(instr.rs2, 5) << 20)
            | (_field(instr.rs1, 5) << 15)
            | (funct3 << 12)
            | (_field(instr.rd, 5) << 7)
            | opcode
        )
    if m in I_TYPE:
        opcode, funct3 = I_TYPE[m]
        imm = instr.imm
        if m == "srai":
            imm = (imm & 0x1F) | (0b0100000 << 5)
        elif m in {"slli", "srli"}:
            imm = imm & 0x1F
        elif m == "ebreak":
            imm = 1
        return (
            (_field(imm, 12) << 20)
            | (_field(instr.rs1, 5) << 15)
            | (funct3 << 12)
            | (_field(instr.rd, 5) << 7)
            | opcode
        )
    if m in S_TYPE:
        opcode, funct3 = S_TYPE[m]
        imm = instr.imm
        return (
            (_field(imm >> 5, 7) << 25)
            | (_field(instr.rs2, 5) << 20)
            | (_field(instr.rs1, 5) << 15)
            | (funct3 << 12)
            | (_field(imm, 5) << 7)
            | opcode
        )
    if m in B_TYPE:
        opcode, funct3 = B_TYPE[m]
        imm = instr.imm
        if imm % 2:
            raise ValueError("branch offsets must be even")
        return (
            (_field(imm >> 12, 1) << 31)
            | (_field(imm >> 5, 6) << 25)
            | (_field(instr.rs2, 5) << 20)
            | (_field(instr.rs1, 5) << 15)
            | (funct3 << 12)
            | (_field(imm >> 1, 4) << 8)
            | (_field(imm >> 11, 1) << 7)
            | opcode
        )
    if m in U_TYPE:
        opcode = U_TYPE[m]
        return (_field(instr.imm >> 12, 20) << 12) | (_field(instr.rd, 5) << 7) | opcode
    if m in J_TYPE:
        opcode = J_TYPE[m]
        imm = instr.imm
        if imm % 2:
            raise ValueError("jump offsets must be even")
        return (
            (_field(imm >> 20, 1) << 31)
            | (_field(imm >> 1, 10) << 21)
            | (_field(imm >> 11, 1) << 20)
            | (_field(imm >> 12, 8) << 12)
            | (_field(instr.rd, 5) << 7)
            | opcode
        )
    raise ValueError(f"cannot encode {m}")  # pragma: no cover


def decode(word: int) -> Instruction:
    """Decode a 32-bit word back into an :class:`Instruction`."""
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    for m, (op, f3, f7) in R_TYPE.items():
        if opcode == op and funct3 == f3 and funct7 == f7:
            return Instruction(m, rd=rd, rs1=rs1, rs2=rs2)
    for m, (op, f3) in S_TYPE.items():
        if opcode == op and funct3 == f3:
            imm = _sign_extend(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)
            return Instruction(m, rs1=rs1, rs2=rs2, imm=imm)
    for m, (op, f3) in B_TYPE.items():
        if opcode == op and funct3 == f3:
            imm = (
                (((word >> 31) & 0x1) << 12)
                | (((word >> 7) & 0x1) << 11)
                | (((word >> 25) & 0x3F) << 5)
                | (((word >> 8) & 0xF) << 1)
            )
            return Instruction(m, rs1=rs1, rs2=rs2, imm=_sign_extend(imm, 13))
    for m, op in U_TYPE.items():
        if opcode == op:
            return Instruction(m, rd=rd, imm=_sign_extend(word & 0xFFFFF000, 32))
    for m, op in J_TYPE.items():
        if opcode == op:
            imm = (
                (((word >> 31) & 0x1) << 20)
                | (((word >> 12) & 0xFF) << 12)
                | (((word >> 20) & 0x1) << 11)
                | (((word >> 21) & 0x3FF) << 1)
            )
            return Instruction(m, rd=rd, imm=_sign_extend(imm, 21))
    # I-type last: shift-immediates share funct3 with funct7 discriminators.
    for m, (op, f3) in I_TYPE.items():
        if opcode == op and funct3 == f3:
            if m in {"slli", "srli", "srai"}:
                shamt = (word >> 20) & 0x1F
                if f3 == 0b101:
                    m = "srai" if funct7 == 0b0100000 else "srli"
                return Instruction(m, rd=rd, rs1=rs1, imm=shamt)
            if m == "ebreak" and ((word >> 20) & 0xFFF) != 1:
                continue
            imm = _sign_extend(word >> 20, 12)
            return Instruction(m, rd=rd, rs1=rs1, imm=imm)
    raise ValueError(f"cannot decode word 0x{word:08x}")
