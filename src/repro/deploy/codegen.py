"""RV32 code generation for quantized DNN layers.

The code generator emits *specialized* kernels: every layer of a compiled
model gets its own straight-line block of RV32IM(+SDOTP) assembly with the
layer's dimensions, strides and requantization constants baked in as
immediates.  This mirrors the paper's "minimal set of optimized kernels"
approach — there is no generic interpreter, no descriptor parsing, and no
function-call overhead, which is how the firmware fits a few kilobytes of
code.

Two kernel flavours exist for the multiply-accumulate inner loops:

* ``scalar`` — one (or, for packed INT4 data, two) multiply-accumulate per
  loop iteration using plain loads and MUL; this is what runs on the vanilla
  IBEX core.
* ``sdotp`` — the MAUPITI path: the inner loop consumes one 32-bit word of
  activations and one of weights per iteration with a single SDOTP8 (four
  8-bit MACs) or SDOTP4 (eight 4-bit MACs) instruction.

Both flavours use the same zero-padded data layout (see
:mod:`repro.deploy.packing`), so "leftover" elements that do not fill a SIMD
word are covered by zero padding rather than by scalar epilogues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..hw.isa import Instruction, reg


class AssemblerError(Exception):
    """Raised on unresolved labels or malformed emission."""


@dataclass(frozen=True)
class KernelHint:
    """Annotation marking an emitted loop as a known vectorizable kernel.

    The code generator records one hint per structured loop nest it emits
    (``kind`` in ``{"memset", "fc-chan", "conv-nest", "pool-nest"}``;
    ``label`` is the outermost loop's branch-target label, and the inner
    loops run inside that kernel).  The JIT simulator recognizes the loops
    structurally, so the hints carry no execution semantics — they exist
    so tests can prove that every loop codegen claims to emit is actually
    picked up by a vectorized handler of that kind
    (:meth:`repro.hw.sim.JitTemplate.vectorized_labels`).
    """

    label: str
    kind: str


class Assembler:
    """A tiny two-pass assembler over :class:`~repro.hw.isa.Instruction`.

    Instructions are emitted with symbolic branch/jump targets; ``assemble``
    resolves them into PC-relative immediates (4 bytes per instruction slot,
    matching how the simulator addresses the program).
    """

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []
        self.labels: Dict[str, int] = {}
        self.kernel_hints: List[KernelHint] = []
        self._pending_label: Optional[str] = None

    def hint_kernel(self, label: str, kind: str) -> None:
        """Record that the loop at ``label`` is a vectorizable kernel."""
        self.kernel_hints.append(KernelHint(label=label, kind=kind))

    # ------------------------------------------------------------------ #
    def label(self, name: str) -> None:
        if name in self.labels or name == self._pending_label:
            raise AssemblerError(f"duplicate label {name!r}")
        self._pending_label = name

    def emit(
        self,
        mnemonic: str,
        rd: str | int = 0,
        rs1: str | int = 0,
        rs2: str | int = 0,
        imm: int = 0,
        target: Optional[str] = None,
        comment: str = "",
    ) -> None:
        instr = Instruction(
            mnemonic,
            rd=reg(rd),
            rs1=reg(rs1),
            rs2=reg(rs2),
            imm=imm,
            target=target,
            comment=comment,
        )
        if self._pending_label is not None:
            instr.label = self._pending_label
            self.labels[self._pending_label] = len(self.instructions)
            self._pending_label = None
        self.instructions.append(instr)

    # Convenience pseudo-instructions ----------------------------------- #
    def li(self, rd: str | int, value: int, comment: str = "") -> None:
        """Load a 32-bit signed immediate (ADDI or LUI+ADDI)."""
        value = int(value)
        if -(1 << 31) > value or value >= (1 << 32):
            raise AssemblerError(f"immediate {value} does not fit in 32 bits")
        if value >= 1 << 31:
            value -= 1 << 32
        if -2048 <= value < 2048:
            self.emit("addi", rd=rd, rs1="zero", imm=value, comment=comment)
            return
        upper = (value + 0x800) & 0xFFFFF000
        if upper >= 1 << 31:
            upper -= 1 << 32
        lower = value - upper
        self.emit("lui", rd=rd, imm=upper, comment=comment)
        if lower:
            self.emit("addi", rd=rd, rs1=rd, imm=lower)

    def mv(self, rd: str | int, rs: str | int) -> None:
        self.emit("add", rd=rd, rs1=rs, rs2="zero")

    def addi_big(self, rd: str | int, rs: str | int, value: int) -> None:
        """Add a constant that may exceed the 12-bit ADDI range."""
        if -2048 <= value < 2048:
            if value or reg(rd) != reg(rs):
                self.emit("addi", rd=rd, rs1=rs, imm=value)
            return
        self.li("t6", value)
        self.emit("add", rd=rd, rs1=rs, rs2="t6")

    # ------------------------------------------------------------------ #
    def assemble(self) -> List[Instruction]:
        """Resolve symbolic targets and return the finished program."""
        if self._pending_label is not None:
            raise AssemblerError(f"label {self._pending_label!r} has no instruction")
        program: List[Instruction] = []
        for index, instr in enumerate(self.instructions):
            if instr.target is not None:
                if instr.target not in self.labels:
                    raise AssemblerError(f"undefined label {instr.target!r}")
                offset = (self.labels[instr.target] - index) * 4
                instr.imm = offset
            program.append(instr)
        return program

    def code_size_bytes(self, compressed: bool = True) -> int:
        """Code size, optionally applying the RV32C compression heuristic."""
        if not compressed:
            return 4 * len(self.instructions)
        return sum(i.size_bytes() for i in self.instructions)


# --------------------------------------------------------------------------- #
# Kernel configuration dataclasses
# --------------------------------------------------------------------------- #
@dataclass
class ActBuffer:
    """An activation buffer in data memory (HWC layout, padded strides)."""

    address: int
    height: int  # spatial height including the pad ring
    width: int
    channels: int
    bits: int
    pad: int  # pad ring width included in height/width
    pixel_stride: int  # bytes between consecutive pixels
    row_stride: int  # bytes between consecutive rows
    size_bytes: int

    def interior_origin(self) -> int:
        """Address of the first non-pad pixel."""
        return self.address + self.pad * self.row_stride + self.pad * self.pixel_stride


@dataclass
class ConvKernelConfig:
    """Everything the conv kernel generator needs for one layer."""

    name: str
    in_buf: ActBuffer
    out_buf: ActBuffer
    weights_address: int
    bias_address: int
    c_in: int
    c_out: int
    kernel: tuple
    stride: tuple
    out_h: int
    out_w: int
    bits: int  # weight AND input-activation precision (4 or 8)
    out_bits: int  # 4, 8, or 32 (no requantization, raw accumulators)
    multiplier: int = 1
    shift: int = 0
    out_levels: int = 0
    requantize: bool = True
    use_sdotp: bool = False
    weight_oc_stride: int = 0  # bytes between output-channel weight blocks
    weight_tap_stride: int = 0  # bytes per (ky,kx) padded input-channel run


@dataclass
class FcKernelConfig:
    """Fully-connected layer over a contiguous padded input vector."""

    name: str
    in_address: int
    in_values: int  # padded vector length in values
    out_buf_address: int
    weights_address: int
    bias_address: int
    c_out: int
    bits: int
    out_bits: int
    multiplier: int = 1
    shift: int = 0
    out_levels: int = 0
    requantize: bool = True
    use_sdotp: bool = False
    weight_row_stride: int = 0  # bytes per output-neuron weight run


@dataclass
class PoolKernelConfig:
    """2x2 max-pooling kernel configuration."""

    name: str
    in_buf: ActBuffer
    out_buf: ActBuffer
    channels: int
    bits: int
    kernel: tuple = (2, 2)
    stride: tuple = (2, 2)
    out_h: int = 0
    out_w: int = 0


# --------------------------------------------------------------------------- #
# Shared emission helpers
# --------------------------------------------------------------------------- #
def emit_memset(asm: Assembler, name: str, address: int, size_bytes: int) -> None:
    """Zero a word-aligned buffer (used to clear output pad rings)."""
    if size_bytes % 4:
        raise AssemblerError("memset size must be a word multiple")
    if size_bytes == 0:
        return
    asm.li("t1", address, comment=f"{name}: memset base")
    asm.li("t2", address + size_bytes)
    asm.hint_kernel(f"{name}_memset", "memset")
    asm.label(f"{name}_memset")
    asm.emit("sw", rs1="t1", rs2="zero", imm=0)
    asm.emit("addi", rd="t1", rs1="t1", imm=4)
    asm.emit("bne", rs1="t1", rs2="t2", target=f"{name}_memset")


def _emit_inner_product(
    asm: Assembler,
    name: str,
    bits: int,
    use_sdotp: bool,
    run_values: int,
    acc: str = "s7",
    act_ptr: str = "t1",
    weight_ptr: str = "t2",
) -> None:
    """Accumulate ``run_values`` products from two padded runs into ``acc``.

    ``act_ptr`` / ``weight_ptr`` are advanced past the run (including the
    padding) so callers can chain runs back to back.
    """
    if run_values == 0:
        return
    if use_sdotp:
        words = (run_values * bits + 31) // 32
        mnemonic = "sdotp8" if bits == 8 else "sdotp4"
        asm.li("t3", words)
        asm.label(f"{name}_simd")
        asm.emit("lw", rd="t4", rs1=act_ptr, imm=0)
        asm.emit("lw", rd="t5", rs1=weight_ptr, imm=0)
        asm.emit(mnemonic, rd=acc, rs1="t4", rs2="t5")
        asm.emit("addi", rd=act_ptr, rs1=act_ptr, imm=4)
        asm.emit("addi", rd=weight_ptr, rs1=weight_ptr, imm=4)
        asm.emit("addi", rd="t3", rs1="t3", imm=-1)
        asm.emit("bne", rs1="t3", rs2="zero", target=f"{name}_simd")
        return

    if bits == 8:
        asm.li("t3", run_values)
        asm.label(f"{name}_mac8")
        asm.emit("lb", rd="t4", rs1=act_ptr, imm=0)
        asm.emit("lb", rd="t5", rs1=weight_ptr, imm=0)
        asm.emit("mul", rd="t4", rs1="t4", rs2="t5")
        asm.emit("add", rd=acc, rs1=acc, rs2="t4")
        asm.emit("addi", rd=act_ptr, rs1=act_ptr, imm=1)
        asm.emit("addi", rd=weight_ptr, rs1=weight_ptr, imm=1)
        asm.emit("addi", rd="t3", rs1="t3", imm=-1)
        asm.emit("bne", rs1="t3", rs2="zero", target=f"{name}_mac8")
        # Skip the zero padding so the pointers land on the next run.
        pad = ((run_values + 3) // 4) * 4 - run_values
        if pad:
            asm.emit("addi", rd=act_ptr, rs1=act_ptr, imm=pad)
            asm.emit("addi", rd=weight_ptr, rs1=weight_ptr, imm=pad)
        return

    # Scalar INT4: activations and weights are packed two values per byte.
    # Activations are non-negative (PACT) so the low nibble is a plain mask;
    # weights are signed and need sign extension through shift pairs.
    pairs = (run_values + 1) // 2
    asm.li("t3", pairs)
    asm.label(f"{name}_mac4")
    asm.emit("lbu", rd="t4", rs1=act_ptr, imm=0)
    asm.emit("lbu", rd="t5", rs1=weight_ptr, imm=0)
    # Low nibble product.
    asm.emit("andi", rd="t6", rs1="t4", imm=0xF)
    asm.emit("slli", rd="t0", rs1="t5", imm=28)
    asm.emit("srai", rd="t0", rs1="t0", imm=28)
    asm.emit("mul", rd="t0", rs1="t0", rs2="t6")
    asm.emit("add", rd=acc, rs1=acc, rs2="t0")
    # High nibble product.
    asm.emit("srli", rd="t6", rs1="t4", imm=4)
    asm.emit("slli", rd="t0", rs1="t5", imm=24)
    asm.emit("srai", rd="t0", rs1="t0", imm=28)
    asm.emit("mul", rd="t0", rs1="t0", rs2="t6")
    asm.emit("add", rd=acc, rs1=acc, rs2="t0")
    asm.emit("addi", rd=act_ptr, rs1=act_ptr, imm=1)
    asm.emit("addi", rd=weight_ptr, rs1=weight_ptr, imm=1)
    asm.emit("addi", rd="t3", rs1="t3", imm=-1)
    asm.emit("bne", rs1="t3", rs2="zero", target=f"{name}_mac4")
    pad_bytes = ((pairs + 3) // 4) * 4 - pairs
    if pad_bytes:
        asm.emit("addi", rd=act_ptr, rs1=act_ptr, imm=pad_bytes)
        asm.emit("addi", rd=weight_ptr, rs1=weight_ptr, imm=pad_bytes)


class _RequantEmitter:
    """Emits the fixed-point requantization sequence shared by conv and FC."""

    def __init__(self, multiplier: int, shift: int, out_levels: int):
        self.multiplier = multiplier
        self.shift = shift
        self.out_levels = out_levels

    def emit_constants(self, asm: Assembler, comment: str = "") -> None:
        asm.li("s8", self.multiplier, comment=f"{comment} requant multiplier")
        asm.li("s9", 1 << (self.shift - 1) if self.shift > 0 else 0)
        asm.li("s10", self.out_levels)

    def emit(self, asm: Assembler, name: str, acc: str = "s7", result: str = "t4") -> None:
        asm.emit("mul", rd=result, rs1=acc, rs2="s8")
        asm.emit("add", rd=result, rs1=result, rs2="s9")
        if self.shift > 0:
            asm.emit("srai", rd=result, rs1=result, imm=self.shift)
        asm.emit("bge", rs1=result, rs2="zero", target=f"{name}_nonneg")
        asm.emit("add", rd=result, rs1="zero", rs2="zero")
        asm.label(f"{name}_nonneg")
        asm.emit("bge", rs1="s10", rs2=result, target=f"{name}_clamped")
        asm.mv(result, "s10")
        asm.label(f"{name}_clamped")


class _OutputWriter:
    """Stores requantized outputs, packing two nibbles per byte for INT4."""

    def __init__(self, out_bits: int):
        if out_bits not in (4, 8, 32):
            raise AssemblerError(f"unsupported output precision {out_bits}")
        self.out_bits = out_bits

    def emit_init(self, asm: Assembler) -> None:
        if self.out_bits == 4:
            asm.li("a6", 0)  # pending low nibble
            asm.li("a7", 0)  # parity flag

    def emit_store(self, asm: Assembler, name: str, value: str, out_ptr: str) -> None:
        if self.out_bits == 32:
            asm.emit("sw", rs1=out_ptr, rs2=value, imm=0)
            asm.emit("addi", rd=out_ptr, rs1=out_ptr, imm=4)
            return
        if self.out_bits == 8:
            asm.emit("sb", rs1=out_ptr, rs2=value, imm=0)
            asm.emit("addi", rd=out_ptr, rs1=out_ptr, imm=1)
            return
        # INT4 packing: even channel -> remember, odd channel -> store byte.
        asm.emit("bne", rs1="a7", rs2="zero", target=f"{name}_odd")
        asm.mv("a6", value)
        asm.li("a7", 1)
        asm.emit("jal", rd="zero", target=f"{name}_done")
        asm.label(f"{name}_odd")
        asm.emit("slli", rd="t5", rs1=value, imm=4)
        asm.emit("or", rd="t5", rs1="t5", rs2="a6")
        asm.emit("sb", rs1=out_ptr, rs2="t5", imm=0)
        asm.emit("addi", rd=out_ptr, rs1=out_ptr, imm=1)
        asm.li("a7", 0)
        asm.label(f"{name}_done")

    def emit_flush(self, asm: Assembler, name: str, out_ptr: str) -> None:
        """Store a trailing low nibble when the channel count is odd."""
        if self.out_bits != 4:
            return
        asm.emit("beq", rs1="a7", rs2="zero", target=f"{name}_noflush")
        asm.emit("sb", rs1=out_ptr, rs2="a6", imm=0)
        asm.emit("addi", rd=out_ptr, rs1=out_ptr, imm=1)
        asm.li("a7", 0)
        asm.label(f"{name}_noflush")

    def bytes_per_pixel(self, channels: int) -> int:
        if self.out_bits == 32:
            return channels * 4
        if self.out_bits == 8:
            return channels
        return (channels + 1) // 2


# --------------------------------------------------------------------------- #
# Layer kernels
# --------------------------------------------------------------------------- #
def emit_conv_layer(asm: Assembler, cfg: ConvKernelConfig) -> None:
    """Emit a specialized 2D convolution (+ requantization) kernel."""
    name = cfg.name
    kh, kw = cfg.kernel
    sh, sw = cfg.stride
    requant = _RequantEmitter(cfg.multiplier, cfg.shift, cfg.out_levels)
    writer = _OutputWriter(cfg.out_bits)

    if cfg.out_buf.pad > 0:
        emit_memset(asm, f"{name}_clear", cfg.out_buf.address, cfg.out_buf.size_bytes)

    if cfg.requantize:
        requant.emit_constants(asm, comment=name)

    out_origin = cfg.out_buf.interior_origin()
    written_per_pixel = writer.bytes_per_pixel(cfg.c_out)
    pixel_slack = cfg.out_buf.pixel_stride - written_per_pixel
    row_slack = cfg.out_buf.row_stride - cfg.out_w * cfg.out_buf.pixel_stride

    asm.li("s11", cfg.in_buf.address, comment=f"{name}: input row base")
    asm.li("s1", out_origin, comment=f"{name}: output pointer")
    asm.li("s4", cfg.out_h)

    asm.hint_kernel(f"{name}_oy", "conv-nest")
    asm.label(f"{name}_oy")
    asm.mv("s0", "s11")  # patch base for ox = 0
    asm.li("s5", cfg.out_w)

    asm.label(f"{name}_ox")
    asm.li("s2", cfg.weights_address)
    asm.li("s3", cfg.bias_address)
    asm.li("s6", cfg.c_out)
    writer.emit_init(asm)

    asm.label(f"{name}_oc")
    asm.emit("lw", rd="s7", rs1="s3", imm=0, comment=f"{name}: acc = bias")
    asm.emit("addi", rd="s3", rs1="s3", imm=4)
    asm.mv("a2", "s0")  # input row pointer for ky = 0
    asm.mv("a4", "s2")  # weight tap pointer
    asm.li("a0", kh)

    asm.label(f"{name}_ky")
    asm.mv("a3", "a2")  # pixel pointer for kx = 0
    asm.li("a1", kw)

    asm.label(f"{name}_kx")
    asm.mv("t1", "a3")
    asm.mv("t2", "a4")
    _emit_inner_product(asm, f"{name}_ip", cfg.bits, cfg.use_sdotp, cfg.c_in)
    asm.mv("a4", "t2")  # weight pointer already advanced past the padded run
    asm.addi_big("a3", "a3", cfg.in_buf.pixel_stride)
    asm.emit("addi", rd="a1", rs1="a1", imm=-1)
    asm.emit("bne", rs1="a1", rs2="zero", target=f"{name}_kx")

    asm.addi_big("a2", "a2", cfg.in_buf.row_stride)
    asm.emit("addi", rd="a0", rs1="a0", imm=-1)
    asm.emit("bne", rs1="a0", rs2="zero", target=f"{name}_ky")

    # Requantize and store this output channel.
    if cfg.requantize:
        requant.emit(asm, f"{name}_rq", acc="s7", result="t4")
        writer.emit_store(asm, f"{name}_st", "t4", "s1")
    else:
        writer.emit_store(asm, f"{name}_st", "s7", "s1")

    asm.addi_big("s2", "s2", cfg.weight_oc_stride)
    asm.emit("addi", rd="s6", rs1="s6", imm=-1)
    asm.emit("bne", rs1="s6", rs2="zero", target=f"{name}_oc")

    writer.emit_flush(asm, f"{name}_fl", "s1")
    if pixel_slack:
        asm.emit("addi", rd="s1", rs1="s1", imm=pixel_slack)
    asm.addi_big("s0", "s0", sw * cfg.in_buf.pixel_stride)
    asm.emit("addi", rd="s5", rs1="s5", imm=-1)
    asm.emit("bne", rs1="s5", rs2="zero", target=f"{name}_ox")

    if row_slack:
        asm.addi_big("s1", "s1", row_slack)
    asm.addi_big("s11", "s11", sh * cfg.in_buf.row_stride)
    asm.emit("addi", rd="s4", rs1="s4", imm=-1)
    asm.emit("bne", rs1="s4", rs2="zero", target=f"{name}_oy")


def emit_fc_layer(asm: Assembler, cfg: FcKernelConfig) -> None:
    """Emit a specialized fully-connected (+ requantization) kernel."""
    name = cfg.name
    requant = _RequantEmitter(cfg.multiplier, cfg.shift, cfg.out_levels)
    writer = _OutputWriter(cfg.out_bits)

    if cfg.requantize:
        requant.emit_constants(asm, comment=name)

    asm.li("s2", cfg.weights_address, comment=f"{name}: weight row pointer")
    asm.li("s3", cfg.bias_address)
    asm.li("s1", cfg.out_buf_address)
    asm.li("s6", cfg.c_out)
    writer.emit_init(asm)

    asm.hint_kernel(f"{name}_oc", "fc-chan")
    asm.label(f"{name}_oc")
    asm.emit("lw", rd="s7", rs1="s3", imm=0, comment=f"{name}: acc = bias")
    asm.emit("addi", rd="s3", rs1="s3", imm=4)
    asm.li("t1", cfg.in_address)
    asm.mv("t2", "s2")
    _emit_inner_product(asm, f"{name}_ip", cfg.bits, cfg.use_sdotp, cfg.in_values)
    if cfg.requantize:
        requant.emit(asm, f"{name}_rq", acc="s7", result="t4")
        writer.emit_store(asm, f"{name}_st", "t4", "s1")
    else:
        writer.emit_store(asm, f"{name}_st", "s7", "s1")
    asm.addi_big("s2", "s2", cfg.weight_row_stride)
    asm.emit("addi", rd="s6", rs1="s6", imm=-1)
    asm.emit("bne", rs1="s6", rs2="zero", target=f"{name}_oc")
    writer.emit_flush(asm, f"{name}_fl", "s1")


def emit_maxpool_layer(asm: Assembler, cfg: PoolKernelConfig) -> None:
    """Emit a specialized 2x2 stride-2 max pooling kernel (INT4 or INT8)."""
    name = cfg.name
    kh, kw = cfg.kernel
    sh, sw = cfg.stride
    if (kh, kw) != (2, 2) or (sh, sw) != (2, 2):
        raise AssemblerError("only 2x2 stride-2 max pooling is generated")

    if cfg.out_buf.pad > 0:
        emit_memset(asm, f"{name}_clear", cfg.out_buf.address, cfg.out_buf.size_bytes)

    out_origin = cfg.out_buf.interior_origin()
    bytes_per_pixel = cfg.channels if cfg.bits == 8 else (cfg.channels + 1) // 2
    pixel_slack = cfg.out_buf.pixel_stride - bytes_per_pixel
    row_slack = cfg.out_buf.row_stride - cfg.out_w * cfg.out_buf.pixel_stride

    asm.li("s11", cfg.in_buf.address, comment=f"{name}: input row base")
    asm.li("s1", out_origin)
    asm.li("s4", cfg.out_h)

    asm.hint_kernel(f"{name}_oy", "pool-nest")
    asm.label(f"{name}_oy")
    asm.mv("s0", "s11")
    asm.li("s5", cfg.out_w)

    asm.label(f"{name}_ox")
    # Byte loop across the pixel payload: max-pooling packed nibbles can be
    # done per byte because both nibbles are non-negative (PACT outputs), so
    # a nibble-wise max equals two independent nibble comparisons which we
    # unroll below for the INT4 case.
    asm.li("s6", bytes_per_pixel)
    asm.mv("a2", "s0")  # top-left pixel pointer (byte granular)
    asm.mv("a5", "s1")

    asm.label(f"{name}_ch")
    if cfg.bits == 8:
        asm.emit("lb", rd="t1", rs1="a2", imm=0)
        asm.emit("lb", rd="t2", rs1="a2", imm=cfg.in_buf.pixel_stride)
        asm.emit("lb", rd="t3", rs1="a2", imm=cfg.in_buf.row_stride)
        asm.emit("lb", rd="t4", rs1="a2", imm=cfg.in_buf.row_stride + cfg.in_buf.pixel_stride)
        for other in ("t2", "t3", "t4"):
            asm.emit("bge", rs1="t1", rs2=other, target=f"{name}_skip_{other}")
            asm.mv("t1", other)
            asm.label(f"{name}_skip_{other}")
        asm.emit("sb", rs1="a5", rs2="t1", imm=0)
    else:
        asm.emit("lbu", rd="t1", rs1="a2", imm=0)
        asm.emit("lbu", rd="t2", rs1="a2", imm=cfg.in_buf.pixel_stride)
        asm.emit("lbu", rd="t3", rs1="a2", imm=cfg.in_buf.row_stride)
        asm.emit("lbu", rd="t4", rs1="a2", imm=cfg.in_buf.row_stride + cfg.in_buf.pixel_stride)
        # Low nibble maximum into t5.
        asm.emit("andi", rd="t5", rs1="t1", imm=0xF)
        for other in ("t2", "t3", "t4"):
            asm.emit("andi", rd="t0", rs1=other, imm=0xF)
            asm.emit("bge", rs1="t5", rs2="t0", target=f"{name}_lo_{other}")
            asm.mv("t5", "t0")
            asm.label(f"{name}_lo_{other}")
        # High nibble maximum into t6.
        asm.emit("srli", rd="t6", rs1="t1", imm=4)
        for other in ("t2", "t3", "t4"):
            asm.emit("srli", rd="t0", rs1=other, imm=4)
            asm.emit("bge", rs1="t6", rs2="t0", target=f"{name}_hi_{other}")
            asm.mv("t6", "t0")
            asm.label(f"{name}_hi_{other}")
        asm.emit("slli", rd="t6", rs1="t6", imm=4)
        asm.emit("or", rd="t5", rs1="t5", rs2="t6")
        asm.emit("sb", rs1="a5", rs2="t5", imm=0)

    asm.emit("addi", rd="a2", rs1="a2", imm=1)
    asm.emit("addi", rd="a5", rs1="a5", imm=1)
    asm.emit("addi", rd="s6", rs1="s6", imm=-1)
    asm.emit("bne", rs1="s6", rs2="zero", target=f"{name}_ch")

    asm.addi_big("s1", "s1", cfg.out_buf.pixel_stride)
    asm.addi_big("s0", "s0", sw * cfg.in_buf.pixel_stride)
    asm.emit("addi", rd="s5", rs1="s5", imm=-1)
    asm.emit("bne", rs1="s5", rs2="zero", target=f"{name}_ox")

    if row_slack:
        asm.addi_big("s1", "s1", row_slack)
    asm.addi_big("s11", "s11", sh * cfg.in_buf.row_stride)
    asm.emit("addi", rd="s4", rs1="s4", imm=-1)
    asm.emit("bne", rs1="s4", rs2="zero", target=f"{name}_oy")


def emit_argmax(asm: Assembler, name: str, logits_address: int, count: int, result_address: int) -> None:
    """Emit an argmax over ``count`` INT32 logits, storing the winning index."""
    asm.li("t1", logits_address, comment=f"{name}: logits")
    asm.emit("lw", rd="t2", rs1="t1", imm=0)  # best value
    asm.li("t3", 0)  # best index
    asm.li("t4", 1)  # current index
    asm.li("t5", count)
    asm.label(f"{name}_loop")
    asm.emit("beq", rs1="t4", rs2="t5", target=f"{name}_store")
    asm.emit("slli", rd="t6", rs1="t4", imm=2)
    asm.emit("add", rd="t6", rs1="t6", rs2="t1")
    asm.emit("lw", rd="t0", rs1="t6", imm=0)
    asm.emit("bge", rs1="t2", rs2="t0", target=f"{name}_next")
    asm.mv("t2", "t0")
    asm.mv("t3", "t4")
    asm.label(f"{name}_next")
    asm.emit("addi", rd="t4", rs1="t4", imm=1)
    asm.emit("jal", rd="zero", target=f"{name}_loop")
    asm.label(f"{name}_store")
    asm.li("t6", result_address)
    asm.emit("sw", rs1="t6", rs2="t3", imm=0)
