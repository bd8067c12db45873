"""Model compiler: IntegerNetwork → program image for the IBEX / MAUPITI core.

The compiler performs the three tasks the paper's deployment toolchain covers
(Sec. III-B3):

1. **Data layout** — activations live in HWC order with each per-pixel
   channel run zero-padded to a 32-bit word; weights are re-laid out as
   ``[oc][ky][kx][ic]`` padded runs (convolutions) or as padded row vectors
   matching the flattened activation layout (fully-connected layers); biases
   are INT32.
2. **Code generation** — one specialized kernel per layer (scalar kernels for
   the vanilla IBEX, SDOTP kernels for MAUPITI) plus a final argmax block and
   an ``ebreak``.
3. **Image accounting** — code size (with the RV32C heuristic), data size
   (weights + biases + activation buffers + outputs) and a check that both
   fit the 16 KB instruction / 16 KB data memories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from ..hw.isa import Instruction
from ..hw.memory import DMEM_BASE
from ..quant.integer import IntegerLayer, IntegerNetwork, PoolSpec
from .codegen import (
    ActBuffer,
    Assembler,
    ConvKernelConfig,
    FcKernelConfig,
    KernelHint,
    PoolKernelConfig,
    emit_argmax,
    emit_conv_layer,
    emit_fc_layer,
    emit_maxpool_layer,
)
from .packing import (
    pack_padded_run,
    pack_runs,
    padded_run_bytes,
    padded_run_length,
)


def _align4(value: int) -> int:
    return (value + 3) & ~3


@dataclass
class DataChunk:
    """A blob of initialized data placed at a fixed DMEM address."""

    name: str
    address: int
    payload: bytes

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclass
class LayerSummary:
    """Per-layer accounting used by reports and tests."""

    name: str
    kind: str
    bits: int
    out_bits: int
    macs: int
    weight_bytes: int
    bias_bytes: int
    activation_bytes: int


@dataclass
class CompiledModel:
    """A network compiled for one platform flavour (scalar or SDOTP)."""

    program: List[Instruction]
    code_size_bytes: int
    data_size_bytes: int
    weights_size_bytes: int
    activations_size_bytes: int
    data_chunks: List[DataChunk]
    input_buffer: ActBuffer
    logits_address: int
    result_address: int
    num_classes: int
    input_scale: float
    input_zero_point: int
    use_sdotp: bool
    layer_summaries: List[LayerSummary] = field(default_factory=list)
    # One annotation per structured loop emitted by codegen; the JIT
    # simulator's parity tests assert each one hits a vectorized handler.
    kernel_hints: List[KernelHint] = field(default_factory=list)

    def describe(self) -> str:
        flavour = "sdotp" if self.use_sdotp else "scalar"
        return (
            f"CompiledModel({flavour}, code={self.code_size_bytes}B, "
            f"data={self.data_size_bytes}B, layers={len(self.layer_summaries)})"
        )

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the program image.

        Covers every instruction field that affects execution plus the
        constant data chunks, so two independently compiled but identical
        models share a fingerprint (and therefore a JIT trace-cache slot),
        while any codegen or weight change produces a new one.
        """
        import hashlib

        h = hashlib.sha256()
        for i in self.program:
            h.update(
                f"{i.mnemonic}|{i.rd}|{i.rs1}|{i.rs2}|{i.imm};".encode()
            )
        for chunk in self.data_chunks:
            h.update(chunk.address.to_bytes(4, "little"))
            h.update(chunk.payload)
        return h.hexdigest()


class _Allocator:
    """Bump allocator over the data memory."""

    def __init__(self, base: int = DMEM_BASE):
        self.cursor = base
        self.base = base

    def alloc(self, size: int) -> int:
        address = self.cursor
        self.cursor = _align4(self.cursor + size)
        return address

    @property
    def used(self) -> int:
        return self.cursor - self.base


def _make_buffer(
    allocator: _Allocator,
    height: int,
    width: int,
    channels: int,
    bits: int,
    pad: int,
) -> ActBuffer:
    """Allocate an activation buffer with padded strides."""
    pixel_stride = padded_run_bytes(channels, bits)
    padded_h = height + 2 * pad
    padded_w = width + 2 * pad
    row_stride = padded_w * pixel_stride
    size = padded_h * row_stride
    address = allocator.alloc(size)
    return ActBuffer(
        address=address,
        height=padded_h,
        width=padded_w,
        channels=channels,
        bits=bits,
        pad=pad,
        pixel_stride=pixel_stride,
        row_stride=row_stride,
        size_bytes=size,
    )


def _conv_weight_image(layer: IntegerLayer) -> Tuple[bytes, int, int]:
    """Pack conv weights as [oc][ky][kx][padded ic runs].

    Returns ``(payload, tap_stride_bytes, oc_stride_bytes)``.
    """
    c_out, c_in, kh, kw = layer.weight.shape
    tap_stride = padded_run_bytes(c_in, layer.weight_bits)
    runs = layer.weight.transpose(0, 2, 3, 1).reshape(c_out * kh * kw, c_in)
    payload = pack_runs(runs, layer.weight_bits)
    return payload, tap_stride, kh * kw * tap_stride


def _fc_weight_image(
    layer: IntegerLayer, in_shape: Tuple[int, int, int], in_buf_bits: int
) -> Tuple[bytes, int, int]:
    """Re-lay FC weights to match the flattened padded HWC activation buffer.

    ``in_shape`` is the (C, H, W) shape of the producer activation; the
    original weight columns are in CHW (flatten) order.  Returns
    ``(payload, row_stride_bytes, padded_in_values)``.
    """
    c, h, w = in_shape
    out_features, in_features = layer.weight.shape
    if in_features != c * h * w:
        raise ValueError(
            f"FC layer expects {in_features} inputs, producer provides {c * h * w}"
        )
    pixel_values = padded_run_length(c, in_buf_bits)
    padded_in = h * w * pixel_values
    relaid = np.zeros((out_features, padded_in), dtype=np.int64)
    for ci in range(c):
        for yi in range(h):
            for xi in range(w):
                src = ci * h * w + yi * w + xi
                dst = yi * (w * pixel_values) + xi * pixel_values + ci
                relaid[:, dst] = layer.weight[:, src]
    payload = pack_runs(relaid, layer.weight_bits)
    row_stride = padded_run_bytes(padded_in, layer.weight_bits)
    return payload, row_stride, padded_in


def _bias_image(layer: IntegerLayer) -> bytes:
    out = bytearray()
    for value in layer.bias:
        out.extend(int(value).to_bytes(4, "little", signed=True))
    return bytes(out)


def compile_network(
    inet: IntegerNetwork,
    use_sdotp: bool,
    num_classes: int = 4,
    compressed_isa: bool = True,
    code_overhead_bytes: int = 256,
) -> CompiledModel:
    """Compile an :class:`IntegerNetwork` into a runnable program image.

    Parameters
    ----------
    use_sdotp:
        Emit SDOTP SIMD inner loops (MAUPITI) instead of scalar MAC loops
        (vanilla IBEX).
    code_overhead_bytes:
        Fixed firmware overhead (startup, sensor readout, I/O) added to the
        generated kernel code when reporting the code size.
    """
    allocator = _Allocator()
    asm = Assembler()
    chunks: List[DataChunk] = []
    summaries: List[LayerSummary] = []

    c0, h0, w0 = inet.input_shape
    nodes = list(inet.graph)

    # Consumer padding for the input buffer comes from the first conv layer.
    def consumer_pad(index: int) -> int:
        for node in nodes[index:]:
            if isinstance(node, IntegerLayer):
                return node.padding[0] if node.kind == "conv" else 0
            if isinstance(node, PoolSpec):
                return 0
        return 0

    input_buffer = _make_buffer(allocator, h0, w0, c0, inet.input_bits, consumer_pad(0))
    current_buf = input_buffer
    current_shape = (c0, h0, w0)
    current_bits = inet.input_bits

    logits_address = 0
    layer_index = 0
    for node_idx, node in enumerate(nodes):
        if isinstance(node, PoolSpec):
            if node.kind == "flatten":
                # Flatten is a view over the producer buffer; nothing to emit.
                continue
            c, h, w = current_shape
            out_h = (h - node.kernel[0]) // node.stride[0] + 1
            out_w = (w - node.kernel[1]) // node.stride[1] + 1
            out_buf = _make_buffer(
                allocator, out_h, out_w, c, current_bits, consumer_pad(node_idx + 1)
            )
            emit_maxpool_layer(
                asm,
                PoolKernelConfig(
                    name=f"pool{layer_index}",
                    in_buf=current_buf,
                    out_buf=out_buf,
                    channels=c,
                    bits=current_bits,
                    kernel=node.kernel,
                    stride=node.stride,
                    out_h=out_h,
                    out_w=out_w,
                ),
            )
            summaries.append(
                LayerSummary(
                    name=f"pool{layer_index}",
                    kind="maxpool",
                    bits=current_bits,
                    out_bits=current_bits,
                    macs=0,
                    weight_bytes=0,
                    bias_bytes=0,
                    activation_bytes=out_buf.size_bytes,
                )
            )
            current_buf = out_buf
            current_shape = (c, out_h, out_w)
            layer_index += 1
            continue

        layer: IntegerLayer = node
        out_bits = layer.act_bits if layer.requantize else 32
        if layer.kind == "conv":
            c, h, w = current_shape
            c_out, c_in, kh, kw = layer.weight.shape
            out_h = (h + 2 * layer.padding[0] - kh) // layer.stride[0] + 1
            out_w = (w + 2 * layer.padding[1] - kw) // layer.stride[1] + 1

            weight_payload, tap_stride, oc_stride = _conv_weight_image(layer)
            weights_addr = allocator.alloc(len(weight_payload))
            chunks.append(DataChunk(f"conv{layer_index}_w", weights_addr, weight_payload))
            bias_payload = _bias_image(layer)
            bias_addr = allocator.alloc(len(bias_payload))
            chunks.append(DataChunk(f"conv{layer_index}_b", bias_addr, bias_payload))

            out_buf = _make_buffer(
                allocator, out_h, out_w, c_out, out_bits, consumer_pad(node_idx + 1)
            )
            emit_conv_layer(
                asm,
                ConvKernelConfig(
                    name=f"conv{layer_index}",
                    in_buf=current_buf,
                    out_buf=out_buf,
                    weights_address=weights_addr,
                    bias_address=bias_addr,
                    c_in=c_in,
                    c_out=c_out,
                    kernel=(kh, kw),
                    stride=layer.stride,
                    out_h=out_h,
                    out_w=out_w,
                    bits=layer.weight_bits,
                    out_bits=out_bits,
                    multiplier=layer.multiplier,
                    shift=layer.shift,
                    out_levels=layer.out_levels,
                    requantize=layer.requantize,
                    use_sdotp=use_sdotp,
                    weight_oc_stride=oc_stride,
                    weight_tap_stride=tap_stride,
                ),
            )
            summaries.append(
                LayerSummary(
                    name=f"conv{layer_index}",
                    kind="conv",
                    bits=layer.weight_bits,
                    out_bits=out_bits,
                    macs=layer.macs(h, w),
                    weight_bytes=len(weight_payload),
                    bias_bytes=len(bias_payload),
                    activation_bytes=out_buf.size_bytes,
                )
            )
            current_buf = out_buf
            current_shape = (c_out, out_h, out_w)
            current_bits = out_bits
        else:  # linear
            weight_payload, row_stride, padded_in = _fc_weight_image(
                layer, current_shape, current_buf.bits
            )
            weights_addr = allocator.alloc(len(weight_payload))
            chunks.append(DataChunk(f"fc{layer_index}_w", weights_addr, weight_payload))
            bias_payload = _bias_image(layer)
            bias_addr = allocator.alloc(len(bias_payload))
            chunks.append(DataChunk(f"fc{layer_index}_b", bias_addr, bias_payload))

            c_out = layer.weight.shape[0]
            if layer.requantize:
                out_buf = _make_buffer(allocator, 1, 1, c_out, out_bits, 0)
                out_address = out_buf.address
                activation_bytes = out_buf.size_bytes
            else:
                out_address = allocator.alloc(c_out * 4)
                logits_address = out_address
                out_buf = None
                activation_bytes = c_out * 4

            emit_fc_layer(
                asm,
                FcKernelConfig(
                    name=f"fc{layer_index}",
                    in_address=current_buf.address,
                    in_values=padded_in,
                    out_buf_address=out_address,
                    weights_address=weights_addr,
                    bias_address=bias_addr,
                    c_out=c_out,
                    bits=layer.weight_bits,
                    out_bits=out_bits,
                    multiplier=layer.multiplier,
                    shift=layer.shift,
                    out_levels=layer.out_levels,
                    requantize=layer.requantize,
                    use_sdotp=use_sdotp,
                    weight_row_stride=row_stride,
                ),
            )
            summaries.append(
                LayerSummary(
                    name=f"fc{layer_index}",
                    kind="linear",
                    bits=layer.weight_bits,
                    out_bits=out_bits,
                    macs=layer.macs(),
                    weight_bytes=len(weight_payload),
                    bias_bytes=len(bias_payload),
                    activation_bytes=activation_bytes,
                )
            )
            if layer.requantize:
                current_buf = out_buf
                current_shape = (c_out, 1, 1)
                current_bits = out_bits
        layer_index += 1

    if logits_address == 0:
        raise ValueError("the network has no final (non-requantized) classifier layer")

    result_address = allocator.alloc(4)
    emit_argmax(asm, "argmax", logits_address, num_classes, result_address)
    asm.emit("ebreak")

    program = asm.assemble()
    code_size = asm.code_size_bytes(compressed=compressed_isa) + code_overhead_bytes
    weights_size = sum(chunk.size for chunk in chunks)
    activations_size = allocator.used - weights_size

    return CompiledModel(
        program=program,
        code_size_bytes=code_size,
        data_size_bytes=allocator.used,
        weights_size_bytes=weights_size,
        activations_size_bytes=activations_size,
        data_chunks=chunks,
        input_buffer=input_buffer,
        logits_address=logits_address,
        result_address=result_address,
        num_classes=num_classes,
        input_scale=inet.input_scale,
        input_zero_point=inet.input_zero_point,
        use_sdotp=use_sdotp,
        layer_summaries=summaries,
        kernel_hints=list(asm.kernel_hints),
    )
