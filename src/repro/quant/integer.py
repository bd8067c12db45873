"""True-integer inference ("golden model") derived from a QAT network.

After quantization-aware training, every layer's arithmetic is lowered to the
integer operations the MAUPITI firmware executes:

* weights are stored as signed INT4/INT8 values,
* biases as INT32 (already including the input zero-point correction),
* accumulation happens in INT32 (here in exact float64 GEMMs, see below),
* the requantization back to the next layer's activation grid is a
  fixed-point multiply-and-shift:  ``out = clamp(round_shift(acc * m, shift), 0, levels)``.

This module is the single source of truth for the integer arithmetic: the
deployment code generator emits instruction streams implementing exactly the
same operations, and the ISA-simulator results are checked bit-exactly
against :class:`IntegerNetwork`.

numpy has no BLAS for integer types, so :class:`IntegerNetwork` runs each
conv and linear accumulation as one float64 GEMM and converts the result to
int64; the bias, requantization, clamps, maxpool and logits stay integer.
This is exact: every operand is a small integer (a weight of at most 8 bits,
an activation that is a clamped requantized output or the input minus its
zero point), so every partial sum in any summation order is an integer
below ``sum(|w|) * max|x|`` — at most ``K * 127 * 255`` for ``K`` taps —
far below ``2**53``, where float64 stops representing every integer.  Each
layer checks that bound before its GEMM and refuses a layer that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from ..nn.functional import _pair, im2col
from ..nn.layers import Flatten, MaxPool2d
from ..nn.module import Sequential
from .qlayers import QuantConv2d, QuantLinear
from .quantize import QuantModel

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
#: integers up to this magnitude are exact in float64, and so is every sum of them
_EXACT_FLOAT = 2**53


def quantize_multiplier(real_multiplier: float, bits: int = 15) -> Tuple[int, int]:
    """Approximate a positive real multiplier as ``m * 2**-shift``.

    ``m`` fits in ``bits`` bits so that the INT32 accumulator times ``m``
    stays within 64-bit intermediate range (the hardware uses a MUL/MULH
    pair).  Returns ``(m, shift)``.
    """
    if real_multiplier <= 0:
        raise ValueError("requantization multiplier must be positive")
    shift = 0
    m = real_multiplier
    while m < 2 ** (bits - 1) and shift < 63:
        m *= 2.0
        shift += 1
    m_int = int(round(m))
    if m_int >= 2**bits:
        m_int //= 2
        shift -= 1
    return m_int, shift


def round_shift(value: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-up, ``floor(value / 2**shift +
    1/2)``; a non-positive ``shift`` shifts left.  Negative accumulator
    products reach it too (their ties round towards +inf, not away from
    zero); the requantization clamps them to 0 only afterwards."""
    value = np.asarray(value, dtype=np.int64)
    if shift <= 0:
        return value << (-shift)
    rounding = np.int64(1) << (shift - 1)
    return (value + rounding) >> shift


def _clamp(value: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``np.clip(value, lo, hi, out=value)`` without ``np.clip``'s ~5 µs of
    per-call Python overhead."""
    np.maximum(value, lo, out=value)
    return np.minimum(value, hi, out=value)


@dataclass
class IntegerLayer:
    """One integer conv/linear layer ready for deployment.

    Attributes
    ----------
    kind:
        ``"conv"`` or ``"linear"``.
    weight:
        Signed integer weights, shape ``(C_out, C_in, kh, kw)`` or
        ``(out_features, in_features)``.
    bias:
        INT32 bias per output channel (includes the zero-point correction of
        the layer input when the input is affine-quantized).
    weight_bits / act_bits:
        Storage precision of the weights and of the requantized output.
    multiplier / shift:
        Fixed-point requantization parameters.
    out_levels:
        Upper clamp bound of the requantized output (0 lower bound).
    requantize:
        ``False`` for the final classifier layer: its INT32 accumulator is the
        network output (argmax is taken directly on it).
    input_zero_point:
        Zero point of the layer's integer input (non-zero only for the first
        layer); used by the kernels to pad correctly.
    """

    kind: str
    weight: np.ndarray
    bias: np.ndarray
    weight_bits: int
    act_bits: int
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    multiplier: int = 1
    shift: int = 0
    out_levels: int = 127
    requantize: bool = True
    input_zero_point: int = 0
    weight_scale: float = 1.0
    input_scale: float = 1.0
    output_scale: float = 1.0

    def weight_storage_bytes(self) -> float:
        return self.weight.size * self.weight_bits / 8.0

    def bias_storage_bytes(self) -> float:
        return self.bias.size * 4.0

    def macs(self, in_h: int = 0, in_w: int = 0) -> int:
        if self.kind == "linear":
            return int(self.weight.shape[0] * self.weight.shape[1])
        c_out, c_in, kh, kw = self.weight.shape
        out_h = (in_h + 2 * self.padding[0] - kh) // self.stride[0] + 1
        out_w = (in_w + 2 * self.padding[1] - kw) // self.stride[1] + 1
        return int(out_h * out_w * c_out * c_in * kh * kw)


@dataclass
class PoolSpec:
    """Structural (non-parametric) op in the integer graph."""

    kind: str  # "maxpool" or "flatten"
    kernel: Tuple[int, int] = (2, 2)
    stride: Tuple[int, int] = (2, 2)


@dataclass
class IntegerNetwork:
    """A fully-integer network: ordered layers plus the input quantization."""

    input_scale: float
    input_zero_point: int
    input_bits: int
    input_shape: Tuple[int, int, int]
    graph: List[Union[IntegerLayer, PoolSpec]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        qmin = -(2 ** (self.input_bits - 1))
        qmax = 2 ** (self.input_bits - 1) - 1
        q = np.round(np.asarray(x, dtype=np.float64) / self.input_scale) + self.input_zero_point
        return np.clip(q, qmin, qmax).astype(np.int64)

    def forward_int(self, x_int: np.ndarray) -> np.ndarray:
        """Run integer inference on already-quantized input.

        ``x_int`` has shape ``(N, C, H, W)``; returns INT32 logits ``(N, classes)``.
        """
        act = np.asarray(x_int, dtype=np.int64)
        for node in self.graph:
            if isinstance(node, PoolSpec):
                act = self._pool(act, node)
            else:
                act = self._layer(act, node)
        return act

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_int(self.quantize_input(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x), axis=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------ #
    def _pool(self, act: np.ndarray, node: PoolSpec) -> np.ndarray:
        if node.kind == "flatten":
            return act.reshape(act.shape[0], -1)
        n, c, h, w = act.shape
        kh, kw = node.kernel
        sh, sw = node.stride
        out_h = (h - kh) // sh + 1
        out_w = (w - kw) // sw + 1
        out = None
        for i in range(kh):
            for j in range(kw):
                tap = act[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw]
                out = tap.copy() if out is None else np.maximum(out, tap, out=out)
        return out

    def _layer(self, act: np.ndarray, layer: IntegerLayer) -> np.ndarray:
        w_mat = layer.weight.reshape(layer.weight.shape[0], -1)
        w_float = w_mat.astype(np.float64)
        in_max = self._input_bound(layer)
        if np.abs(w_float).sum(axis=1).max(initial=0) * in_max >= _EXACT_FLOAT:
            raise ValueError(
                f"layer {self.graph.index(layer)} ({layer.kind}): a row sum of |w| "
                f"times the input bound {in_max} reaches 2**53, so its float64 "
                "accumulation would not be exact"
            )
        # Every GEMM operand is a small integer, so float64 sums them exactly.
        zp = layer.input_zero_point
        x = np.subtract(act, zp, dtype=np.float64)
        if layer.kind == "conv":
            if act.shape[1] != layer.weight.shape[1]:
                raise ValueError(
                    f"channel mismatch: {act.shape[1]} vs {layer.weight.shape[1]}"
                )
            x, (out_h, out_w) = im2col(
                x, layer.weight.shape[2:], layer.stride, layer.padding
            )
        acc = (x @ w_float.T).astype(np.int64)
        # The GEMM summed (x - zp) * w, padded taps included as 0, and ``bias``
        # already folds in -zp * sum(w): add zp * sum(w) back.
        acc += layer.bias + zp * w_mat.sum(axis=1) if zp else layer.bias
        if not layer.requantize:
            out = _clamp(acc, INT32_MIN, INT32_MAX)
        else:
            acc *= layer.multiplier
            out = _clamp(round_shift(acc, layer.shift), 0, layer.out_levels)
        if layer.kind == "conv":
            return out.reshape(act.shape[0], out_h, out_w, -1).transpose(0, 3, 1, 2)
        return out

    def _input_bound(self, layer: IntegerLayer) -> int:
        """Largest ``|x - zero point|`` that ``layer`` can receive here: the
        network input spans the signed ``input_bits`` grid, a requantized
        output ``[0, out_levels]`` and the classifier's output INT32."""
        lo = -(2 ** (self.input_bits - 1))
        hi = 2 ** (self.input_bits - 1) - 1
        for node in self.graph:
            if node is layer:
                zp = layer.input_zero_point
                return max(hi - zp, zp - lo)
            if isinstance(node, IntegerLayer):
                lo, hi = (0, node.out_levels) if node.requantize else (INT32_MIN, INT32_MAX)
        raise ValueError("layer is not part of this network")

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    def layers(self) -> List[IntegerLayer]:
        return [n for n in self.graph if isinstance(n, IntegerLayer)]

    def weights_bytes(self) -> float:
        return float(
            sum(l.weight_storage_bytes() + l.bias_storage_bytes() for l in self.layers())
        )

    def macs(self) -> int:
        total = 0
        h, w = self.input_shape[1], self.input_shape[2]
        for node in self.graph:
            if isinstance(node, PoolSpec):
                if node.kind == "maxpool":
                    h = (h - node.kernel[0]) // node.stride[0] + 1
                    w = (w - node.kernel[1]) // node.stride[1] + 1
            elif node.kind == "conv":
                total += node.macs(h, w)
                kh, kw = node.weight.shape[2], node.weight.shape[3]
                h = (h + 2 * node.padding[0] - kh) // node.stride[0] + 1
                w = (w + 2 * node.padding[1] - kw) // node.stride[1] + 1
            else:
                total += node.macs()
        return total


def convert_to_integer(qmodel: QuantModel) -> IntegerNetwork:
    """Lower a trained :class:`QuantModel` to an :class:`IntegerNetwork`."""
    if not qmodel.input_quantizer.calibrated:
        raise RuntimeError("the QuantModel's input quantizer is not calibrated")
    qmodel.eval()

    input_scale = qmodel.input_quantizer.scale
    input_zp = qmodel.input_quantizer.zero_point
    net = IntegerNetwork(
        input_scale=input_scale,
        input_zero_point=input_zp,
        input_bits=qmodel.input_quantizer.bits,
        input_shape=qmodel.input_shape,
    )

    current_scale = input_scale
    current_zp = input_zp
    prev_levels = 2 ** (qmodel.input_quantizer.bits - 1) - 1
    for layer in qmodel.network:
        if isinstance(layer, MaxPool2d):
            net.graph.append(
                PoolSpec("maxpool", _pair(layer.kernel_size), _pair(layer.stride))
            )
        elif isinstance(layer, Flatten):
            net.graph.append(PoolSpec("flatten"))
        elif isinstance(layer, (QuantConv2d, QuantLinear)):
            is_conv = isinstance(layer, QuantConv2d)
            base = layer.conv if is_conv else layer.linear
            w_int, w_scale = layer.weight_quantizer.integer_weights(base.weight.data)
            bias = base.bias.data if base.bias is not None else np.zeros(w_int.shape[0])
            bias_int = np.round(bias / (current_scale * w_scale)).astype(np.int64)
            # Fold the input zero point into the bias: every weight tap sees
            # (x_int - zp), so subtract zp * sum(weights) per output channel.
            if current_zp != 0:
                axes = tuple(range(1, w_int.ndim))
                bias_int = bias_int - current_zp * w_int.sum(axis=axes)

            requant = layer.output_quantizer is not None
            if requant:
                out_scale = layer.output_quantizer.scale
                # Choose the fixed-point multiplier width so that the INT32
                # accumulator times the multiplier still fits in 31 bits (the
                # firmware requantizes with a single 32-bit MUL).
                in_max = 2 ** (qmodel.input_quantizer.bits - 1) if current_zp != 0 else prev_levels
                acc_bound = int(
                    (np.abs(w_int).reshape(w_int.shape[0], -1).sum(axis=1) * in_max
                     + np.abs(bias_int)).max()
                )
                headroom = 30 - max(acc_bound, 1).bit_length()
                mult_bits = int(np.clip(headroom, 2, 15))
                m, shift = quantize_multiplier(
                    current_scale * w_scale / out_scale, bits=mult_bits
                )
                out_levels = layer.output_quantizer.levels
            else:
                out_scale = current_scale * w_scale
                m, shift, out_levels = 1, 0, INT32_MAX

            net.graph.append(
                IntegerLayer(
                    kind="conv" if is_conv else "linear",
                    weight=w_int,
                    bias=bias_int,
                    weight_bits=layer.weight_bits,
                    act_bits=layer.activation_bits or 32,
                    stride=base.stride if is_conv else (1, 1),
                    padding=base.padding if is_conv else (0, 0),
                    multiplier=m,
                    shift=shift,
                    out_levels=out_levels,
                    requantize=requant,
                    input_zero_point=current_zp,
                    weight_scale=w_scale,
                    input_scale=current_scale,
                    output_scale=out_scale,
                )
            )
            current_scale = out_scale
            current_zp = 0
            prev_levels = out_levels if requant else prev_levels
        else:
            raise TypeError(
                f"unsupported layer in quantized network: {type(layer).__name__}"
            )
    return net
