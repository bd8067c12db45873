"""The integer golden model's float64 GEMMs return exactly the int64 result.

``IntegerNetwork`` runs every conv and linear accumulation as one float64
BLAS GEMM on small-integer operands, then converts the result to int64.  Its
contract is the same int64 logits as the straightforward integer kernels
kept below: a windowed ``int64`` matmul with zero-point padding for convs, an
``int64`` matmul for linears, and a running-max maxpool.  Random conv / fc
stacks, every INT4/INT8 scheme, nonzero input zero points, batch sizes 1-33
and a hand-built worst case are checked against them, and a layer whose
accumulator bound reaches 2**53 must be refused.

The reference kernels are frozen here on purpose; do not "simplify" them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.integer import (
    INT32_MAX,
    INT32_MIN,
    IntegerLayer,
    IntegerNetwork,
    PoolSpec,
    round_shift,
)

# --------------------------------------------------------------------- #
# Reference kernels (the straightforward int64 versions)
# --------------------------------------------------------------------- #


def ref_pool(act, node):
    if node.kind == "flatten":
        return act.reshape(act.shape[0], -1)
    n, c, h, w = act.shape
    kh, kw = node.kernel
    sh, sw = node.stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    out = np.full((n, c, out_h, out_w), np.iinfo(np.int64).min, dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            out = np.maximum(
                out, act[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw]
            )
    return out


def ref_conv_int(act, layer):
    n, c, h, w = act.shape
    c_out, c_in, kh, kw = layer.weight.shape
    ph, pw = layer.padding
    sh, sw = layer.stride
    if ph or pw:
        act = np.pad(
            act,
            ((0, 0), (0, 0), (ph, ph), (pw, pw)),
            mode="constant",
            constant_values=layer.input_zero_point,
        )
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    s0, s1, s2, s3 = act.strides
    windows = np.lib.stride_tricks.as_strided(
        act,
        shape=(n, c_in, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, -1)
    w_mat = layer.weight.reshape(c_out, -1).astype(np.int64)
    acc = cols @ w_mat.T + layer.bias[None, :]
    return acc.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)


def ref_layer(act, layer):
    if layer.kind == "conv":
        acc = ref_conv_int(act, layer)
    else:
        acc = act @ layer.weight.T.astype(np.int64) + layer.bias[None, :]
    if not layer.requantize:
        return np.clip(acc, INT32_MIN, INT32_MAX)
    out = round_shift(acc * layer.multiplier, layer.shift)
    return np.clip(out, 0, layer.out_levels)


def ref_forward(net, x):
    act = net.quantize_input(x)
    for node in net.graph:
        act = ref_pool(act, node) if isinstance(node, PoolSpec) else ref_layer(act, node)
    return act


def assert_matches_reference(net, x):
    out = net.forward(x)
    ref = ref_forward(net, x)
    assert out.dtype == ref.dtype == np.int64
    assert out.shape == ref.shape
    np.testing.assert_array_equal(out, ref)


# --------------------------------------------------------------------- #
# Random conv / fc stacks
# --------------------------------------------------------------------- #


def random_layer(kind, rng, shape, bits, zp=0, **conv):
    """Weights and output clamp at ``bits`` (MAUPITI gives a layer's weights
    and outputs one precision); the clamp is the lowered networks' signed
    top ``2**(bits-1) - 1`` or the unsigned grid's ``2**bits - 1``."""
    w_max = 2 ** (bits - 1) - 1
    return IntegerLayer(
        kind=kind,
        weight=rng.integers(-w_max, w_max + 1, size=shape),
        bias=rng.integers(-(2**16), 2**16, size=shape[0]),
        weight_bits=bits,
        act_bits=bits,
        multiplier=int(rng.integers(1, 2**15)),
        shift=int(rng.integers(0, 25)),
        out_levels=int(rng.choice([2 ** (bits - 1) - 1, 2**bits - 1])),
        input_zero_point=zp,
        **conv,
    )


@st.composite
def networks(draw):
    """A random conv / maxpool / fc stack with its input grid and a batch."""
    input_bits = draw(st.sampled_from([4, 8]))
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(2, 9)), draw(st.integers(2, 9))
    input_shape = (c, h, w)
    convs = []
    for _ in range(draw(st.integers(0, 2))):
        kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        padding = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        out_h = (h + 2 * padding[0] - kernel[0]) // stride[0] + 1
        out_w = (w + 2 * padding[1] - kernel[1]) // stride[1] + 1
        if out_h < 1 or out_w < 1:
            break
        pool = out_h >= 2 and out_w >= 2 and draw(st.booleans())
        c = draw(st.integers(1, 13))
        convs.append((c, kernel, stride, padding, pool))
        h, w = (out_h // 2, out_w // 2) if pool else (out_h, out_w)
    fcs = draw(st.lists(st.integers(1, 30), max_size=2)) + [draw(st.integers(1, 5))]
    n_layers = len(convs) + len(fcs)
    return dict(
        input_bits=input_bits,
        input_shape=input_shape,
        zp=draw(st.integers(-(2 ** (input_bits - 1)), 2 ** (input_bits - 1) - 1)),
        convs=convs,
        features=c * h * w,
        fcs=fcs,
        bits=draw(st.lists(st.sampled_from([4, 8]), min_size=n_layers, max_size=n_layers)),
        batch=draw(st.integers(1, 33)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def build_network(p, rng):
    bits = iter(p["bits"])
    zp = p["zp"]  # only the first layer sees the input zero point
    c_in = p["input_shape"][0]
    graph = []
    for c_out, kernel, stride, padding, pool in p["convs"]:
        graph.append(random_layer("conv", rng, (c_out, c_in) + kernel, next(bits), zp,
                                  stride=stride, padding=padding))
        if pool:
            graph.append(PoolSpec("maxpool"))
        c_in, zp = c_out, 0
    graph.append(PoolSpec("flatten"))
    features = p["features"]
    for out in p["fcs"]:
        graph.append(random_layer("linear", rng, (out, features), next(bits), zp))
        features, zp = out, 0
    graph[-1].requantize, graph[-1].out_levels = False, INT32_MAX
    scale = float(rng.uniform(0.01, 0.5))
    return IntegerNetwork(scale, p["zp"], p["input_bits"], p["input_shape"], graph)


@settings(deadline=None)
@given(networks())
def test_random_stacks_match_int64_reference(p):
    rng = np.random.default_rng(p["seed"])
    net = build_network(p, rng)
    # Wide enough that many pixels land on the input grid's clamps.
    x = rng.normal(0.0, 2.0, size=(p["batch"],) + p["input_shape"]) * net.input_scale * 2 ** (
        p["input_bits"] - 2
    )
    assert_matches_reference(net, x)


def test_lowered_network_matches_int64_reference(integer_network, prepared_data):
    assert integer_network.input_zero_point != 0
    assert_matches_reference(integer_network, prepared_data["test"].inputs[:33])


# --------------------------------------------------------------------- #
# Worst case and the exactness guard
# --------------------------------------------------------------------- #


def test_worst_case_weights_and_inputs_match_reference():
    """Every weight at its clamp, every input at the end of its range.

    The first conv reads x - zp = -255 on every real tap (zero point 127,
    inputs at -128) and the zero point on the padded ones; a huge bias
    saturates each requantized output at 255, so every later layer reads 255
    with weights of +-127 (8-bit) or +-7 (4-bit) over up to 4,096 taps.  The
    first two rows of every layer are all +max and all -max, so their sums
    reach the largest magnitude the layer allows.
    """
    rng = np.random.default_rng(0)

    def layer(kind, shape, bits, zp=0, bias=2**40, **conv):
        weight = rng.choice([-1, 1], size=shape)
        weight[0], weight[1] = 1, -1
        return IntegerLayer(
            kind=kind, weight=(2 ** (bits - 1) - 1) * weight,
            bias=np.full(shape[0], bias), weight_bits=bits, act_bits=8,
            multiplier=1, shift=0, out_levels=255, input_zero_point=zp, **conv,
        )

    graph = [
        layer("conv", (64, 3, 3, 3), 8, zp=127, padding=(1, 1)),
        layer("conv", (64, 64, 3, 3), 8, padding=(1, 1)),
        PoolSpec("flatten"),
        layer("linear", (40, 64 * 8 * 8), 8),
        layer("linear", (40, 40), 4),
        layer("linear", (4, 40), 8, bias=0),
    ]
    # A last layer that reads all-255 inputs with all-+127 or all--127 rows.
    graph[-1].weight = 127 * np.array([[1] * 40, [-1] * 40, [1, -1] * 20, [-1, 1] * 20])
    graph[-1].requantize, graph[-1].out_levels = False, INT32_MAX
    net = IntegerNetwork(1.0, 127, 8, (3, 8, 8), graph)
    x = np.full((2, 3, 8, 8), -1e6)  # quantizes to -128 everywhere
    assert_matches_reference(net, x)
    np.testing.assert_array_equal(net.forward(x)[0], [40 * 127 * 255, -40 * 127 * 255, 0, 0])


def _bound_network(weight, zp=0):
    """One 8-bit-input linear tap whose requantization passes the
    accumulator through unchanged (non-negative part, no clamp)."""
    layer = IntegerLayer(
        kind="linear", weight=np.array([[weight]]), bias=np.zeros(1, dtype=np.int64),
        weight_bits=8, act_bits=64, multiplier=1, shift=0, out_levels=2**62,
        input_zero_point=zp,
    )
    return IntegerNetwork(1.0, zp, 8, (1, 1, 1), [PoolSpec("flatten"), layer])


def test_layer_whose_bound_reaches_2_pow_53_raises():
    # 8-bit input with zero point 0: |x| <= 128, so 2**46 * 128 = 2**53.
    net = _bound_network(2**46)
    with pytest.raises(ValueError, match=r"layer 1 \(linear\).*2\*\*53"):
        net.forward(np.zeros((1, 1, 1, 1)))
    # One step below the bound still runs, and exactly.
    net = _bound_network(2**46 - 1)
    x = np.array([127.0, 1.0, 0.0]).reshape(3, 1, 1, 1)
    assert_matches_reference(net, x)
    np.testing.assert_array_equal(net.forward(x)[:, 0], [127 * (2**46 - 1), 2**46 - 1, 0])


def test_bound_counts_the_zero_point_shift():
    # zp = 127 moves the input -128 to -255: 2**45 * 255 < 2**53 < 2**45 * 256.
    _bound_network(2**45, zp=127).forward(np.zeros((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _bound_network(2**45 + 2**38, zp=127).forward(np.zeros((1, 1, 1, 1)))
