"""The training kernels return exactly what their straightforward versions do.

``im2col``, ``col2im``, ``maxpool2d_forward``/``_backward`` and
``BatchNorm2d.forward`` are written for speed (channels-last accumulation,
tap-major pooling, shared BatchNorm centring).  Their contract is the same
bytes *and* the same memory layout (strides) as the reference versions kept
below: numpy reduces in memory order, so a layout change alone reaches the
BatchNorm sums and, through them, every trained weight.

The reference kernels are frozen here on purpose; do not "simplify" them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import build_seed_cnn
from repro.nas import PITModel, SearchConfig
from repro.nn import ArrayDataset, TrainConfig, train_model
from repro.nn import functional as F
from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, ReLU
from repro.nn.module import Sequential
from repro.quant import PrecisionScheme, quantize_model

# --------------------------------------------------------------------- #
# Reference kernels (the straightforward versions)
# --------------------------------------------------------------------- #


def ref_im2col(x, kernel_size, stride=1, padding=0):
    n, c, h, w = x.shape
    kh, kw = F._pair(kernel_size)
    sh, sw = F._pair(stride)
    ph, pw = F._pair(padding)
    out_h, out_w = F.conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def ref_col2im(cols, input_shape, kernel_size, stride=1, padding=0):
    n, c, h, w = input_shape
    kh, kw = F._pair(kernel_size)
    sh, sw = F._pair(stride)
    ph, pw = F._pair(padding)
    out_h, out_w = F.conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw] += cols6[
                :, :, :, :, i, j
            ]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def ref_maxpool2d_forward(x, kernel_size, stride=None):
    if stride is None:
        stride = kernel_size
    n, c, h, w = x.shape
    kh, kw = F._pair(kernel_size)
    sh, sw = F._pair(stride)
    out_h, out_w = F.conv_output_shape(h, w, (kh, kw), (sh, sw), 0)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kh * kw)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    cache = {
        "argmax": argmax,
        "x_shape": x.shape,
        "kernel": (kh, kw),
        "stride": (sh, sw),
        "out_shape": (out_h, out_w),
    }
    return out, cache


def ref_maxpool2d_backward(grad_out, cache):
    n, c, h, w = cache["x_shape"]
    kh, kw = cache["kernel"]
    sh, sw = cache["stride"]
    out_h, out_w = cache["out_shape"]
    argmax = cache["argmax"]
    grad_x = np.zeros((n, c, h, w), dtype=grad_out.dtype)
    ki = argmax // kw
    kj = argmax % kw
    oi = np.arange(out_h)[None, None, :, None]
    oj = np.arange(out_w)[None, None, None, :]
    rows = oi * sh + ki
    cols = oj * sw + kj
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(grad_x, (ni, ci, rows, cols), grad_out)
    return grad_x


def ref_batchnorm_forward(self, x):
    if x.ndim != 4 or x.shape[1] != self.num_features:
        raise ValueError(
            f"BatchNorm2d expects (N, {self.num_features}, H, W), got {x.shape}"
        )
    if self.training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
    else:
        mean = self.running_mean
        var = self.running_var
    m = mean[None, :, None, None]
    v = var[None, :, None, None]
    x_hat = (x - m) / np.sqrt(v + self.eps)
    out = self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]
    self._cache = {"x_hat": x_hat, "var": var, "x": x, "mean": mean}
    return out


REFERENCE_KERNELS = {
    "im2col": ref_im2col,
    "col2im": ref_col2im,
    "maxpool2d_forward": ref_maxpool2d_forward,
    "maxpool2d_backward": ref_maxpool2d_backward,
}

# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

# A coarse grid: ties are common (pooling), and sums of these values round
# differently in different orders (accumulation order is visible).
GRID = np.array([-0.7, -0.3, -0.1, -0.0, 0.0, 0.1, 0.2, 0.3, 1.1, 1e16])


def assert_same(actual, expected):
    """Equal dtype, shape, strides and bytes (NaN payloads and -0.0 too)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


def make_values(seed, shape, with_nan):
    rng = np.random.default_rng(seed)
    values = rng.choice(GRID, size=shape)
    if with_nan:
        values[rng.random(shape) < 0.05] = np.nan
    return values


def layout(values, channels_last):
    """``values`` as an NCHW array, stored C-contiguous or channels-last
    (the strided view ``conv2d_forward`` returns)."""
    if not channels_last:
        return np.ascontiguousarray(values)
    return np.ascontiguousarray(values.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@st.composite
def windowed(draw, padded):
    """A batch geometry plus a kernel that fits it."""
    n = draw(st.integers(1, 5))
    c = draw(st.integers(1, 6))
    h = draw(st.integers(2, 10))
    w = draw(st.integers(2, 10))
    p = (draw(st.integers(0, 2)), draw(st.integers(0, 2))) if padded else (0, 0)
    kh = draw(st.integers(1, min(4, h + 2 * p[0])))
    kw = draw(st.integers(1, min(4, w + 2 * p[1])))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return (n, c, h, w), (kh, kw), stride, p


inputs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "with_nan": st.booleans(),
        "channels_last": st.booleans(),
    }
)

# --------------------------------------------------------------------- #
# Kernel-level identity
# --------------------------------------------------------------------- #


class TestKernelsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(geometry=windowed(padded=True), draw_in=inputs)
    def test_im2col(self, geometry, draw_in):
        shape, kernel, stride, padding = geometry
        x = layout(make_values(draw_in["seed"], shape, draw_in["with_nan"]),
                   draw_in["channels_last"])
        cols, out_shape = F.im2col(x, kernel, stride, padding)
        ref_cols, ref_shape = ref_im2col(x, kernel, stride, padding)
        assert out_shape == ref_shape
        assert_same(cols, ref_cols)

    @settings(max_examples=150, deadline=None)
    @given(geometry=windowed(padded=True), draw_in=inputs)
    def test_col2im(self, geometry, draw_in):
        shape, kernel, stride, padding = geometry
        n, c, h, w = shape
        out_h, out_w = F.conv_output_shape(h, w, kernel, stride, padding)
        cols = make_values(
            draw_in["seed"], (n * out_h * out_w, c * kernel[0] * kernel[1]),
            draw_in["with_nan"],
        )
        assert_same(
            F.col2im(cols, shape, kernel, stride, padding),
            ref_col2im(cols, shape, kernel, stride, padding),
        )

    @settings(max_examples=200, deadline=None)
    @given(geometry=windowed(padded=False), draw_in=inputs, grad_seed=st.integers(0, 2**32 - 1))
    def test_maxpool(self, geometry, draw_in, grad_seed):
        shape, kernel, stride, _ = geometry
        x = layout(make_values(draw_in["seed"], shape, draw_in["with_nan"]),
                   draw_in["channels_last"])
        out, cache = F.maxpool2d_forward(x, kernel, stride)
        ref_out, ref_cache = ref_maxpool2d_forward(x, kernel, stride)
        assert_same(out, ref_out)
        assert_same(cache["argmax"], ref_cache["argmax"])

        grad = layout(make_values(grad_seed, out.shape, draw_in["with_nan"]),
                      not draw_in["channels_last"])
        assert_same(
            F.maxpool2d_backward(grad, cache), ref_maxpool2d_backward(grad, ref_cache)
        )

    def test_maxpool_backward_adds_overlapping_windows_in_window_order(self):
        # The centre of a 5x5 plane wins all nine 3x3 stride-1 windows; the
        # sum of their gradients depends on the order they are added in.
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        grad = np.array([0.1, 0.2, 0.3, 1e16, 0.7, -0.3, 0.1, 1.1, -1e16]).reshape(1, 1, 3, 3)
        out, cache = F.maxpool2d_forward(x, 3, 1)
        ref_out, ref_cache = ref_maxpool2d_forward(x, 3, 1)
        assert_same(cache["argmax"], ref_cache["argmax"])
        assert_same(
            F.maxpool2d_backward(grad, cache), ref_maxpool2d_backward(grad, ref_cache)
        )

    def test_maxpool_ties_signed_zero_and_nan_follow_argmax(self):
        nan = np.nan
        windows = [
            [-0.0, 0.0, 0.0, -0.0],  # all tie: the first one wins, sign kept
            [0.1, nan, nan, 0.3],  # the first NaN wins
            [nan, 0.2, 0.3, nan],
            [0.2, 0.3, 0.3, 0.1],  # the first maximum wins
        ]
        x = np.array(windows).reshape(1, 4, 2, 2)
        out, cache = F.maxpool2d_forward(x, 2)
        ref_out, ref_cache = ref_maxpool2d_forward(x, 2)
        assert cache["argmax"].ravel().tolist() == [0, 1, 0, 1]
        assert_same(out, ref_out)
        assert np.signbit(out.ravel()[0])

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 10), st.integers(1, 10)),
        draw_in=inputs,
        gaussian=st.booleans(),
        training=st.booleans(),
    )
    def test_batchnorm_forward(self, shape, draw_in, gaussian, training):
        if gaussian:
            values = np.random.default_rng(draw_in["seed"]).standard_normal(shape) * 3 + 1
        else:
            values = make_values(draw_in["seed"], shape, draw_in["with_nan"])
        x = layout(values, draw_in["channels_last"])
        layers = []
        for _ in range(2):
            bn = BatchNorm2d(shape[1])
            rng = np.random.default_rng(draw_in["seed"] + 1)
            bn.gamma.data = rng.standard_normal(shape[1])
            bn.beta.data = rng.standard_normal(shape[1])
            bn.running_mean = rng.standard_normal(shape[1])
            bn.running_var = rng.random(shape[1]) + 0.5
            bn.train(training)
            layers.append(bn)
        new, ref = layers
        with np.errstate(all="ignore"):
            out = new.forward(x)
            ref_out = ref_batchnorm_forward(ref, x)
        assert_same(out, ref_out)
        for key in ("x_hat", "var"):
            assert_same(new._cache[key], ref._cache[key])
        assert_same(new.running_mean, ref.running_mean)
        assert_same(new.running_var, ref.running_var)

    def test_batchnorm_cache_holds_only_what_backward_reads(self):
        bn = BatchNorm2d(3)
        bn.forward(np.random.default_rng(0).standard_normal((2, 3, 4, 4)))
        assert set(bn._cache) == {"x_hat", "var"}


# --------------------------------------------------------------------- #
# Whole-training identity
# --------------------------------------------------------------------- #


def _dataset(seed=0, samples=192):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.standard_normal((samples, 1, 8, 8)), rng.integers(0, 4, samples))


def _seed_cnn():
    return build_seed_cnn(np.random.default_rng(1), conv_channels=(5, 6), hidden_features=8)


def _no_pool_cnn():
    # col2im's gradient reaches a BatchNorm reduction directly (no pooling).
    rng = np.random.default_rng(2)
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        Conv2d(4, 5, 3, padding=1, rng=rng),
        BatchNorm2d(5),
        ReLU(),
        Flatten(),
        Linear(5 * 8 * 8, 4, rng=rng),
    )


def _train_float(model, epochs=2, **kwargs):
    data = _dataset()
    history = train_model(
        model, data, config=TrainConfig(epochs=epochs, batch_size=64),
        rng=np.random.default_rng(3), **kwargs,
    )
    return model, history


def _train_pit():
    pit = PITModel(_seed_cnn())
    regularizer = SearchConfig().cost_model().regularizer(1e-4)
    return _train_float(pit, extra_loss=regularizer)


def _train_qat():
    float_model, _ = _train_float(_seed_cnn(), epochs=1)
    data = _dataset(seed=4)
    qmodel = quantize_model(
        float_model, PrecisionScheme((8, 4, 4, 8)), calibration_data=data.inputs[:64]
    )
    history = train_model(
        qmodel, data, config=TrainConfig(epochs=1, batch_size=64),
        rng=np.random.default_rng(5),
    )
    return qmodel, history


def _trained_state(model, history):
    state = {name: value.tobytes() for name, value in model.state_dict().items()}
    for name, module in model.named_modules():
        if isinstance(module, BatchNorm2d):
            state[f"{name}.running_mean"] = module.running_mean.tobytes()
            state[f"{name}.running_var"] = module.running_var.tobytes()
    return history.train_loss, state


TRAINED = {
    "seed-cnn": lambda: _train_float(_seed_cnn()),
    "conv-bn-conv-no-pool": lambda: _train_float(_no_pool_cnn()),
    "pit-seed-cnn": _train_pit,
    "qat-8-4-4-8": _train_qat,
}


@pytest.mark.parametrize("name", sorted(TRAINED))
def test_training_is_bit_identical_to_reference_kernels(name, monkeypatch):
    losses, state = _trained_state(*TRAINED[name]())

    with monkeypatch.context() as patch:
        for attr, kernel in REFERENCE_KERNELS.items():
            patch.setattr(F, attr, kernel)
        patch.setattr(BatchNorm2d, "forward", ref_batchnorm_forward)
        ref_losses, ref_state = _trained_state(*TRAINED[name]())

    assert losses == ref_losses
    assert state.keys() == ref_state.keys()
    assert [k for k in state if state[k] != ref_state[k]] == []
