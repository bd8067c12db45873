"""Low-level numerical primitives shared by layers.

Convolutions are implemented with im2col/col2im so the heavy lifting happens
inside a single matrix multiplication; this is the standard approach for
CPU-only frameworks and keeps 8x8 infrared inputs fast enough for training.
All functions operate on NCHW tensors (batch, channels, height, width).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _pair(value) -> Tuple[int, int]:
    """Normalize an int or 2-tuple into a (h, w) pair."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a 2-tuple, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_shape(
    in_h: int, in_w: int, kernel_size, stride=1, padding=0
) -> Tuple[int, int]:
    """Spatial output shape of a convolution / pooling window."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h = (in_h + 2 * ph - kh) // sh + 1
    out_w = (in_w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution produces empty output: input {in_h}x{in_w}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray, kernel_size, stride=1, padding=0
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, C * kh * kw)``.
    out_shape:
        ``(out_h, out_w)``.
    """
    n, c, h, w = x.shape
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))

    # Zero-padded channels-last copy of ``x``: its window view below reads
    # the (c, kh, kw) column entries of one output pixel from nearby memory,
    # so the one copy into ``cols`` is cheaper than from an NCHW buffer.
    padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    padded[:, ph : ph + h, pw : pw + w, :] = x.transpose(0, 2, 3, 1)

    # Strided sliding-window view: (N, out_h, out_w, C, kh, kw)
    s0, s1, s2, s3 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, out_h, out_w, c, kh, kw),
        strides=(s0, s1 * sh, s2 * sw, s3, s1, s2),
        writeable=False,
    )
    cols = windows.reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_size,
    stride=1,
    padding=0,
) -> np.ndarray:
    """Inverse of :func:`im2col`, accumulating overlapping patches."""
    n, c, h, w = input_shape
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))

    # Accumulate tap by tap, (i, j) in order, into a channels-last buffer:
    # each add then reads and writes whole channel rows.  The copy back to
    # NCHW is not optional: later reductions (BatchNorm's sums) add in
    # memory order, so the gradient must keep the layout it always had.
    acc = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            acc[:, i : i + out_h * sh : sh, j : j + out_w * sw : sw, :] += cols6[
                ..., i, j
            ]
    padded = acc.transpose(0, 3, 1, 2).copy()
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride=1,
    padding=0,
) -> Tuple[np.ndarray, dict]:
    """2D convolution forward pass.

    Parameters
    ----------
    x:
        ``(N, C_in, H, W)`` input.
    weight:
        ``(C_out, C_in, kh, kw)`` filters.
    bias:
        ``(C_out,)`` or ``None``.

    Returns
    -------
    out, cache:
        ``out`` has shape ``(N, C_out, out_h, out_w)``; ``cache`` holds the
        tensors needed by :func:`conv2d_backward`.
    """
    n = x.shape[0]
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"channel mismatch: input {x.shape[1]} vs weight {c_in}")
    cols, (out_h, out_w) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = cols @ w_mat.T
    if bias is not None:
        out = out + bias
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    cache = {
        "cols": cols,
        "x_shape": x.shape,
        "weight": weight,
        "stride": stride,
        "padding": padding,
        "has_bias": bias is not None,
    }
    return out, cache


def conv2d_backward(grad_out: np.ndarray, cache: dict):
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    when the forward pass had no bias.
    """
    cols = cache["cols"]
    weight = cache["weight"]
    c_out = weight.shape[0]
    n, _, out_h, out_w = grad_out.shape

    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c_out)
    grad_weight = (grad_mat.T @ cols).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=0) if cache["has_bias"] else None
    grad_cols = grad_mat @ weight.reshape(c_out, -1)
    grad_x = col2im(
        grad_cols,
        cache["x_shape"],
        weight.shape[2:],
        cache["stride"],
        cache["padding"],
    )
    return grad_x, grad_weight, grad_bias


def _window_taps(x: np.ndarray, kernel, stride, out_shape):
    """Yield ``(k, view)`` per pooling-window tap, ``k = i * kw + j``, where
    ``view[n, c, oi, oj] == x[n, c, oi * sh + i, oj * sw + j]``."""
    (kh, kw), (sh, sw), (out_h, out_w) = kernel, stride, out_shape
    for i in range(kh):
        for j in range(kw):
            yield i * kw + j, x[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw]


def _tap_index(argmax: np.ndarray) -> np.ndarray:
    """Flat indices of each window's argmax tap in a ``(kh*kw, *argmax.shape)``
    tap-major buffer."""
    size = argmax.size
    return argmax.ravel() * size + np.arange(size)


def maxpool2d_forward(x: np.ndarray, kernel_size, stride=None) -> Tuple[np.ndarray, dict]:
    """2D max pooling forward; ``stride`` defaults to ``kernel_size``.

    ``argmax`` (cached for the backward pass) follows ``np.argmax`` over each
    window's taps in row-major order: the first maximum wins a tie (``-0.0``
    ties ``0.0``) and the first NaN wins over any number.
    """
    if stride is None:
        stride = kernel_size
    n, c, h, w = x.shape
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), 0)

    # Tap-major copy of the windows, so every comparison below runs over
    # contiguous memory instead of one short argmax per window.
    taps = np.empty((kh * kw, n, c, out_h, out_w), dtype=x.dtype)
    for k, view in _window_taps(x, (kh, kw), (sh, sw), (out_h, out_w)):
        taps[k] = view
    argmax = np.zeros((n, c, out_h, out_w), dtype=np.intp)
    best = taps[0].copy()  # compares like the value at argmax (sign of zero aside)
    for k in range(1, kh * kw):
        take = ~(taps[k] <= best)  # greater, or a NaN ...
        take &= best == best  # ... unless a NaN already won
        argmax += take * (k - argmax)
        np.maximum(best, taps[k], out=best)
    # Gather the winners themselves, which keeps the sign of zero and NaN
    # payloads that ``best`` may have lost.
    out = taps.take(_tap_index(argmax)).reshape(argmax.shape)
    cache = {
        "argmax": argmax,
        "x_shape": x.shape,
        "kernel": (kh, kw),
        "stride": (sh, sw),
        "out_shape": (out_h, out_w),
    }
    return out, cache


def maxpool2d_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`maxpool2d_forward` (scatter to argmax).

    Where windows overlap, an input element sums the gradients of every
    window it won, in window order; the taps are added in descending ``k``,
    which visits those windows in ascending order.
    """
    kh, kw = cache["kernel"]
    argmax = cache["argmax"]
    # grad_taps[k] is grad_out where tap k won its window, +0.0 elsewhere;
    # adding +0.0 never changes a sum that starts from +0.0.
    grad_taps = np.zeros((kh * kw,) + argmax.shape, dtype=grad_out.dtype)
    grad_taps.put(_tap_index(argmax), grad_out)
    grad_x = np.zeros(cache["x_shape"], dtype=grad_out.dtype)
    taps = list(_window_taps(grad_x, (kh, kw), cache["stride"], cache["out_shape"]))
    for k, view in reversed(taps):
        view += grad_taps[k]
    return grad_x


def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    mask = x > 0
    return x * mask, mask


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_out * mask


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> Tuple[np.ndarray, dict]:
    """Fully-connected layer forward: ``y = x @ W.T + b``.

    ``weight`` has shape ``(out_features, in_features)``.
    """
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out, {"x": x, "weight": weight, "has_bias": bias is not None}


def linear_backward(grad_out: np.ndarray, cache: dict):
    x, weight = cache["x"], cache["weight"]
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0) if cache["has_bias"] else None
    grad_x = grad_out @ weight
    return grad_x, grad_weight, grad_bias


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
