"""Neural-network layers built on :mod:`repro.nn.functional`.

Every layer caches what its backward pass needs during ``forward`` and frees
nothing explicitly — caches are overwritten on the next forward call, which is
how the training loop uses them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter


class Conv2d(Module):
    """2D convolution over NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size, stride, padding:
        Integers or ``(h, w)`` pairs.
    bias:
        Whether to learn an additive per-channel bias.
    rng:
        Generator used for weight initialization (kept explicit so the whole
        flow is reproducible from a single seed).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kh, kw), rng)
        )
        fan_in = in_channels * kh * kw
        self.bias = (
            Parameter(init.uniform_bias((out_channels,), fan_in, rng)) if bias else None
        )
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        out, self._cache = F.conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding
        )
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = F.conv2d_backward(grad_output, self._cache)
        self.weight.grad += grad_w
        if self.bias is not None and grad_b is not None:
            self.bias.grad += grad_b
        return grad_x

    def output_shape(self, in_h: int, in_w: int):
        return F.conv_output_shape(in_h, in_w, self.kernel_size, self.stride, self.padding)

    def macs(self, in_h: int, in_w: int) -> int:
        """Multiply-accumulate operations for one input frame."""
        out_h, out_w = self.output_shape(in_h, in_w)
        kh, kw = self.kernel_size
        return int(out_h * out_w * self.out_channels * self.in_channels * kh * kw)


class Linear(Module):
    """Fully-connected layer ``y = x @ W.T + b`` over ``(N, in_features)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = (
            Parameter(init.uniform_bias((out_features,), in_features, rng))
            if bias
            else None
        )
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        out, self._cache = F.linear_forward(x, self.weight.data, bias)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = F.linear_backward(grad_output, self._cache)
        self.weight.grad += grad_w
        if self.bias is not None and grad_b is not None:
            self.bias.grad += grad_b
        return grad_x

    def macs(self) -> int:
        return int(self.in_features * self.out_features)


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._mask = F.relu_forward(x)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return F.relu_backward(grad_output, self._mask)


class MaxPool2d(Module):
    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.maxpool2d_forward(x, self.kernel_size, self.stride)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return F.maxpool2d_backward(grad_output, self._cache)


class Flatten(Module):
    """Flatten all dimensions but the batch one."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._shape)


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expects (N, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            x_hat = x - mean[None, :, None, None]
            # What ``x.var(axis=(0, 2, 3))`` computes, sharing the centring.
            var = (x_hat * x_hat).sum(axis=(0, 2, 3)) / (x.size // x.shape[1])
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            var = self.running_var
            x_hat = x - self.running_mean[None, :, None, None]

        # In place where possible: fresh activation-sized temporaries cost
        # more than the arithmetic on them.
        x_hat /= np.sqrt(var + self.eps)[None, :, None, None]
        out = self.gamma.data[None, :, None, None] * x_hat
        out += self.beta.data[None, :, None, None]
        self._cache = {"x_hat": x_hat, "var": var}
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat = self._cache["x_hat"]
        var = self._cache["var"]
        n, _, h, w = grad_output.shape
        m = n * h * w

        self.gamma.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_output.sum(axis=(0, 2, 3))

        gamma = self.gamma.data[None, :, None, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)[None, :, None, None]
        grad_xhat = grad_output * gamma

        if not self.training:
            return grad_xhat * inv_std

        sum_grad = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_xhat = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_x = (inv_std / m) * (m * grad_xhat - sum_grad - x_hat * sum_grad_xhat)
        return grad_x

    def fold_into(self, weight: np.ndarray, bias: Optional[np.ndarray]):
        """Return ``(folded_weight, folded_bias)`` merging this BN into the
        preceding convolution/linear layer (inference-time BN folding).

        ``weight`` has the output channel on axis 0.
        """
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        folded_w = weight * scale.reshape((-1,) + (1,) * (weight.ndim - 1))
        base_bias = bias if bias is not None else np.zeros(weight.shape[0])
        folded_b = (base_bias - self.running_mean) * scale + self.beta.data
        return folded_w, folded_b


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
