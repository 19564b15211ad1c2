"""Neural-network layers with numpy forward/backward passes.

The building blocks for the CNN IDS (and the autoencoder): Conv1D with
im2col vectorisation, max pooling, dense layers, ReLU, dropout, a fused
softmax/cross-entropy head, and the Adam optimiser.  Backprop is exact
(verified by numeric gradient checks in the test suite).

Training is kept cheap without changing what is computed: Conv1D builds
its im2col matrix from a ``sliding_window_view`` and scatters the input
gradient back with k shifted slice adds (in the summation order of
``np.add.at``); MaxPool1D routes ties to the first maximum with a
left-to-right slot scan; Adam updates its moments and the parameters in
place; and the first layer of a :class:`~repro.ml.cnn.Sequential` skips
its unused input gradient.  Only summation order changes: Conv1D's
weight gradient is one GEMM over the batch, and MaxPool1D hands back
position-major gradients like Conv1D's activations.  Training losses
move by about 1e-17; verdicts do not.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """Base layer: ``forward`` caches what ``backward`` needs.

    Underscore-prefixed attributes are transient forward caches, and
    gradient buffers (``dW``/``db``) are re-derivable; both are excluded
    from pickling so saved models contain weights only.
    """

    _TRANSIENT = ("dW", "db")

    def __getstate__(self) -> dict:
        return {
            k: v
            for k, v in self.__dict__.items()
            if not k.startswith("_") and k not in self._TRANSIENT
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "W" in state:
            self.dW = np.zeros_like(state["W"])
        if "b" in state:
            self.db = np.zeros_like(state["b"])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Fill ``grads()`` and return the input gradient.

        With ``input_grad=False`` (the first layer of a network, whose
        input gradient nothing consumes) layers may skip computing it
        and return None.
        """
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        """Trainable arrays (shared references, updated in place)."""
        return []

    def grads(self) -> list[np.ndarray]:
        """Gradients aligned with :meth:`params`."""
        return []


class Dense(Layer):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(2.0 / in_features)  # He init (ReLU nets)
        self.W = rng.normal(0.0, scale, size=(in_features, out_features))
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        assert self._x is not None
        self.dW[...] = self._x.T @ grad
        self.db[...] = grad.sum(axis=0)
        return grad @ self.W.T if input_grad else None

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]


class Conv1D(Layer):
    """1-D convolution over (batch, channels, length), stride 1.

    ``padding="same"`` keeps the length; ``"valid"`` shrinks it by
    ``kernel_size - 1``.  Implemented with im2col so the convolution is a
    single matrix multiply per sample, and its weight gradient one GEMM
    over the whole batch.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        padding: str = "same",
    ) -> None:
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        scale = np.sqrt(2.0 / (in_channels * kernel_size))
        self.W = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size))
        self.b = np.zeros(out_channels)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.padding = padding
        self.kernel_size = kernel_size
        self._cols: np.ndarray | None = None
        self._x_shape: tuple | None = None

    def _pad_amounts(self) -> tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        total = self.kernel_size - 1
        return total // 2, total - total // 2

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, length = x.shape
        k = self.kernel_size
        left, right = self._pad_amounts()
        # Zero-padded input, position-major: (n, length + pad, c).
        xp = np.zeros((n, length + left + right, c))
        xp[:, left : left + length, :] = x.transpose(0, 2, 1)
        # im2col: (n, out_len, c*k), one row per output position.
        out_len = xp.shape[1] - k + 1
        cols = sliding_window_view(xp, k, axis=1).reshape(n, out_len, c * k)
        self._cols = cols
        self._x_shape = (n, c, length)
        w2 = self.W.reshape(self.W.shape[0], -1)  # (F, c*k)
        out = cols @ w2.T + self.b  # (n, out_len, F)
        return out.transpose(0, 2, 1)  # (n, F, out_len)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        assert self._cols is not None and self._x_shape is not None
        n, c, length = self._x_shape
        k = self.kernel_size
        g = grad.transpose(0, 2, 1)  # (n, out_len, F)
        out_len = g.shape[1]
        w2 = self.W.reshape(self.W.shape[0], -1)
        # One GEMM over every (sample, position) row.
        self.dW[...] = (
            g.reshape(n * out_len, -1).T @ self._cols.reshape(n * out_len, -1)
        ).reshape(self.W.shape)
        self.db[...] = g.sum(axis=(0, 1))
        if not input_grad:
            return None
        dcols = (g @ w2).reshape(n, out_len, c, k)
        left, right = self._pad_amounts()
        dxp = np.zeros((n, length + left + right, c))
        # col2im: tap j of output o lands on padded input o + j.  Adding
        # the taps from k-1 down to 0 sums each input position in the
        # same order as np.add.at over the (out_len, k) index grid.
        for j in range(k - 1, -1, -1):
            dxp[:, j : j + out_len, :] += dcols[:, :, :, j]
        return dxp[:, left : left + length, :].transpose(0, 2, 1)

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]


class MaxPool1D(Layer):
    """Non-overlapping max pooling along the length axis."""

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        p = self.pool_size
        end = (x.shape[2] // p) * p
        # Scan the pool's slots left to right; a later slot wins only if
        # strictly greater, so ties route to the first maximum.
        out = x[:, :, 0:end:p]
        index = np.min_scalar_type(p - 1).type
        self._argmax = np.zeros_like(out, dtype=index)
        for j in range(1, p):
            slot = x[:, :, j:end:p]
            # j exceeds every earlier slot index, so the max records j
            # exactly where this slot beats the running maximum.
            np.maximum(self._argmax, (slot > out) * index(j), out=self._argmax)
            out = np.maximum(out, slot)
        self._x_shape = x.shape
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray:
        assert self._argmax is not None and self._x_shape is not None
        n, c, length = self._x_shape
        p = self.pool_size
        end = grad.shape[2] * p
        # Position-major, like Conv1D's outputs, so the ReLU and Conv1D
        # backward passes below run on matching memory layouts.
        dx = np.zeros((n, length, c)).transpose(0, 2, 1)
        for j in range(p):
            np.multiply(self._argmax == j, grad, out=dx[:, :, j:end:p])
        return dx


class ReLU(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray:
        return grad * self._mask


class Flatten(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(len(x), int(np.prod(x.shape[1:])))

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy head (numerically stable)."""

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def forward(self, logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Returns (mean loss, probabilities)."""
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        proba = exp / exp.sum(axis=1, keepdims=True)
        n = len(y)
        loss = -float(np.mean(np.log(proba[np.arange(n), y] + 1e-12)))
        self._proba = proba
        self._y = y
        return loss, proba

    def backward(self) -> np.ndarray:
        n = len(self._y)
        grad = self._proba.copy()
        grad[np.arange(n), self._y] -= 1.0
        return grad / n


class Adam:
    """Adam optimiser over a flat list of parameter arrays."""

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        # Scratch for the bias-corrected moments, reused every step.
        self._m_hat = [np.empty_like(p) for p in params]
        self._v_hat = [np.empty_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        m_scale = 1 - self.beta1**self.t
        v_scale = 1 - self.beta2**self.t
        for param, grad, m, v, m_hat, v_hat in zip(
            self.params, grads, self.m, self.v, self._m_hat, self._v_hat
        ):
            # The textbook update, evaluated in place:
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            # param -= lr * (m / m_scale) / (sqrt(v / v_scale) + eps)
            m *= self.beta1
            np.multiply(grad, 1 - self.beta1, out=m_hat)
            m += m_hat
            v *= self.beta2
            np.square(grad, out=v_hat)
            v_hat *= 1 - self.beta2
            v += v_hat
            np.divide(m, m_scale, out=m_hat)
            m_hat *= self.lr
            np.divide(v, v_scale, out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.eps
            m_hat /= v_hat
            param -= m_hat
