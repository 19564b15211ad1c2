"""Oracle tests for the training kernels of the RF and the CNN.

Each fast kernel is checked against a plain reference: the Gini split
search against a brute-force scan over every distinct threshold, the
Conv1D input gradient against ``np.add.at`` col2im, MaxPool1D against a
``cumsum`` first-max mask, and in-place Adam against the textbook
update.  The references live here only.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.cnn import Sequential
from repro.ml.layers import Adam, Conv1D, Dense, MaxPool1D, ReLU
from repro.ml.tree import _gini_best_split


# --------------------------------------------------------------------------
# Gini split search


def brute_force_split(x, y, n_classes, min_samples_leaf):
    """Score every threshold between consecutive distinct values."""
    n = len(x)
    values = np.unique(x)
    best = None
    for low, high in zip(values[:-1], values[1:]):
        left = x <= low
        n_left = int(left.sum())
        n_right = n - n_left
        if n_left < min_samples_leaf or n_right < min_samples_leaf:
            continue
        gini = []
        for side, size in ((y[left], n_left), (y[~left], n_right)):
            counts = np.bincount(side, minlength=n_classes)
            gini.append(1.0 - sum((counts[c] / size) ** 2 for c in range(n_classes)))
        weighted = (n_left * gini[0] + n_right * gini[1]) / n
        if best is None or weighted < best[0]:
            best = (weighted, 0.5 * (low + high))
    return None if best is None else (-best[0], best[1])


@st.composite
def split_cases(draw):
    n = draw(st.integers(1, 60))
    n_distinct = draw(st.integers(1, 8))
    x = np.array(draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n)))
    x = x * draw(st.sampled_from([1.0, 0.25, 1e3]))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    min_samples_leaf = draw(st.integers(1, max(1, n // 2 + 2)))
    return x, y, min_samples_leaf


class TestGiniSplit:
    @given(split_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        x, y, min_samples_leaf = case
        assert _gini_best_split(x, y, 2, min_samples_leaf) == brute_force_split(
            x, y, 2, min_samples_leaf
        )

    @given(split_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_three_classes_choose_an_optimal_split(self, case, seed):
        x, _, min_samples_leaf = case
        y = np.random.default_rng(seed).integers(0, 3, size=len(x))
        got = _gini_best_split(x, y, 3, min_samples_leaf)
        expected = brute_force_split(x, y, 3, min_samples_leaf)
        if expected is None:
            assert got is None
        else:
            assert got[0] == pytest.approx(expected[0], rel=0, abs=1e-12)

    def test_constant_column_has_no_split(self):
        x = np.full(20, 3.0)
        y = np.array([0, 1] * 10)
        assert _gini_best_split(x, y, 2, 1) is None

    def test_all_tied_column_splits_only_between_runs(self):
        # Two runs of ties: the only legal threshold lies between them.
        x = np.array([5.0] * 6 + [9.0] * 4)
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        score, threshold = _gini_best_split(x, y, 2, 4)
        assert threshold == 7.0
        assert (score, threshold) == brute_force_split(x, y, 2, 4)
        # A run shorter than min_samples_leaf leaves no legal threshold.
        assert _gini_best_split(x, y, 2, 5) is None

    def test_min_samples_leaf_above_half_has_no_split(self):
        x = np.arange(10.0)
        y = np.array([0] * 5 + [1] * 5)
        assert _gini_best_split(x, y, 2, 6) is None
        assert _gini_best_split(x, y, 2, 5) == (-0.0, 4.5)

    def test_first_minimum_wins(self):
        # Thresholds 0.5 and 2.5 give the same impurity; the lower one wins.
        x = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        y = np.array([1, 0, 0, 0, 1])
        assert _gini_best_split(x, y, 2, 1)[1] == 0.5


# --------------------------------------------------------------------------
# Conv1D


def add_at_backward(layer, grad):
    """Input gradient of ``layer`` by im2col + ``np.add.at`` col2im."""
    n, c, length = layer._x_shape
    k = layer.kernel_size
    g = grad.transpose(0, 2, 1)
    out_len = g.shape[1]
    w2 = layer.W.reshape(layer.W.shape[0], -1)
    dcols = (g @ w2).reshape(n, out_len, c, k).transpose(0, 2, 1, 3)
    left, right = layer._pad_amounts()
    dxp = np.zeros((n, c, length + left + right))
    idx = np.arange(k)[None, :] + np.arange(out_len)[:, None]
    np.add.at(dxp, (slice(None), slice(None), idx), dcols)
    return dxp[:, :, left : left + length]


def reference_forward(layer, x):
    """The convolution as an explicit sum over taps and channels."""
    left, right = layer._pad_amounts()
    xp = np.pad(x, ((0, 0), (0, 0), (left, right)))
    out_len = xp.shape[2] - layer.kernel_size + 1
    out = np.zeros((x.shape[0], layer.W.shape[0], out_len))
    for j in range(layer.kernel_size):
        out += np.einsum("fc,ncl->nfl", layer.W[:, :, j], xp[:, :, j : j + out_len])
    return out + layer.b[None, :, None]


class TestConv1D:
    @pytest.mark.parametrize("channels", [1, 16])
    @pytest.mark.parametrize("kernel_size", [3, 5])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_input_gradient_equals_add_at_col2im(self, channels, kernel_size, padding):
        rng = np.random.default_rng(channels * 10 + kernel_size)
        layer = Conv1D(channels, 8, kernel_size, rng, padding=padding)
        x = rng.normal(size=(6, channels, 11))
        out = layer.forward(x)
        grad = rng.normal(size=out.shape)
        dx = layer.backward(grad)
        np.testing.assert_array_equal(dx, add_at_backward(layer, grad))

    @pytest.mark.parametrize("channels", [1, 16])
    def test_forward_and_weight_gradients_match_reference(self, channels):
        rng = np.random.default_rng(channels)
        layer = Conv1D(channels, 8, 3, rng)
        x = rng.normal(size=(5, channels, 9))
        out = layer.forward(x)
        np.testing.assert_allclose(out, reference_forward(layer, x), rtol=1e-12, atol=1e-12)
        grad = rng.normal(size=out.shape)
        layer.backward(grad)
        cols = layer._cols
        expected_dw = np.einsum("nof,nok->fk", grad.transpose(0, 2, 1), cols)
        np.testing.assert_allclose(
            layer.dW, expected_dw.reshape(layer.W.shape), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_array_equal(layer.db, grad.transpose(0, 2, 1).sum(axis=(0, 1)))

    def test_first_layer_skips_input_gradient(self):
        rng = np.random.default_rng(0)
        layer = Conv1D(1, 4, 3, rng)
        out = layer.forward(rng.normal(size=(3, 1, 8)))
        grad = rng.normal(size=out.shape)
        assert layer.backward(grad, input_grad=False) is None
        dW = layer.dW.copy()
        layer.backward(grad)
        np.testing.assert_array_equal(layer.dW, dW)

    def test_empty_batch(self):
        layer = Conv1D(2, 4, 3, np.random.default_rng(0))
        assert layer.forward(np.zeros((0, 2, 7))).shape == (0, 4, 7)


# --------------------------------------------------------------------------
# MaxPool1D


def cumsum_maxpool(x, p, grad):
    """Forward output and input gradient with a cumsum first-max mask."""
    n, c, length = x.shape
    out_len = length // p
    trimmed = x[:, :, : out_len * p].reshape(n, c, out_len, p)
    out = trimmed.max(axis=3)
    mask = trimmed == out[..., None]
    mask &= np.cumsum(mask, axis=3) == 1
    dx = np.zeros((n, c, length))
    dx[:, :, : out_len * p] = (mask * grad[..., None]).reshape(n, c, out_len * p)
    return out, dx


class TestMaxPoolTies:
    @pytest.mark.parametrize("pool", [2, 3])
    def test_tie_routes_to_first_maximum(self, pool):
        layer = MaxPool1D(pool)
        # Pool 0 is all ties; pool 1 ties among its later slots.
        x = np.array([[[4.0] * pool + [1.0] + [7.0] * (pool - 1)]])
        out = layer.forward(x)
        assert out.tolist() == [[[4.0, 7.0]]]
        dx = layer.backward(np.array([[[10.0, 20.0]]]))
        expected = np.zeros(x.shape)
        expected[0, 0, 0] = 10.0
        expected[0, 0, pool + 1] = 20.0
        np.testing.assert_array_equal(dx, expected)

    @pytest.mark.parametrize("pool", [2, 3])
    @pytest.mark.parametrize("length", [9, 10, 12])
    def test_matches_cumsum_mask_on_tied_data(self, pool, length):
        rng = np.random.default_rng(pool * 100 + length)
        # Few distinct values (zeros from a ReLU included) force many ties;
        # negative gradients check that signed zeros match too.
        x = np.maximum(rng.integers(-2, 3, size=(4, 3, length)).astype(float), 0.0)
        layer = MaxPool1D(pool)
        out = layer.forward(x)
        grad = rng.normal(size=out.shape)
        dx = layer.backward(grad)
        ref_out, ref_dx = cumsum_maxpool(x, pool, grad)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(np.signbit(dx), np.signbit(ref_dx))


# --------------------------------------------------------------------------
# Adam and the network backward pass


class TestAdamInPlace:
    def test_matches_textbook_update_and_keeps_references(self):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(4, 3)), rng.normal(size=5)]
        originals = list(params)
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        opt = Adam(params, lr=0.01)
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape) for p in params]
            opt.step(grads)
            for i, grad in enumerate(grads):
                m[i] = 0.9 * m[i] + (1 - 0.9) * grad
                v[i] = 0.999 * v[i] + (1 - 0.999) * grad**2
                m_hat = m[i] / (1 - 0.9**t)
                v_hat = v[i] / (1 - 0.999**t)
                expected[i] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for param, original, want in zip(opt.params, originals, expected):
            assert param is original
            np.testing.assert_array_equal(param, want)


class TestSequentialBackward:
    def test_parameter_gradients_unchanged_by_skipping_input_gradient(self):
        rng = np.random.default_rng(3)
        net = Sequential(
            [Conv1D(1, 4, 3, rng), ReLU(), MaxPool1D(2), Conv1D(4, 4, 3, rng)]
        )
        x = rng.normal(size=(5, 1, 8))
        out = net.forward(x, training=True)
        grad = rng.normal(size=out.shape)
        net.backward(grad)
        skipped = [g.copy() for g in net.grads()]
        for layer in reversed(net.layers):
            grad = layer.backward(grad)
        for a, b in zip(skipped, net.grads()):
            np.testing.assert_array_equal(a, b)

    def test_dense_first_layer(self):
        rng = np.random.default_rng(4)
        net = Sequential([Dense(3, 2, rng)])
        x = rng.normal(size=(4, 3))
        grad = rng.normal(size=(4, 2))
        net.forward(x)
        net.backward(grad)
        np.testing.assert_array_equal(net.layers[0].dW, x.T @ grad)
        assert net.layers[0].backward(grad, input_grad=False) is None
