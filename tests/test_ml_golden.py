"""Golden pins for the paper's RF and CNN fits.

A fixed synthetic set with heavily tied columns (ports, protocol, small
counts) is fitted with fixed seeds.  The pins were taken from the
straightforward kernels (full Gini scan per feature, ``np.add.at``
col2im, ``einsum`` weight gradients), so any speed-up of the training
kernels must reproduce every tree exactly, every epoch loss to 1e-12 and
every CNN verdict exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.ml import CnnClassifier, RandomForestClassifier


def tied_data(n: int = 480, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Rows shaped like packet features: mostly tied, a few continuous."""
    rng = np.random.default_rng(seed)
    port = rng.choice([22.0, 53.0, 80.0, 123.0, 443.0, 8080.0], size=n)
    proto = rng.choice([6.0, 17.0], size=n)
    flags = rng.integers(0, 4, size=n).astype(float)
    count = rng.poisson(3.0, size=n).astype(float)
    constant = np.full(n, 5.0)
    size = np.round(rng.normal(300.0, 120.0, size=n), 0)
    ratio = rng.uniform(0.0, 1.0, size=n)
    rate = np.round(rng.exponential(2.0, size=n), 1)
    X = np.column_stack([port, proto, flags, count, constant, size, ratio, rate])
    score = (port == 80.0) * 1.5 + (proto == 17.0) * 0.8 + 0.3 * count + ratio
    y = (score + rng.normal(0.0, 0.6, size=n) > 2.2).astype(int)
    return X, y


def tree_digest(tree) -> str:
    """sha256 of the preorder (feature, threshold, counts) sequence."""
    h = hashlib.sha256()
    stack = [tree.root_]
    while stack:
        node = stack.pop()
        h.update(repr((node.feature, node.threshold, node.counts.tolist())).encode())
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return h.hexdigest()[:16]


RF_TREE_DIGESTS = [
    "0d17ed150a581561",
    "47312191773036cf",
    "aa6f7549579cfe07",
    "242b157bcaaa8864",
    "e84d3ec9a6c59e8e",
    "30747f9ed0646e09",
    "1240a1ed0a3f0ef0",
    "7c307c0c01ec7fb4",
]

CNN_HISTORY = [
    0.9405372913567777,
    0.6821547876388073,
    0.6204400497953402,
    0.5977383421931659,
]

CNN_PREDICT_DIGEST = "ad7f17f5b3f506d6"


def test_rf_trees_are_pinned():
    X, y = tied_data()
    forest = RandomForestClassifier(
        n_estimators=8, max_depth=None, min_samples_leaf=4, random_state=11
    ).fit(X, y)
    assert [tree_digest(t) for t in forest.trees_] == RF_TREE_DIGESTS


def test_cnn_history_and_verdicts_are_pinned():
    X, y = tied_data()
    X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    cnn = CnnClassifier(
        n_features=X.shape[1],
        conv_channels=(4, 8),
        hidden=24,
        epochs=4,
        batch_size=64,
        lr=1e-2,
        inference_batch=32,
        random_state=5,
    ).fit(X, y)
    assert cnn.net.history == pytest.approx(CNN_HISTORY, rel=0, abs=1e-12)
    verdicts = cnn.predict(X).astype(np.int64)
    assert hashlib.sha256(verdicts.tobytes()).hexdigest()[:16] == CNN_PREDICT_DIGEST
