"""CART decision trees with vectorised Gini splitting.

The building block of the Random Forest.  Split search is fully
vectorised: for each candidate feature the labels are ordered by feature
value, and per-class prefix counts give the Gini impurity of a threshold
in O(1) after the sort.  Only thresholds between distinct values that
leave ``min_samples_leaf`` rows on each side are scored.  Packet
features are heavily tied (ports, protocol, flags, small counts), so
that is usually a small fraction of the n - 1 positions.
"""

from __future__ import annotations

import numpy as np

from repro.ml.preprocessing import NotFittedError


class _Node:
    """One tree node (internal or leaf)."""

    __slots__ = ("feature", "threshold", "left", "right", "prediction", "counts")

    def __init__(self) -> None:
        self.feature: int = -1
        self.threshold: float = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.prediction: int = 0
        self.counts: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini_best_split(
    x: np.ndarray, y: np.ndarray, n_classes: int, min_samples_leaf: int
) -> tuple[float, float] | None:
    """Best (gain-proxy, threshold) for one feature column, or None.

    ``y`` holds integer labels in ``[0, n_classes)``.  Returns the
    *negative weighted Gini* (higher is better) so callers can compare
    across features without re-deriving parent impurity.  Ties go to the
    lowest threshold.
    """
    order = np.argsort(x)
    x_sorted = x[order]
    n = len(x_sorted)
    # A split after sorted position i (left = [0..i]) must leave
    # min_samples_leaf rows on each side and fall between distinct
    # values; only those positions are scored.
    first = min_samples_leaf - 1
    last = n - min_samples_leaf - 1
    if first > last:
        return None
    split = np.flatnonzero(x_sorted[first + 1 : last + 2] != x_sorted[first : last + 1])
    if split.size == 0:
        return None
    split += first
    # Per-class prefix counts, one row per class: (n_classes, n).  Within
    # a run of equal values the row order does not matter, because only
    # the run ends are read.
    cum = np.cumsum(y[order] == np.arange(n_classes)[:, None], axis=1)
    left_counts = cum[:, split]
    right_counts = cum[:, -1:] - left_counts
    n_left = split + 1
    n_right = n - n_left
    gini_left = 1.0 - np.sum((left_counts / n_left) ** 2, axis=0)
    gini_right = 1.0 - np.sum((right_counts / n_right) ** 2, axis=0)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))
    i = split[best]
    threshold = 0.5 * (x_sorted[i] + x_sorted[i + 1])
    return -float(weighted[best]), float(threshold)


class DecisionTreeClassifier:
    """A binary-split CART classifier.

    Parameters mirror scikit-learn: ``max_depth``, ``min_samples_split``,
    ``min_samples_leaf``, and ``max_features`` (``None``, an int, or
    ``"sqrt"`` for the forest's per-node feature subsampling).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: _Node | None = None
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self.node_count_: int = 0

    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(int(self.max_features), n_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D and aligned with y")
        self.n_classes_ = int(y.max()) + 1 if y.size else 1
        self.n_features_ = X.shape[1]
        self.node_count_ = 0
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._build(X, y, depth=0, rng=rng)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, rng) -> _Node:
        node = _Node()
        self.node_count_ += 1
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        node.counts = counts
        node.prediction = int(np.argmax(counts))
        n = len(X)
        pure = counts.max() == n
        too_deep = self.max_depth is not None and depth >= self.max_depth
        if pure or too_deep or n < self.min_samples_split:
            return node
        k = self._n_candidate_features(self.n_features_)
        features = (
            np.arange(self.n_features_)
            if k == self.n_features_
            else rng.choice(self.n_features_, size=k, replace=False)
        )
        best_score = -np.inf
        best_feature = -1
        best_threshold = 0.0
        for feature in features:
            result = _gini_best_split(
                X[:, feature], y, self.n_classes_, self.min_samples_leaf
            )
            if result is not None and result[0] > best_score:
                best_score, best_threshold = result
                best_feature = int(feature)
        if best_feature < 0:
            return node
        mask = X[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(X[mask], y[mask], depth + 1, rng)
        node.right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class for each row."""
        proba = self.predict_proba(X)
        return np.argmax(proba, axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf class-frequency estimates for each row."""
        if self.root_ is None:
            raise NotFittedError("DecisionTreeClassifier.predict before fit")
        X = np.asarray(X, dtype=float)
        out = np.zeros((len(X), self.n_classes_))
        # Iterative mask-based traversal: each (node, indices) pair routes
        # its rows left/right in one vectorised comparison.
        stack: list[tuple[_Node, np.ndarray]] = [(self.root_, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                assert node.counts is not None
                total = node.counts.sum()
                out[idx] = node.counts / total if total else 0.0
                continue
            mask = X[idx, node.feature] <= node.threshold
            assert node.left is not None and node.right is not None
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree."""
        if self.root_ is None:
            raise NotFittedError("tree not fitted")

        def depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self.root_)
