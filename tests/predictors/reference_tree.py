"""Node-walk reference for ``DecisionTreeErrorPredictor.scores`` and the
per-node-sort reference for its fit.

Tests only.  The product descends flattened tables; ``walk_scores``
walks the ``TreeNode`` objects one row at a time, exactly as the paper's
Fig. 6 reads: ``x[feature] <= threshold`` goes left, anything else (NaN
included) goes right, and a leaf predicts ``max(value, 0)``.  Every
table layout ``tree.py`` ships is pinned to this, bit for bit.

The product fits from column orders sorted once per tree;
``reference_fit`` is the fitter as it stood before that — every node
re-sorts every column, then ``np.unique`` and ``np.quantile`` sort it
again — and the product's trees are pinned to its trees, node for node
and coefficient byte for coefficient byte.
"""

from typing import Optional, Tuple

import numpy as np

from repro.predictors.tree import DecisionTreeErrorPredictor, TreeNode


def reference_fit(
    features, errors, max_depth: int = 7, min_samples_leaf: int = 8,
    n_thresholds: int = 16,
) -> TreeNode:
    """The root of the tree the per-node-sort fitter grows."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(errors, dtype=float).ravel()

    def build(x, y, depth):
        node_value = float(y.mean())
        if (
            depth >= max_depth
            or y.shape[0] < 2 * min_samples_leaf
            or np.allclose(y, y[0])
        ):
            return TreeNode(value=node_value)
        split = best_split(x, y)
        if split is None:
            return TreeNode(value=node_value)
        feature, threshold = split
        mask = x[:, feature] <= threshold
        left = build(x[mask], y[mask], depth + 1)
        right = build(x[~mask], y[~mask], depth + 1)
        return TreeNode(feature=feature, threshold=threshold, left=left, right=right)

    def best_split(x, y) -> Optional[Tuple[int, float]]:
        n = y.shape[0]
        y_centred = y - y.mean()
        base_sse = float(np.sum(y_centred**2))
        best_gain = 1e-12
        best: Optional[Tuple[int, float]] = None
        quantiles = np.linspace(0.0, 1.0, n_thresholds + 2)[1:-1]
        for feature in range(x.shape[1]):
            col = x[:, feature]
            order = np.argsort(col, kind="stable")
            col_sorted = col[order]
            unique = np.unique(col_sorted)
            if unique.size <= 4 * n_thresholds:
                # Few distinct values: exact CART midpoints.
                thresholds = (unique[:-1] + unique[1:]) / 2.0
            else:
                thresholds = np.unique(np.quantile(col, quantiles))
            if thresholds.size == 0:
                continue
            y_sorted = y_centred[order]
            prefix_sum = np.cumsum(y_sorted)
            prefix_sq = np.cumsum(y_sorted**2)
            n_left = np.searchsorted(col_sorted, thresholds, side="right")
            valid = (n_left >= min_samples_leaf) & (
                n - n_left >= min_samples_leaf
            )
            if not np.any(valid):
                continue
            n_left = n_left[valid]
            sum_left = prefix_sum[n_left - 1]
            sq_left = prefix_sq[n_left - 1]
            n_right = n - n_left
            # SSE about each side's own mean: Σy² - (Σy)²/m, per side.
            sse = (
                sq_left
                - sum_left**2 / n_left
                + (prefix_sq[-1] - sq_left)
                - (prefix_sum[-1] - sum_left) ** 2 / n_right
            )
            gains = base_sse - sse
            pick = int(np.argmax(gains))  # first maximum: stable tie-break
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                best = (feature, float(thresholds[valid][pick]))
        return best

    return build(x, y, depth=0)


def walk_scores(root: TreeNode, features) -> np.ndarray:
    """Scores of ``features`` (one row per element) by walking ``root``."""
    rows = np.atleast_2d(np.asarray(features, dtype=float))
    out = np.empty(rows.shape[0])
    for r, row in enumerate(rows):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[r] = max(node.value, 0)
    return out


def predictor_for(root: TreeNode, n_features: int) -> DecisionTreeErrorPredictor:
    """A fitted predictor whose tree is the hand-built ``root``."""
    predictor = DecisionTreeErrorPredictor(max_depth=max(root.depth(), 1))
    predictor.root = root
    predictor._n_features = n_features
    predictor._fitted = True
    predictor._ready()  # the tables fit() and load_state() build
    return predictor
