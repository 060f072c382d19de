"""Node-walk reference for ``DecisionTreeErrorPredictor.scores``.

Tests only.  The product descends flattened tables; this walks the
``TreeNode`` objects one row at a time, exactly as the paper's Fig. 6
reads: ``x[feature] <= threshold`` goes left, anything else (NaN
included) goes right, and a leaf predicts ``max(value, 0)``.  Every
table layout ``tree.py`` ships is pinned to this, bit for bit.
"""

import numpy as np

from repro.predictors.tree import DecisionTreeErrorPredictor, TreeNode


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
    return predictor
