"""Decision-tree error prediction (paper Sec. 3.2.2, Fig. 6).

A CART-style regression tree fit on (accelerator inputs → observed
approximation error).  Decision nodes compare one input against a constant;
leaves store the predicted error — implementable in hardware with only
comparators and a coefficient buffer (Fig. 7(b)).

The paper limits the depth to 7; that is the default here.  Splits minimize
the sum of squared errors over a quantile grid of candidate thresholds,
which keeps fitting fast on the image benchmarks' large sample counts while
remaining a faithful CART variant.  Each column is sorted once per tree: a
node carries its rows' per-column orders as one index matrix, hands each
child the parent's orders filtered to its side (the child's own stable
argsort), and scores all its columns in one pass over that matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.predictors.base import ErrorPredictor

__all__ = ["DecisionTreeErrorPredictor", "TreeNode"]


def _first_of_runs(sorted_rows: np.ndarray) -> np.ndarray:
    """Where each row of a sorted, NaN-last matrix starts a value (NaNs as one)."""
    first = np.empty(sorted_rows.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(sorted_rows[:, 1:], sorted_rows[:, :-1], out=first[:, 1:])
    nan = np.flatnonzero(np.isnan(sorted_rows[:, -1]))
    if nan.size:
        first[nan, 1:] &= ~np.isnan(sorted_rows[nan, :-1])
    return first


def _distinct(values) -> np.ndarray:
    """``np.unique(values)`` of floats, bit for bit: its sort, then the
    first of each run.  np.unique's first call imports numpy.ma (~17 ms),
    which a fresh shard would pay on its first scored request."""
    values = np.sort(np.asarray(values, dtype=float))
    return values[_first_of_runs(values[None])[0]] if values.size else values


@dataclass
class TreeNode:
    """A tree node; leaves have ``value`` set, internal nodes a split."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def depth(self) -> int:
        """Depth of the subtree rooted here (a single leaf has depth 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


class DecisionTreeErrorPredictor(ErrorPredictor):
    """The paper's ``treeErrors`` scheme.

    Parameters
    ----------
    max_depth:
        Depth cap on decision nodes (the paper uses 7; at most 16).
    min_samples_leaf:
        Do not create leaves smaller than this.
    n_thresholds:
        Candidate split thresholds per feature (quantile grid).
    """

    name = "treeErrors"
    checker_kind = "tree"
    is_input_based = True
    needs_fit = True
    online_state = False

    def __init__(
        self,
        max_depth: int = 7,
        min_samples_leaf: int = 8,
        n_thresholds: int = 16,
    ):
        super().__init__()
        if max_depth <= 0:
            raise ConfigurationError("max_depth must be positive")
        if max_depth > 16:
            raise ConfigurationError(
                "max_depth must be at most 16: the scoring tables hold "
                "2**depth entries (the paper uses 7)"
            )
        if min_samples_leaf <= 0:
            raise ConfigurationError("min_samples_leaf must be positive")
        if n_thresholds < 2:
            raise ConfigurationError("n_thresholds must be at least 2")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_thresholds = n_thresholds
        self.root: Optional[TreeNode] = None
        self._n_features = 0
        # Built by _ready() when the tree is fitted or loaded: scoring
        # and the config queue read them and build nothing.
        self._flat: Optional[Tuple[np.ndarray, ...]] = None
        self._preorder: List[Tuple[int, float, float]] = []
        self._coefficients: List[float] = []
        self._scratch = threading.local()  # shards share the tree

    def __getstate__(self) -> dict:
        # Scratch is per-thread working memory, and threading.local
        # neither pickles nor deep-copies; the tables travel.
        state = self.__dict__.copy()
        del state["_scratch"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.reset_state()

    def reset_state(self) -> None:
        """Drop the per-thread descent buffers; the tree is untouched."""
        self._scratch = threading.local()

    # ------------------------------------------------------------------ #
    # Fitting                                                            #
    # ------------------------------------------------------------------ #
    def _fit(self, features: np.ndarray, errors: np.ndarray) -> None:
        self._n_features = features.shape[1]
        columns = np.ascontiguousarray(features.T)
        orders = np.argsort(columns, axis=1, kind="stable")
        self.root = self._build(columns, errors, np.arange(len(errors)), orders, 0)
        self._ready()

    def _build(self, columns, errors, rows, orders, depth: int) -> TreeNode:
        """Grow the subtree over ``rows`` (ascending row indices), whose
        ``orders[f]`` lists them by ascending ``columns[f]``, ties by row —
        a stable argsort.  A child keeps the parent's orders filtered to
        its side, which is its own stable argsort: nothing sorts again."""
        y = errors[rows]
        node_value = float(y.mean())
        if (
            depth >= self.max_depth
            or y.shape[0] < 2 * self.min_samples_leaf
            or np.allclose(y, y[0])
        ):
            return TreeNode(value=node_value)
        split = self._best_split(columns, errors, y, orders)
        if split is None:
            return TreeNode(value=node_value)
        feature, threshold = split
        go_left = columns[feature] <= threshold
        left, right = (
            self._build(columns, errors, rows[side[rows]],
                        orders[side[orders]].reshape(len(orders), -1), depth + 1)
            for side in (go_left, ~go_left)
        )
        return TreeNode(feature=feature, threshold=threshold, left=left, right=right)

    def _best_split(self, columns, errors, y, orders) -> Optional[Tuple[int, float]]:
        """Best (feature, threshold) by SSE reduction over a quantile grid.

        All columns at once, from values and centred errors (``y`` is in
        row order) gathered through the node's ``orders``.  A column of at
        most ``4 * n_thresholds`` distinct values (NaNs one, as in
        ``np.unique``) is cut at their midpoints, any other at the distinct
        cuts of one ``np.quantile(..., axis=1)`` over the sorted rows — a
        quantile depends only on the values, bar the sign of a zero cut
        where -0.0 and +0.0 mix, which no ``<=`` sees.  Cuts fill a NaN-padded
        ``(features, 4 * n_thresholds - 1)`` matrix (NaN sorts past every
        row: no pad is a valid split); the pick is the first maximum,
        feature-major, and must gain more than 1e-12."""
        n_features, n = orders.shape
        x_sorted = columns[np.arange(n_features)[:, None], orders]
        n_cuts = 4 * self.n_thresholds
        first = _first_of_runs(x_sorted)
        few = first.sum(axis=1) <= n_cuts
        thresholds = np.full((n_features, n_cuts - 1), np.nan)
        if few.any():  # few distinct values: exact CART midpoints
            keep = first[few]
            slot = keep.cumsum(axis=1)[keep] - 1  # rank among the row's values
            unique = np.full((keep.shape[0], n_cuts), np.nan)
            unique[np.nonzero(keep)[0], slot] = x_sorted[few][keep]
            thresholds[few] = (unique[:, :-1] + unique[:, 1:]) / 2.0
        if not few.all():
            grid = np.linspace(0.0, 1.0, self.n_thresholds + 2)[1:-1]
            cuts = np.quantile(x_sorted[~few].T, grid, axis=0, overwrite_input=True)
            # Sorted as np.unique sorts; a repeated cut becomes a pad.
            cuts = np.sort(cuts.T, axis=1)
            cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.nan
            thresholds[~few, :self.n_thresholds] = cuts

        n_left = np.array([np.searchsorted(values, cut, side="right")
                           for values, cut in zip(x_sorted, thresholds)])
        del x_sorted, first  # before the two prefix-sum matrices exist
        leaf = self.min_samples_leaf
        feature, cut = np.nonzero((n_left >= leaf) & (n - n_left >= leaf))
        if feature.size == 0:
            return None
        mean = y.mean()
        base_sse = float(np.sum((y - mean) ** 2))
        # Centred first, so the prefix-sum SSE identity stays stable.
        prefix_sum = errors.take(orders)
        prefix_sum -= mean
        prefix_sq = np.square(prefix_sum)
        np.cumsum(prefix_sq, axis=1, out=prefix_sq)
        np.cumsum(prefix_sum, axis=1, out=prefix_sum)
        n_left = n_left[feature, cut]
        sum_left = prefix_sum[feature, n_left - 1]
        sq_left = prefix_sq[feature, n_left - 1]
        # SSE about each side's own mean: Σy² - (Σy)²/m, per side.
        sse = (sq_left - sum_left**2 / n_left + (prefix_sq[feature, -1] - sq_left)
               - (prefix_sum[feature, -1] - sum_left) ** 2 / (n - n_left))
        gains = base_sse - sse
        pick = int(np.argmax(gains))  # first maximum: stable tie-break
        if not gains[pick] > 1e-12:
            return None
        return int(feature[pick]), float(thresholds[feature[pick], cut[pick]])

    # ------------------------------------------------------------------ #
    # Prediction                                                         #
    # ------------------------------------------------------------------ #
    def _ready(self) -> None:
        """Lay the fitted tree out, once per fit or load, for what reads it:
        the descent tables for scoring, the pre-order node list for
        :meth:`state`, the Fig. 7(b) coefficient buffer for the config
        queue — (feature index, threshold) per decision node and the error
        value per leaf, in pre-order — and a fresh scratch holder
        (``row_base`` depends on the column count).

        The tables are a complete binary heap, 1-based: node ``k`` has its
        right child at ``2k`` and its left child at ``2k + 1``, so one
        level of the descent is ``k = 2k + (x <= threshold)`` with no
        children table.  ``feature`` and ``threshold`` cover the decision
        levels (slots ``1 .. 2**depth - 1``), ``value`` the whole heap
        with only the bottom level (``2**depth .. 2**(depth+1) - 1``)
        meaningful.  A leaf above the bottom level owns its whole
        subtree: its slots keep ``threshold = +inf`` (feature 0), so
        rows fall through it — NaN to the right, everything else to the
        left — and every bottom slot under it carries its value.  Values
        are clamped at zero here, once, instead of per call.

        A tree over a single column is a step function of that column,
        so for ``n_features == 1`` the heap is only used to build
        ``(cuts, table)``: the sorted distinct thresholds and the leaf
        value of each of the ``len(cuts) + 1`` intervals they bound
        (interval ``i`` is ``cuts[i-1] < x <= cuts[i]``, probed at
        ``cuts[i]``; the last is probed with NaN, which like any
        ``x > cuts[-1]`` fails every ``x <= threshold``).
        """
        self.reset_state()
        depth = self.root.depth()
        size = 1 << depth
        feature = np.zeros(size, dtype=np.intp)
        threshold = np.full(size, np.inf)
        value = np.zeros(2 * size)
        cuts: List[float] = []
        nodes: List[Tuple[int, float, float]] = []
        words: List[float] = []
        stack = [(self.root, 1, depth)]
        while stack:  # the left child is popped first: pre-order
            node, slot, below = stack.pop()
            if node.is_leaf:
                value[slot << below:(slot + 1) << below] = node.value
                nodes.append((-1, node.threshold, node.value))
                words.append(float(node.value))
            else:
                feature[slot] = node.feature
                threshold[slot] = node.threshold
                cuts.append(node.threshold)
                nodes.append((node.feature, node.threshold, node.value))
                words += (float(node.feature), float(node.threshold))
                stack.append((node.right, 2 * slot, below - 1))
                stack.append((node.left, 2 * slot + 1, below - 1))
        np.maximum(value, 0.0, out=value)
        flat = (feature, threshold, value, depth)
        if self._n_features == 1:
            cuts = _distinct(cuts)
            probes = np.append(cuts, np.nan)[:, None]
            bufs = self._new_scratch(probes.shape[0], 1)
            flat = (cuts, self._descend(flat, probes, bufs))
        self._flat, self._preorder, self._coefficients = flat, nodes, words

    @staticmethod
    def _new_scratch(n: int, width: int) -> Tuple[np.ndarray, ...]:
        """Descent buffers for ``n`` rows of ``width`` columns: ``row_base``
        (row ``r`` starts at ``r * width`` in the raveled matrix), two
        index vectors, two float vectors and the comparison mask."""
        return (
            np.arange(n, dtype=np.intp) * width,
            np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp),
            np.empty(n), np.empty(n), np.empty(n, dtype=bool),
        )

    def _level_scratch(self, n: int) -> Tuple[np.ndarray, ...]:
        """This thread's descent buffers, cut to ``n`` rows.

        Grown to the largest batch the thread has seen and sliced for
        smaller ones, so a steady-state call allocates only its result.
        Per thread because shards and callers may score on one instance
        concurrently.
        """
        tls = self._scratch
        bufs = getattr(tls, "bufs", None)
        if bufs is None or bufs[0].shape[0] < n:
            bufs = tls.bufs = self._new_scratch(n, self._n_features)
        if bufs[0].shape[0] == n:
            return bufs
        return tuple(buf[:n] for buf in bufs)

    @staticmethod
    def _descend(flat, features: np.ndarray, bufs) -> np.ndarray:
        """Route every row of C-contiguous ``features`` to its leaf value.

        Three gathers per level — the node's threshold, the node's
        column, the row's cell in that column (one flat ``take`` on the
        raveled matrix) — one float64 ``<=`` and two adds.  Every
        ``take`` writes into scratch with ``mode="clip"`` (the default
        ``"raise"`` buffers when given ``out=``); indices are in range by
        construction.  The root is one node for all rows, so level 0 is a
        scalar compare on one column.
        """
        feature, threshold, value, depth = flat
        if depth == 0:
            return np.full(features.shape[0], value[1])
        row_base, node, cell, thr, x, go_left = bufs
        np.less_equal(features[:, feature[1]], threshold[1], out=go_left)
        np.add(go_left, 2, out=node)
        cells = features.reshape(-1)
        for _ in range(depth - 1):
            threshold.take(node, out=thr, mode="clip")
            feature.take(node, out=cell, mode="clip")
            np.add(cell, row_base, out=cell)
            cells.take(cell, out=x, mode="clip")
            np.less_equal(x, thr, out=go_left)
            np.add(node, node, out=node)
            np.add(node, go_left, out=node)
        return value.take(node, mode="clip")

    def scores(self, features=None, approx_outputs=None, true_errors=None):
        self._require_fitted()
        if features is None:
            raise ConfigurationError("treeErrors is input-based: needs features")
        # order="C" copies only an input that is not already C-contiguous.
        features = np.atleast_2d(np.asarray(features, dtype=float, order="C"))
        if features.shape[1] != self._n_features:
            raise ConfigurationError(
                f"expected {self._n_features} feature columns, got "
                f"{features.shape[1]}"
            )
        if self._n_features == 1:
            cuts, table = self._flat
            return table.take(np.searchsorted(cuts, features[:, 0], side="left"))
        return self._descend(
            self._flat, features, self._level_scratch(features.shape[0])
        )

    # ------------------------------------------------------------------ #
    # Introspection / hardware mapping                                   #
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        self._require_fitted()
        return self.root.depth()

    def coefficient_count(self) -> int:
        """Decision constants + leaf errors (Fig. 7(b) coefficient buffer)."""
        self._require_fitted()
        return len(self._coefficients)

    def coefficients(self):
        """The Fig. 7(b) buffer :meth:`_ready` laid out."""
        self._require_fitted()
        return list(self._coefficients)

    def state(self) -> Dict[str, np.ndarray]:
        """The fitted tree as pre-order ``feature`` / ``threshold`` /
        ``value`` arrays: :meth:`coefficients`' walk, with feature -1
        marking a leaf.  :meth:`load_state` reads them back."""
        self._require_fitted()
        feature, threshold, value = zip(*self._preorder)
        return {"feature": np.array(feature, dtype=np.int64),
                "threshold": np.array(threshold, dtype=np.float64),
                "value": np.array(value, dtype=np.float64)}

    def load_state(self, n_features: int, feature: np.ndarray,
                   threshold: np.ndarray, value: np.ndarray
                   ) -> "DecisionTreeErrorPredictor":
        """Fit to :meth:`state`'s arrays, for rows of ``n_features`` columns.

        Anything but one well-formed pre-order tree no deeper than
        ``max_depth`` raises ConfigurationError: a wrong dtype or length,
        a NaN threshold, a non-finite value, a feature outside the
        columns, a node missing or left over.  A threshold may be ±inf:
        the fit cuts a column holding ±inf there.
        """
        if not (feature.dtype == np.int64 and feature.ndim == 1
                and threshold.dtype == value.dtype == np.float64
                and threshold.shape == value.shape == feature.shape
                and not np.isnan(threshold).any() and np.isfinite(value).all()):
            raise ConfigurationError("not the arrays of a tree's state")
        codes, thresholds, values = feature.tolist(), threshold.tolist(), value.tolist()

        def grow(at: int, depth: int) -> Tuple[TreeNode, int]:
            if at == len(codes):
                raise ConfigurationError("the pre-order tree is missing a node")
            if codes[at] == -1:
                return TreeNode(threshold=thresholds[at], value=values[at]), at + 1
            if not 0 <= codes[at] < n_features or depth == self.max_depth:
                raise ConfigurationError(
                    f"node {at}: feature {codes[at]} of {n_features} at depth "
                    f"{depth} (max_depth {self.max_depth})")
            left, after = grow(at + 1, depth + 1)
            right, after = grow(after, depth + 1)
            return TreeNode(codes[at], thresholds[at], left, right, values[at]), after

        root, end = grow(0, 0)
        if end != len(codes):
            raise ConfigurationError("the pre-order tree has a node left over")
        self.root, self._n_features = root, n_features
        self._ready()
        self._fitted = True
        return self
