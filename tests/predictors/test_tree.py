"""Unit and property tests for the decision-tree error predictor."""

import copy
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPLICATION_NAMES
from repro.apps.registry import get_application
from repro.core import prepare_system
from repro.core.offline import checker_data, prepare_backend
from repro.errors import ConfigurationError, NotFittedError
from repro.predictors.training import collect_training_data, train_predictor
from repro.predictors.tree import (
    DecisionTreeErrorPredictor,
    TreeNode,
    _distinct,
)
from tests.predictors.reference_tree import (
    predictor_for,
    reference_fit,
    walk_scores,
)


class TestTreeNode:
    def test_leaf_depth(self):
        assert TreeNode(value=1.0).depth() == 0

    def test_nested_depth(self):
        tree = TreeNode(
            feature=0, threshold=0.5,
            left=TreeNode(value=0.0),
            right=TreeNode(
                feature=0, threshold=0.8,
                left=TreeNode(value=1.0), right=TreeNode(value=2.0),
            ),
        )
        assert tree.depth() == 2


class TestDecisionTree:
    def test_fits_step_function(self, rng):
        x = rng.uniform(0, 1, size=(500, 1))
        errors = np.where(x[:, 0] > 0.5, 0.9, 0.1)
        tree = DecisionTreeErrorPredictor(max_depth=3).fit(x, errors)
        predicted = tree.scores(features=x)
        # The quantile-grid CART may fuzz a handful of boundary samples.
        assert np.mean(np.abs(predicted - errors)) < 0.02
        assert np.mean(np.isclose(predicted, errors)) > 0.95

    def test_respects_depth_cap(self, rng):
        x = rng.uniform(0, 1, size=(2000, 2))
        errors = rng.uniform(0, 1, size=2000)  # unlearnable noise
        tree = DecisionTreeErrorPredictor(max_depth=7, min_samples_leaf=2).fit(
            x, errors
        )
        assert tree.depth <= 7

    def test_paper_default_depth_is_7(self):
        assert DecisionTreeErrorPredictor().max_depth == 7

    def test_predictions_within_training_range(self, rng):
        x = rng.uniform(0, 1, size=(300, 2))
        errors = rng.uniform(0.2, 0.8, size=300)
        tree = DecisionTreeErrorPredictor().fit(x, errors)
        scores = tree.scores(features=rng.uniform(-5, 5, size=(100, 2)))
        assert scores.min() >= 0.2 - 1e-9
        assert scores.max() <= 0.8 + 1e-9

    def test_constant_errors_single_leaf(self, rng):
        x = rng.uniform(0, 1, size=(100, 2))
        tree = DecisionTreeErrorPredictor().fit(x, np.full(100, 0.3))
        assert tree.root.is_leaf
        np.testing.assert_allclose(tree.scores(features=x), 0.3)

    def test_min_samples_leaf_respected(self, rng):
        x = rng.uniform(0, 1, size=(40, 1))
        errors = rng.uniform(0, 1, size=40)
        tree = DecisionTreeErrorPredictor(min_samples_leaf=20).fit(x, errors)
        # With 40 samples and min leaf 20 only one split is possible.
        assert tree.depth <= 1

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeErrorPredictor().scores(features=np.ones((2, 2)))

    def test_needs_features(self, rng):
        tree = DecisionTreeErrorPredictor().fit(rng.random((30, 2)), rng.random(30))
        with pytest.raises(ConfigurationError, match="input-based"):
            tree.scores(approx_outputs=np.ones((5, 1)))

    def test_wrong_width(self, rng):
        tree = DecisionTreeErrorPredictor().fit(rng.random((30, 2)), rng.random(30))
        with pytest.raises(ConfigurationError):
            tree.scores(features=np.ones((5, 3)))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            DecisionTreeErrorPredictor(max_depth=0)
        with pytest.raises(ConfigurationError):
            DecisionTreeErrorPredictor(min_samples_leaf=0)
        with pytest.raises(ConfigurationError):
            DecisionTreeErrorPredictor(n_thresholds=1)

    def test_coefficient_count_matches_structure(self, rng):
        x = rng.uniform(0, 1, size=(400, 2))
        errors = np.where(x[:, 0] > 0.5, 0.9, 0.1)
        tree = DecisionTreeErrorPredictor(max_depth=3).fit(x, errors)

        def words(node):  # (feature, threshold) per decision, value per leaf
            if node.is_leaf:
                return 1
            return 2 + words(node.left) + words(node.right)

        assert tree.coefficient_count() == words(tree.root)

    def test_better_than_linear_on_nonmonotone_errors(self, rng):
        """The benchmark-dependence observation: trees capture structure
        linear models cannot (e.g. errors high at both input extremes)."""
        from repro.predictors.linear import LinearErrorPredictor

        x = rng.uniform(-1, 1, size=(1000, 1))
        errors = np.abs(x[:, 0])  # symmetric: linear in x fits poorly
        tree = DecisionTreeErrorPredictor().fit(x, errors)
        linear = LinearErrorPredictor().fit(x, errors)
        tree_mae = np.abs(tree.scores(features=x) - errors).mean()
        linear_mae = np.abs(linear.scores(features=x) - errors).mean()
        assert tree_mae < linear_mae

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6))
    def test_deeper_trees_fit_no_worse(self, depth):
        rng = np.random.default_rng(depth)
        x = rng.uniform(0, 1, size=(400, 1))
        errors = np.sin(3 * x[:, 0]) ** 2
        shallow = DecisionTreeErrorPredictor(max_depth=depth).fit(x, errors)
        deeper = DecisionTreeErrorPredictor(max_depth=depth + 1).fit(x, errors)
        shallow_sse = np.sum((shallow.scores(features=x) - errors) ** 2)
        deeper_sse = np.sum((deeper.scores(features=x) - errors) ** 2)
        assert deeper_sse <= shallow_sse + 1e-9


def _root_split(tree, x, y):
    """``tree._best_split`` at the root of a fit on ``(x, y)``."""
    columns = np.ascontiguousarray(x.T)
    orders = np.argsort(columns, axis=1, kind="stable")
    return tree._best_split(columns, y, y, orders)


class TestVectorizedSplit:
    """The prefix-sum split search must stay deterministic and agree with
    the direct per-threshold SSE computation."""

    def _brute_force_best(self, tree, x, y):
        """Reference O(features x thresholds x n) search with the same
        candidate grid and first-wins tie-breaking."""
        n = y.shape[0]
        yc = y - y.mean()
        base_sse = float(np.sum(yc**2))
        best_gain, best = 1e-12, None
        quantiles = np.linspace(0.0, 1.0, tree.n_thresholds + 2)[1:-1]
        for feature in range(x.shape[1]):
            col = x[:, feature]
            unique = np.unique(col)
            if unique.size <= 4 * tree.n_thresholds:
                thresholds = (unique[:-1] + unique[1:]) / 2.0
            else:
                thresholds = np.unique(np.quantile(col, quantiles))
            for threshold in thresholds:
                mask = col <= threshold
                n_left = int(mask.sum())
                if (n_left < tree.min_samples_leaf
                        or n - n_left < tree.min_samples_leaf):
                    continue
                left, right = yc[mask], yc[~mask]
                sse = (np.sum((left - left.mean()) ** 2)
                       + np.sum((right - right.mean()) ** 2))
                gain = base_sse - sse
                if gain > best_gain:
                    best_gain, best = float(gain), (feature, float(threshold))
        return best

    def test_agrees_with_brute_force(self, rng):
        for trial in range(5):
            x = rng.normal(size=(300, 4))
            y = np.abs(x[:, 0]) + 0.3 * (x[:, 2] > 0.5) + rng.normal(
                scale=0.05, size=300
            )
            tree = DecisionTreeErrorPredictor(max_depth=3)
            got = _root_split(tree, x, y)
            want = self._brute_force_best(tree, x, y)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1])

    def test_deterministic_across_runs(self, rng):
        x = rng.normal(size=(500, 3))
        y = np.abs(x[:, 1]) + rng.normal(scale=0.1, size=500)
        first = DecisionTreeErrorPredictor(max_depth=7)
        second = DecisionTreeErrorPredictor(max_depth=7)
        first.fit(x, y)
        second.fit(x, y)
        assert first.coefficients() == second.coefficients()

    def test_tie_break_prefers_earliest_candidate(self):
        # Two identical columns: the split must land on feature 0, and on
        # the first of the equal-gain thresholds.
        x = np.repeat(np.arange(40.0), 2).reshape(-1, 1)
        x = np.hstack([x, x])
        y = (x[:, 0] >= 20).astype(float)
        tree = DecisionTreeErrorPredictor(max_depth=1, min_samples_leaf=1)
        feature, threshold = _root_split(tree, x, y)
        assert feature == 0
        assert threshold == pytest.approx(19.5)

    def test_duplicate_heavy_column(self, rng):
        # Many repeated values: searchsorted boundaries must stay exact.
        x = rng.integers(0, 4, size=(200, 2)).astype(float)
        y = (x[:, 0] >= 2).astype(float)
        tree = DecisionTreeErrorPredictor(max_depth=2, min_samples_leaf=5)
        tree.fit(x, y)
        pred = tree.scores(features=x)
        assert np.corrcoef(pred, y)[0, 1] > 0.99

    def test_large_offset_targets_stay_stable(self, rng):
        # Centring y guards the prefix-sum SSE identity against
        # catastrophic cancellation under a huge constant offset.
        x = rng.normal(size=(400, 2))
        y = 1e9 + np.abs(x[:, 0])
        tree = DecisionTreeErrorPredictor(max_depth=3)
        split = _root_split(tree, x, y)
        assert split is not None
        assert split[0] == 0


# --------------------------------------------------------------------- #
# The fit against the per-node-sort oracle                              #
# --------------------------------------------------------------------- #
def _assert_same_tree(tree, want_root, same_bytes=True):
    """Equal ``TreeNode`` structure (floats compared with ``==``) and,
    unless told otherwise, equal ``coefficients()`` bytes."""
    assert tree.root == want_root
    if same_bytes:
        want = predictor_for(want_root, tree._n_features).coefficients()
        assert (np.asarray(tree.coefficients()).tobytes()
                == np.asarray(want).tobytes())


def _mixes_signed_zeros(x):
    zero = x == 0
    negative = np.signbit(x)
    return bool(np.any((zero & negative).any(0) & (zero & ~negative).any(0)))


def _column(kind, n, n_thresholds, rng):
    """One feature column of the named shape (see ``fitting_cases``)."""
    if kind == "ties":
        return rng.integers(-3, 4, size=n).astype(float)
    if kind == "few":  # at or just past the midpoint path's limit
        width = 4 * n_thresholds + rng.integers(0, 2)
        return rng.integers(0, width, size=n).astype(float)
    if kind == "constant":
        return np.full(n, float(rng.integers(-2, 3)))
    if kind == "lumpy":  # one heavy value: quantiles repeat it
        return np.where(rng.random(n) < 0.7, 1.0,
                        rng.integers(-40, 40, size=n).astype(float))
    if kind == "signed_zeros":
        return np.where(rng.random(n) < 0.6, rng.choice([-0.0, 0.0], size=n),
                        rng.normal(size=n))
    return rng.normal(size=n)


@st.composite
def fitting_cases(draw):
    """(x, errors, max_depth, min_samples_leaf, n_thresholds) built to hit
    every branch of the split search: integer-valued columns and errors
    (many ties), columns at and past ``4 * n_thresholds`` distinct values
    (midpoints or quantiles), constant columns, quantile grids that
    repeat a value, NaN and +-inf cells, row counts on both sides of
    ``2 * min_samples_leaf``, and columns mixing -0.0 with +0.0.
    """
    n_thresholds = draw(st.integers(2, 32))
    min_samples_leaf = draw(st.integers(1, 12))
    n = draw(st.one_of(st.integers(1, 24), st.integers(60, 320)))
    kinds = draw(st.lists(
        st.sampled_from(
            ["ties", "few", "constant", "lumpy", "normal", "signed_zeros"]
        ),
        min_size=1, max_size=5,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.column_stack([_column(k, n, n_thresholds, rng) for k in kinds])
    if draw(st.booleans()):
        cells = rng.random(x.shape) < draw(st.sampled_from([0.02, 0.2]))
        x[cells] = rng.choice([np.nan, np.inf, -np.inf], size=int(cells.sum()))
    errors = rng.integers(0, draw(st.integers(2, 6)), size=n).astype(float)
    if draw(st.booleans()):  # a step the tree can learn
        column = x[:, rng.integers(x.shape[1])]
        errors += 4.0 * (column > column[rng.integers(n)])
    return x, errors, draw(st.integers(1, 9)), min_samples_leaf, n_thresholds


class TestFitMatchesPerNodeSort:
    """Sorting each column once per tree grows the trees the fitter that
    re-sorted at every node grew (``reference_fit``), node for node and
    coefficient byte for coefficient byte.

    One exception, in the bytes only: the quantile grid is taken over
    the sorted column, the oracle's over the column in row order, and
    where a column holds both -0.0 and +0.0 the two partitions may leave
    different zeros at a grid position, so an interpolated threshold of
    zero may carry the other sign — which no ``x <= threshold`` can see.
    No application's features hold a -0.0.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @settings(max_examples=300, deadline=None)
    @given(fitting_cases())
    def test_random_data(self, case):
        x, errors, max_depth, min_samples_leaf, n_thresholds = case
        tree = DecisionTreeErrorPredictor(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            n_thresholds=n_thresholds,
        ).fit(x, errors)
        want = reference_fit(
            x, errors, max_depth, min_samples_leaf, n_thresholds,
        )
        _assert_same_tree(tree, want, same_bytes=not _mixes_signed_zeros(x))

    @pytest.mark.parametrize("rumba", [True, False], ids=["rumba", "npu"])
    @pytest.mark.parametrize("name", APPLICATION_NAMES)
    def test_trained_applications(self, name, rumba):
        app = get_application(name)
        backend = prepare_backend(app, use_rumba_topology=rumba, seed=0)
        # The Rumba network's data is the checkers' (cached per process);
        # the unchecked network's is collected the same way.
        data = (checker_data(app, backend, seed=0) if rumba
                else collect_training_data(app, backend, seed=1))
        tree = train_predictor("treeErrors", data, seed=0)
        assert tree.depth == 7
        _assert_same_tree(tree, reference_fit(data.features, data.errors))


# --------------------------------------------------------------------- #
# The descent against the node-walk oracle                              #
# --------------------------------------------------------------------- #
@st.composite
def hand_built_trees(draw):
    """(root, n_features, threshold pool): bushy trees, left/right chains
    and single leaves, depth <= 9, thresholds drawn from a small pool so
    several nodes share one, leaf values on both sides of zero."""
    n_features = draw(st.integers(1, 20))
    pool = draw(st.lists(
        st.floats(-4.0, 4.0, allow_nan=False, width=32),
        min_size=1, max_size=6,
    ))
    shape = draw(st.sampled_from(["bushy", "left_chain", "right_chain"]))
    max_depth = draw(st.integers(0, 9))
    leaf = st.builds(TreeNode, value=st.floats(-1.0, 2.0, allow_nan=False))

    def grow(depth_left):
        if depth_left == 0 or (
            shape == "bushy" and draw(st.integers(0, 3)) == 0
        ):
            return draw(leaf)
        deep = grow(depth_left - 1)
        other = grow(depth_left - 1) if shape == "bushy" else draw(leaf)
        left, right = (other, deep) if shape == "right_chain" else (deep, other)
        return TreeNode(
            feature=draw(st.integers(0, n_features - 1)),
            threshold=draw(st.sampled_from(pool)),
            left=left, right=right,
        )

    return grow(max_depth), n_features, pool


def adversarial_inputs(pool, n, n_features, seed):
    """Rows mixing the tree's own thresholds (exact ties), their float
    neighbours, NaN, +-inf and ordinary values."""
    rng = np.random.default_rng(seed)
    ties = np.asarray(pool, dtype=float)
    candidates = np.concatenate([
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        [np.nan, np.inf, -np.inf, 0.0], rng.normal(scale=3.0, size=8),
    ])
    return rng.choice(candidates, size=(n, n_features))


class TestDescentMatchesNodeWalk:
    @settings(max_examples=120, deadline=None)
    @given(hand_built_trees(), st.sampled_from([1, 2, 7, 64, 4096]),
           st.integers(0, 2**16))
    def test_hand_built_trees(self, built, n, seed):
        root, n_features, pool = built
        x = adversarial_inputs(pool, n, n_features, seed)
        got = predictor_for(root, n_features).scores(features=x)
        assert np.array_equal(got, walk_scores(root, x), equal_nan=True)

    def test_single_leaf_has_depth_zero_tables(self):
        tree = predictor_for(TreeNode(value=-0.5), 3)
        x = np.array([[np.nan, 1.0, -np.inf], [0.0, 0.0, 0.0]])
        assert np.array_equal(tree.scores(features=x), [0.0, 0.0])

    def test_tie_goes_left_and_nan_goes_right_under_a_padded_leaf(self):
        # The left child is a leaf two levels above the bottom: rows that
        # reach it fall through padded slots, NaN cells included.
        root = TreeNode(
            feature=0, threshold=1.0,
            left=TreeNode(value=0.25),
            right=TreeNode(
                feature=1, threshold=1.0,
                left=TreeNode(value=0.5),
                right=TreeNode(feature=0, threshold=2.0,
                               left=TreeNode(value=0.75),
                               right=TreeNode(value=-3.0)),
            ),
        )
        x = np.array([[1.0, np.nan], [np.nan, 1.0], [np.nan, np.nan],
                      [2.0, np.inf], [np.inf, 2.0], [-np.inf, 0.0]])
        want = [0.25, 0.5, 0.0, 0.75, 0.0, 0.25]
        assert np.array_equal(walk_scores(root, x), want)
        assert np.array_equal(predictor_for(root, 2).scores(features=x), want)

    def test_single_column_lookup_at_and_around_every_cut(self):
        root = TreeNode(
            feature=0, threshold=0.5,
            left=TreeNode(feature=0, threshold=-1.0,
                          left=TreeNode(value=1.0), right=TreeNode(value=2.0)),
            # 0.5 again on the right: unreachable left branch, one cut.
            right=TreeNode(feature=0, threshold=0.5,
                           left=TreeNode(value=9.0), right=TreeNode(value=3.0)),
        )
        cuts = np.array([-1.0, 0.5])
        x = np.concatenate([
            cuts, np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf),
            [np.nan, np.inf, -np.inf],
        ])[:, None]
        got = predictor_for(root, 1).scores(features=x)
        assert np.array_equal(got, walk_scores(root, x))
        assert np.array_equal(got, [1, 2, 2, 3, 1, 2, 3, 3, 1])

    @pytest.mark.parametrize("name", APPLICATION_NAMES)
    def test_trained_application_trees(self, name):
        system = prepare_system(name, scheme="treeErrors", seed=0)
        pool = np.atleast_2d(system.app.test_inputs(np.random.default_rng(3)))
        features = system.backend.features(pool)
        for lo, n in ((0, 1), (5, 8), (100, 64), (17, 1000)):
            x = features[lo:lo + n]
            assert np.array_equal(
                system.predictor.scores(features=x),
                walk_scores(system.predictor.root, x),
            )


# --------------------------------------------------------------------- #
# State and input contract                                              #
# --------------------------------------------------------------------- #
def _fitted(n_features, seed=0, n=600):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    errors = np.abs(x[:, 0]) + 0.5 * (x[:, -1] > 0.3) + rng.normal(
        scale=0.05, size=n
    )
    return DecisionTreeErrorPredictor(min_samples_leaf=2).fit(x, errors)


class TestScoringState:
    @pytest.mark.parametrize("n_features", [1, 5])
    def test_copies_and_pickles_score_identically_and_carry_no_scratch(
        self, n_features, rng
    ):
        tree = _fitted(n_features)
        x = rng.normal(size=(64, n_features))
        want = tree.scores(features=x)
        assert hasattr(tree._scratch, "bufs") == (n_features > 1)
        for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone._scratch is not tree._scratch
            assert not hasattr(clone._scratch, "bufs")
            assert np.array_equal(clone.scores(features=x), want)
        assert np.array_equal(tree.scores(features=x), want)

    def test_reset_state_drops_scratch_and_keeps_the_tree(self, rng):
        tree = _fitted(4)
        x = rng.normal(size=(32, 4))
        want = tree.scores(features=x)
        tree.reset_state()
        assert not hasattr(tree._scratch, "bufs")
        assert np.array_equal(tree.scores(features=x), want)

    @pytest.mark.parametrize("widths", [(5, 3), (1, 4), (4, 1), (1, 1)])
    def test_refit_invalidates_the_tables(self, widths, rng):
        tree = _fitted(widths[0], seed=1)
        tree.scores(features=rng.normal(size=(16, widths[0])))
        rng2 = np.random.default_rng(2)
        x = rng2.normal(size=(500, widths[1]))
        tree.fit(x, np.abs(x[:, -1]))
        probe = rng.normal(size=(128, widths[1]))
        assert np.array_equal(
            tree.scores(features=probe), walk_scores(tree.root, probe)
        )

    def test_batch_size_changes_between_calls(self, rng):
        tree = _fitted(9)
        for n in (4096, 8, 4096, 1, 5000, 64):
            x = rng.normal(size=(n, 9))
            assert np.array_equal(
                tree.scores(features=x), walk_scores(tree.root, x)
            )

    def test_two_threads_score_different_batches_on_one_instance(self):
        tree = _fitted(6)
        batches = [np.random.default_rng(s).normal(size=(n, 6))
                   for s, n in ((10, 512), (11, 300))]
        want = [walk_scores(tree.root, x) for x in batches]
        mismatches, start = [], threading.Barrier(2)

        def worker(which):
            start.wait(timeout=10)
            for _ in range(400):
                if not np.array_equal(
                    tree.scores(features=batches[which]), want[which]
                ):
                    mismatches.append(which)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestScoringInputs:
    @pytest.mark.parametrize("n_features", [1, 7])
    def test_layouts_dtypes_and_read_only_inputs(self, n_features, rng):
        tree = _fitted(n_features)
        base = rng.normal(size=(96, 2 * n_features)).astype(np.float32)
        variants = {
            "float32": base[:, :n_features].copy(),
            "fortran": np.asfortranarray(
                base[:, :n_features].astype(float)),
            "row_strided": base.astype(float)[::2, :n_features],
            "col_reversed": base.astype(float)[:, ::-1][:, :n_features],
            "col_strided": base.astype(float)[:, ::2],
            "read_only": base[:, :n_features].astype(float),
        }
        variants["read_only"].flags.writeable = False
        for name, x in variants.items():
            before = x.tobytes()
            plain = np.ascontiguousarray(x, dtype=float)
            got = tree.scores(features=x)
            assert np.array_equal(got, tree.scores(features=plain)), name
            assert np.array_equal(got, walk_scores(tree.root, plain)), name
            assert x.tobytes() == before, name

    def test_one_row_given_as_a_vector(self):
        tree = _fitted(3)
        row = np.array([0.1, -0.2, 0.9])
        assert np.array_equal(
            tree.scores(features=row), walk_scores(tree.root, row)
        )

    @pytest.mark.parametrize("n_features", [1, 3])
    def test_zero_rows_score_to_an_empty_vector(self, n_features):
        tree = _fitted(n_features)
        assert tree.scores(features=np.empty((0, n_features))).shape == (0,)

    def test_depth_cap_of_the_tables(self):
        DecisionTreeErrorPredictor(max_depth=16)
        with pytest.raises(ConfigurationError, match="at most 16"):
            DecisionTreeErrorPredictor(max_depth=17)


# --------------------------------------------------------------------- #
# Allocation guard (host-independent: bytes and counts, not time)       #
# --------------------------------------------------------------------- #
def _warm_call_peak(tree, x):
    """(bytes tracemalloc saw live at the peak of a warmed call, result)."""
    tree.scores(features=x)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = tree.scores(features=x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, result


class TestScoringAllocations:
    def test_multi_column_call_allocates_little_beyond_its_result(self, rng):
        # The old descent peaked at 237 KB here: five vectors up front and
        # three temporaries per level.
        tree = _fitted(9, n=3000)
        assert tree.depth == 7
        peak, result = _warm_call_peak(tree, rng.normal(size=(4096, 9)))
        assert peak <= 1.5 * result.nbytes

    def test_single_column_call_holds_two_vectors_at_its_peak(self, rng):
        # tracemalloc cannot count allocations already freed, so "index
        # vector, result, nothing per level" is stated in bytes: two
        # n-vectors plus 1 KiB of array headers (the old descent peaked
        # at 3.5 KB here).
        peak, result = _warm_call_peak(_fitted(1), rng.normal(size=(64, 1)))
        assert peak <= 2 * result.nbytes + 1024


_SCORE_A_LOADED_TREE = """
import sys, numpy as np
from repro.predictors.tree import DecisionTreeErrorPredictor
tree = DecisionTreeErrorPredictor(min_samples_leaf=2)
tree.load_state(1, **np.load(sys.argv[1]))
assert tree.scores(features=np.linspace(-3, 3, 64)[:, None]).any()
print("numpy.ma" in sys.modules)
"""


class TestSingleColumnCuts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 1.5, -2.25, np.nan, 5e-324, -5e-324])
        | st.floats(width=64),
        max_size=40,
    ))
    def test_cuts_are_np_uniques_bit_for_bit(self, values):
        values = np.array(values, dtype=float)
        assert _distinct(values).tobytes() == np.unique(values).tobytes()

    def test_scoring_a_loaded_tree_does_not_import_numpy_ma(self, tmp_path):
        # np.unique's first call imports numpy.ma: ~17 ms that a fresh
        # shard would pay on its first scored request.
        path = tmp_path / "tree.npz"
        np.savez(path, **_fitted(1).state())
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        out = subprocess.run(
            [sys.executable, "-c", _SCORE_A_LOADED_TREE, str(path)],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        assert out.split() == ["False"]
