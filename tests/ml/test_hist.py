"""Histogram learner stack: bit-parity with the exact-sort reference.

The histogram CART and forest are required to reproduce the exact
reference *bit for bit* — same RNG stream, same float64 arithmetic,
same tie-breaks — which is what lets the histogram forest be the
learner's only committee without regolding a single trajectory. These tests pin that
contract with randomized property sweeps over the node arrays
themselves, not just predictions.
"""

import numpy as np
import pytest

from repro.ml.binning import BinnedMatrix, bin_matrix, code_dtype
from repro.ml.forest import HistogramForestClassifier, RandomForestClassifier
from repro.ml.metrics import vote_entropy
from repro.ml.tree import DecisionTreeClassifier, HistogramTreeClassifier

TREE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_proba", "_importances")


def assert_trees_identical(a, b):
    for name in TREE_ARRAYS:
        va, vb = getattr(a, name), getattr(b, name)
        assert va.shape == vb.shape, f"{name} shape {va.shape} != {vb.shape}"
        assert np.array_equal(va, vb), f"{name} differs"


def random_matrix(rng, n, m, kind):
    if kind == 0:  # pure categorical codes
        return rng.integers(0, int(rng.integers(2, 12)), size=(n, m)).astype(float)
    if kind == 1:  # mixed codes + one float column (the learner's shape)
        X = rng.integers(0, 6, size=(n, m)).astype(float)
        X[:, -1] = rng.random(n).round(2)
        return X
    return rng.normal(size=(n, m)).round(1)  # continuous with duplicates


class TestBinning:
    def test_lossless_round_trip(self):
        rng = np.random.default_rng(3)
        X = random_matrix(rng, 40, 5, 1)
        binned = bin_matrix(X)
        rebuilt = np.column_stack(
            [binned.bin_values[j][binned.codes[:, j]] for j in range(5)]
        )
        assert np.array_equal(rebuilt, X)

    def test_bin_values_sorted_unique(self):
        X = np.array([[3.0], [1.0], [3.0], [2.0]])
        binned = bin_matrix(X)
        assert binned.bin_values[0].tolist() == [1.0, 2.0, 3.0]
        assert binned.codes[:, 0].tolist() == [2, 0, 2, 1]

    def test_code_dtype_tiers(self):
        assert code_dtype(200) == np.uint8
        assert code_dtype(300) == np.uint16
        assert code_dtype(1 << 17) == np.uint32

    def test_take_shares_bin_tables(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        binned = bin_matrix(X)
        sub = binned.take(np.array([0, 3, 3]))
        assert isinstance(sub, BinnedMatrix)
        assert sub.bin_values is binned.bin_values
        assert np.array_equal(sub.codes, binned.codes[[0, 3, 3]])


class TestTreeParity:
    @pytest.mark.parametrize("trial", range(60))
    def test_randomized_node_arrays_identical(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(5, 100))
        m = int(rng.integers(1, 8))
        C = int(rng.integers(2, 6))
        X = random_matrix(rng, n, m, trial % 3)
        y = rng.integers(0, C, size=n)
        kw = dict(
            max_depth=[None, 3, 12][trial % 3],
            min_samples_leaf=int(rng.integers(1, 4)),
            max_features=["sqrt", None, 2][trial % 3] if m > 1 else None,
        )
        seed = int(rng.integers(0, 2**31))
        exact = DecisionTreeClassifier(random_state=seed, **kw).fit(X, y, n_classes=C)
        hist = HistogramTreeClassifier(random_state=seed, **kw).fit(X, y, n_classes=C)
        assert_trees_identical(exact, hist)

    def test_high_cardinality_column_exercises_compact_path(self):
        # > _HIST_MAX_BINS distinct values routes through the
        # node-compact split search; parity must hold there too
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.integers(0, 4, 600), rng.random(600)]).astype(float)
        y = rng.integers(0, 3, size=600)
        exact = DecisionTreeClassifier(random_state=5, max_depth=8).fit(X, y, n_classes=3)
        hist = HistogramTreeClassifier(random_state=5, max_depth=8).fit(X, y, n_classes=3)
        assert_trees_identical(exact, hist)

    def test_depth_property_matches_walk(self):
        rng = np.random.default_rng(2)
        X = random_matrix(rng, 80, 4, 0)
        y = rng.integers(0, 3, size=80)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y, n_classes=3)

        def scalar_depth(node=0):
            if tree._feature[node] == -1:
                return 0
            return 1 + max(
                scalar_depth(int(tree._left[node])), scalar_depth(int(tree._right[node]))
            )

        assert tree.depth == scalar_depth()


class TestForestParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_committee_bit_identical(self, seed):
        rng = np.random.default_rng(50 + seed)
        n, m, C = 150, 6, 4
        X = random_matrix(rng, n, m, 1)
        y = rng.integers(0, C, size=n)
        Xq = random_matrix(rng, 40, m, 1)
        # more rows than one vote_fractions chunk: walked chunk by chunk
        Xbig = random_matrix(rng, 600, m, 1)
        exact = RandomForestClassifier(
            n_estimators=10, max_depth=12, random_state=seed
        ).fit(X, y, n_classes=C)
        hist = HistogramForestClassifier(
            n_estimators=10, max_depth=12, random_state=seed
        ).fit(X, y, n_classes=C)
        for ta, tb in zip(exact.trees, hist.trees):
            assert_trees_identical(ta, tb)
        assert np.array_equal(exact.vote_fractions(X), hist.vote_fractions(X))
        assert np.array_equal(exact.vote_fractions(Xq), hist.vote_fractions(Xq))
        assert np.array_equal(exact.vote_fractions(Xbig), hist.vote_fractions(Xbig))
        assert np.array_equal(exact.predict(Xq), hist.predict(Xq))
        assert np.array_equal(exact.feature_importances_, hist.feature_importances_)
        assert np.array_equal(exact.uncertainty(Xq), hist.uncertainty(Xq))

    def test_fit_accepts_prebinned_matrix(self):
        rng = np.random.default_rng(4)
        X = random_matrix(rng, 60, 4, 1)
        y = rng.integers(0, 3, size=60)
        cold = HistogramForestClassifier(random_state=1).fit(X, y, n_classes=3)
        warm = HistogramForestClassifier(random_state=1).fit(
            X, y, n_classes=3, binned=bin_matrix(X)
        )
        for ta, tb in zip(cold.trees, warm.trees):
            assert_trees_identical(ta, tb)

    def test_predict_one_matches_reference(self):
        rng = np.random.default_rng(6)
        X = random_matrix(rng, 100, 5, 1)
        y = rng.integers(0, 3, size=100)
        exact = RandomForestClassifier(random_state=2).fit(X, y, n_classes=3)
        hist = HistogramForestClassifier(random_state=2).fit(X, y, n_classes=3)
        for row in X[:10]:
            la, fa, ua = exact.predict_one(row)
            lb, fb, ub = hist.predict_one(row)
            assert la == lb
            assert np.array_equal(fa, fb)
            assert ua == ub


def learner_matrix(rng, n):
    """The learner's shape: 12 dictionary-code columns (11 tuple values
    and the suggested value) plus one similarity float."""
    X = np.column_stack(
        [rng.integers(0, int(rng.integers(2, 40)), size=n) for __ in range(12)]
        + [rng.random(n).round(2)]
    ).astype(float)
    return X


def assert_committees_identical(exact, hist, X, Xq):
    assert len(exact.trees) == len(hist.trees)
    for ta, tb in zip(exact.trees, hist.trees):
        assert_trees_identical(ta, tb)
    for probe in (X, Xq):
        assert np.array_equal(exact.vote_fractions(probe), hist.vote_fractions(probe))
        assert np.array_equal(exact.uncertainty(probe), hist.uncertainty(probe))
    assert np.array_equal(exact.feature_importances_, hist.feature_importances_)


class TestForestParitySweep:
    """Every branch of the batched grower against the exact reference:
    class counts (the three-class fast sum and the generic one), the
    ``min_samples_leaf > 1`` valid mask, depth limits, feature
    subsampling and node sizes from a handful of rows to well past the
    loop's typical fit."""

    @pytest.mark.parametrize("trial", range(27))
    def test_randomized_committees_identical(self, trial):
        rng = np.random.default_rng(7000 + trial)
        C = (2, 3, 5)[trial % 3]
        kw = dict(
            min_samples_leaf=(1, 2, 3)[(trial // 3) % 3],
            max_depth=(None, 3, 12)[(trial // 9) % 3],
            max_features=("sqrt", None, 2)[(trial + trial // 3) % 3],
        )
        n = int(rng.integers(5, 251))
        X = learner_matrix(rng, n)
        y = rng.integers(0, C, size=n)
        Xq = learner_matrix(rng, 50)
        exact = RandomForestClassifier(n_estimators=6, random_state=trial, **kw).fit(
            X, y, n_classes=C
        )
        hist = HistogramForestClassifier(n_estimators=6, random_state=trial, **kw).fit(
            X, y, n_classes=C
        )
        assert_committees_identical(exact, hist, X, Xq)

    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    def test_high_cardinality_column_in_a_committee(self, min_samples_leaf):
        # > _HIST_MAX_BINS distinct similarity values: the committee's
        # node-compact path, next to fused-histogram columns
        rng = np.random.default_rng(31)
        X = learner_matrix(rng, 400)
        X[:, -1] = rng.random(400)
        assert len(np.unique(X[:, -1])) > 256
        y = rng.integers(0, 3, size=400)
        kw = dict(n_estimators=4, max_depth=8, min_samples_leaf=min_samples_leaf, max_features=None)
        exact = RandomForestClassifier(random_state=3, **kw).fit(X, y, n_classes=3)
        hist = HistogramForestClassifier(random_state=3, **kw).fit(X, y, n_classes=3)
        assert_committees_identical(exact, hist, X, learner_matrix(rng, 50))


class TestVectorizedUncertainty:
    def test_matches_scalar_vote_entropy(self):
        rng = np.random.default_rng(11)
        X = random_matrix(rng, 120, 5, 1)
        y = rng.integers(0, 4, size=120)
        forest = RandomForestClassifier(random_state=3).fit(X, y, n_classes=4)
        fractions = forest.vote_fractions(X)
        scalar = np.array([vote_entropy(f, 4) for f in fractions])
        assert np.array_equal(forest.uncertainty(X), scalar)

    def test_single_class_committee_is_certain(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.zeros(4, dtype=np.int64)
        forest = RandomForestClassifier(random_state=0).fit(X, y, n_classes=1)
        assert forest.uncertainty(X).tolist() == [0.0, 0.0, 0.0, 0.0]
