"""Tests for :mod:`repro.ml.forest` (the committee of §4.2)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, NotFittedError
from repro.ml import HistogramForestClassifier, RandomForestClassifier
from repro.ml.forest import _VOTE_CHUNK_ROWS as _CHUNK


def _blobs(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 0.4, size=(n // 2, 3))
    X1 = rng.normal(2.0, 0.4, size=(n // 2, 3))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestForestFit:
    def test_learns_separable_blobs(self):
        X, y = _blobs()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert float(np.mean(forest.predict(X) == y)) > 0.95

    def test_committee_size(self):
        X, y = _blobs(40)
        forest = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(forest.trees) == 7

    def test_bootstrap_fraction(self):
        X, y = _blobs(40)
        forest = RandomForestClassifier(
            n_estimators=3, bootstrap_fraction=0.5, random_state=0
        ).fit(X, y)
        assert forest.predict(X).shape == (40,)

    def test_deterministic_given_seed(self):
        X, y = _blobs()
        a = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        assert np.array_equal(a.vote_fractions(X), b.vote_fractions(X))

    @pytest.mark.parametrize("kwargs", [{"n_estimators": 0}, {"bootstrap_fraction": 0.0}])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ConfigError):
            RandomForestClassifier(**kwargs)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            RandomForestClassifier().fit(np.ones((0, 2)), np.array([]))
        with pytest.raises(ConfigError):
            RandomForestClassifier().fit(np.ones((3, 2)), np.array([0, 1]))


class TestVotesAndUncertainty:
    def test_vote_fractions_sum_to_one(self):
        X, y = _blobs()
        forest = RandomForestClassifier(n_estimators=9, random_state=0).fit(X, y)
        fractions = forest.vote_fractions(X)
        np.testing.assert_allclose(fractions.sum(axis=1), 1.0)

    def test_vote_fractions_are_multiples_of_inverse_k(self):
        X, y = _blobs()
        k = 5
        forest = RandomForestClassifier(n_estimators=k, random_state=0).fit(X, y)
        fractions = forest.vote_fractions(X[:10])
        np.testing.assert_allclose((fractions * k) % 1.0, 0.0, atol=1e-9)

    def test_predict_proba_alias(self):
        X, y = _blobs(40)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        assert np.array_equal(forest.predict_proba(X), forest.vote_fractions(X))

    def test_uncertainty_low_on_clear_points(self):
        X, y = _blobs()
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        uncertainty = forest.uncertainty(X)
        assert uncertainty.mean() < 0.2

    def test_uncertainty_bounds(self):
        X, y = _blobs()
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        uncertainty = forest.uncertainty(X)
        assert np.all(uncertainty >= 0.0) and np.all(uncertainty <= 1.0)

    def test_predict_one(self):
        X, y = _blobs()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        label, fractions, uncertainty = forest.predict_one(X[0])
        assert label in (0, 1)
        assert fractions.shape == (2,)
        assert 0.0 <= uncertainty <= 1.0

    def test_not_fitted_errors(self):
        forest = RandomForestClassifier()
        with pytest.raises(NotFittedError):
            forest.predict(np.ones((1, 2)))
        with pytest.raises(NotFittedError):
            __ = forest.trees

    def test_three_classes(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(c, 0.3, size=(30, 2)) for c in (0.0, 2.0, 4.0)])
        y = np.repeat([0, 1, 2], 30)
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert float(np.mean(forest.predict(X) == y)) > 0.9
        assert forest.vote_fractions(X).shape == (90, 3)


class TestFloatingPointState:
    """The histogram grower scores only valid split lanes, so it needs no
    process-wide ``np.seterr`` toggle, and a failed fit leaves the
    floating-point error state as it found it."""

    def _data(self):
        rng = np.random.default_rng(12)
        X = rng.integers(0, 9, size=(90, 6)).astype(float)
        X[:, -1] = rng.random(90).round(2)
        return X, rng.integers(0, 3, size=90)

    @pytest.mark.parametrize("min_samples_leaf", [1, 2])
    def test_fit_completes_with_every_fp_error_raising(self, min_samples_leaf):
        X, y = self._data()
        kw = dict(n_estimators=6, min_samples_leaf=min_samples_leaf, random_state=4)
        with np.errstate(all="raise"):
            strict = HistogramForestClassifier(**kw).fit(X, y, n_classes=3)
            votes = strict.vote_fractions(X)
        relaxed = HistogramForestClassifier(**kw).fit(X, y, n_classes=3)
        assert np.array_equal(votes, relaxed.vote_fractions(X))

    def test_failed_fit_leaves_the_error_state_unchanged(self, monkeypatch):
        X, y = self._data()
        before = np.geterr()
        bincount = np.bincount
        calls = []

        def failing_bincount(*args, **kwargs):
            calls.append(None)
            if len(calls) > 20:  # past the roots, inside the rounds
                raise MemoryError("injected")
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", failing_bincount)
        with pytest.raises(MemoryError):
            HistogramForestClassifier(n_estimators=6, random_state=4).fit(X, y, n_classes=3)
        assert len(calls) > 20
        assert np.geterr() == before


class TestMaskFreeWalk:
    """The histogram committee's mask-free descent (leaves looping on
    themselves, a fixed number of levels) votes exactly like the
    exact-sort reference's per-tree walks."""

    @staticmethod
    def _pair(X, y, max_depth, seed):
        kwargs = {"n_estimators": 4, "max_depth": max_depth, "random_state": seed}
        exact = RandomForestClassifier(**kwargs).fit(X, y, n_classes=3)
        hist = HistogramForestClassifier(**kwargs).fit(X, y, n_classes=3)
        return exact, hist

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_train=st.integers(1, 40),
        n_features=st.integers(1, 4),
        levels=st.integers(1, 4),
        labels=st.integers(1, 3),
        max_depth=st.sampled_from([None, 1, 2, 5]),
        rows=st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
        seed=st.integers(0, 2**16),
    )
    def test_votes_equal_the_exact_reference(
        self, n_train, n_features, levels, labels, max_depth, rows, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n_train, n_features)).astype(np.float64)
        y = rng.integers(0, labels, size=n_train)
        exact, hist = self._pair(X, y, max_depth, seed)
        probe = rng.integers(-1, levels + 1, size=(rows, n_features)).astype(np.float64)
        expected = exact.vote_fractions(probe)
        assert np.array_equal(hist.vote_fractions(probe), expected)
        # a pickle round-trip keeps the node arrays, not the walk tables
        restored = pickle.loads(pickle.dumps(hist))
        assert "_walk" not in restored.__dict__
        assert np.array_equal(restored.vote_fractions(probe), expected)

    def test_a_committee_of_root_leaves(self):
        X = np.arange(12, dtype=np.float64).reshape(6, 2)
        y = np.ones(6, dtype=np.int64)  # one class: every root is a leaf
        exact, hist = self._pair(X, y, None, 0)
        assert hist._walk_tables()[3] == 0
        assert np.array_equal(hist.vote_fractions(X), exact.vote_fractions(X))
        assert hist.vote_fractions(X)[:, 1].tolist() == [1.0] * 6

    def test_depth_cap_bounds_the_walk(self):
        X, y = _blobs(80, seed=3)
        for max_depth in (1, 2, 3):
            exact, hist = self._pair(X, y, max_depth, 5)
            assert 1 <= hist._walk_tables()[3] <= max_depth
            assert np.array_equal(hist.vote_fractions(X), exact.vote_fractions(X))

    def test_pickled_bytes_ignore_the_walk_tables(self):
        X, y = _blobs(60, seed=1)
        hist = self._pair(X, y, 4, 2)[1]
        before = pickle.dumps(hist)
        hist.vote_fractions(X)
        assert "_walk" in hist.__dict__
        assert pickle.dumps(hist) == before
