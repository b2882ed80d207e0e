"""ML substrate benchmark: histogram forest vs exact-sort reference.

Times the committee operations the interactive loop actually pays for,
on learner-shaped data (``len(schema) + 2`` feature columns holding
small dictionary codes plus one continuous similarity column, three
feedback classes — the exact workload :class:`repro.core.FeedbackLearner`
produces):

* ``test_fit_hist`` / ``test_fit_exact`` — cold committee fit (the
  learner's :class:`~repro.ml.forest.HistogramForestClassifier` vs the
  exact-sort :class:`~repro.ml.forest.RandomForestClassifier` it
  reproduces; the hist timing includes binning, so the ratio is
  end-to-end);
* ``test_predict_hist`` / ``test_predict_exact`` — batched committee
  inference over a drain-sized probe matrix (packed node arenas vs the
  per-tree reference walk);
* ``test_refit_warm_hist`` / ``test_refit_cold_exact`` — refit after a
  feedback batch lands: the warm path appends into the learner's
  growable pre-binned store, the cold path re-stacks and re-sorts
  everything from scratch (the pre-PR behaviour).

Every ``test_fit_hist`` entry carries a ``parity`` extra_info flag
(1 = the hist committee is bit-identical to the exact one on the same
data) so ``BENCH_ml.json`` records correctness next to the speedup;
``test_ml_decision_parity`` asserts the same thing as a plain test for
CI smoke runs without ``--benchmark-only``. Scale knob::

    REPRO_ML_SIZES  comma-separated example counts (default 200,1000,5000)
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.learner import _ExampleStore
from repro.ml import HistogramForestClassifier, RandomForestClassifier

SIZES = tuple(
    int(s) for s in os.environ.get("REPRO_ML_SIZES", "200,1000,5000").split(",")
)

#: Feedback classes (confirm / reject / retain).
N_CLASSES = 3
#: hospital schema width + suggested value + similarity.
N_FEATURES = 19
#: Dictionary codes per categorical column at bench scale.
VOCAB = 31
#: Rows landing between refits (one interactive batch's examples).
APPEND_ROWS = 20

FOREST_KW = dict(
    n_estimators=10, max_depth=12, min_samples_leaf=1, random_state=42
)

#: (kind, n) -> fitted model, shared with the parity checks.
_MODELS: dict[tuple[str, int], object] = {}


def make_examples(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Learner-shaped data: dictionary codes + one similarity float."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, VOCAB, size=(n, N_FEATURES)).astype(np.float64)
    X[:, -1] = rng.random(n).round(4)
    y = rng.integers(0, N_CLASSES, size=n)
    return X, y


def _fitted(kind: str, n: int):
    """The fitted committee for (kind, n), fitting once on first use."""
    key = (kind, n)
    if key not in _MODELS:
        X, y = make_examples(n)
        cls = HistogramForestClassifier if kind == "hist" else RandomForestClassifier
        model = cls(**FOREST_KW)
        model.fit(X, y, n_classes=N_CLASSES)
        _MODELS[key] = model
    return _MODELS[key]


def _committees_match(hist, exact) -> bool:
    """Bit-identical committees: same trees, votes, and importances."""
    if not np.array_equal(hist.feature_importances_, exact.feature_importances_):
        return False
    for th, te in zip(hist.trees, exact.trees):
        for name in ("_feature", "_threshold", "_left", "_right", "_proba"):
            if not np.array_equal(getattr(th, name), getattr(te, name)):
                return False
    probe, __ = make_examples(512, seed=99)
    return np.array_equal(hist.vote_fractions(probe), exact.vote_fractions(probe))


@pytest.mark.parametrize("n", SIZES)
def test_fit_exact(benchmark, n):
    """Cold fit, exact-sort CART reference (``RandomForestClassifier``)."""
    X, y = make_examples(n)

    def fit():
        model = RandomForestClassifier(**FOREST_KW)
        model.fit(X, y, n_classes=N_CLASSES)
        return model

    _MODELS[("exact", n)] = benchmark(fit)


@pytest.mark.parametrize("n", SIZES)
def test_fit_hist(benchmark, n):
    """Cold fit, histogram path (binning included — end-to-end cost)."""
    X, y = make_examples(n)

    def fit():
        model = HistogramForestClassifier(**FOREST_KW)
        model.fit(X, y, n_classes=N_CLASSES)
        return model

    _MODELS[("hist", n)] = benchmark(fit)
    benchmark.extra_info["parity"] = int(
        _committees_match(_MODELS[("hist", n)], _fitted("exact", n))
    )


@pytest.mark.parametrize("n", SIZES)
def test_predict_exact(benchmark, n):
    """Batched inference, per-tree reference walk."""
    model = _fitted("exact", n)
    probe, __ = make_examples(2000, seed=7)
    benchmark(model.vote_fractions, probe)


@pytest.mark.parametrize("n", SIZES)
def test_predict_hist(benchmark, n):
    """Batched inference, fused packed-arena walk across all trees."""
    model = _fitted("hist", n)
    probe, __ = make_examples(2000, seed=7)
    result = benchmark(model.vote_fractions, probe)
    assert np.array_equal(result, _fitted("exact", n).vote_fractions(probe))


@pytest.mark.parametrize("n", SIZES)
def test_refit_cold_exact(benchmark, n):
    """Refit after a batch, pre-PR shape: re-stack rows, exact fit."""
    X, y = make_examples(n)
    batch_X, batch_y = make_examples(APPEND_ROWS, seed=5)
    rows = [row for row in X] + [row for row in batch_X]
    labels = list(y) + list(batch_y)

    def refit():
        model = RandomForestClassifier(**FOREST_KW)
        model.fit(np.vstack(rows), np.asarray(labels), n_classes=N_CLASSES)
        return model

    benchmark(refit)


@pytest.mark.parametrize("n", SIZES)
def test_refit_warm_hist(benchmark, n):
    """Refit after a batch, warm path: append into the pre-binned store.

    Setup (untimed) builds the store and bins the first *n* rows, as a
    live learner would have already; the timed target appends one
    batch, re-bins incrementally, and fits from the shared codes.
    """
    X, y = make_examples(n)
    batch_X, batch_y = make_examples(APPEND_ROWS, seed=5)

    def setup():
        store = _ExampleStore.from_arrays(X, y)
        store.binned()
        return (store,), {}

    def refit(store):
        for row, label in zip(batch_X, batch_y):
            store.append(row, int(label))
        model = HistogramForestClassifier(**FOREST_KW)
        model.fit(store.X, store.y, n_classes=N_CLASSES, binned=store.binned())
        return model

    benchmark.pedantic(refit, setup=setup, rounds=5, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("n", SIZES)
def test_ml_decision_parity(n):
    """Bit-identical hist/exact committees, as a plain CI-smoke test."""
    assert _committees_match(_fitted("hist", n), _fitted("exact", n))


if __name__ == "__main__":  # pragma: no cover - manual convenience
    raise SystemExit(pytest.main([__file__, "--benchmark-only", "-q"]))
