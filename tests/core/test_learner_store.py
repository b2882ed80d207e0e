"""Warm-started learner store: growable matrices, incremental binning,
parity with the exact-sort reference, export-format round trips, refit
atomicity."""

import numpy as np
import pytest

from repro.core import FeedbackLearner
from repro.core.learner import _ExampleStore
from repro.db import Schema
from repro.ml.binning import bin_matrix
from repro.ml.encoding import FEEDBACK_CLASSES
from repro.ml.forest import HistogramForestClassifier, RandomForestClassifier
from repro.repair import CandidateUpdate, Feedback
from repro.testing import SessionKilled, arm, fault_scope
from tests.oracles.learner import random_state


@pytest.fixture()
def schema():
    return Schema("r", ["src", "city", "zip"])


def teach(learner, n=12, retrain=True):
    """Source H2 updates are confirmable; source H9 ones are rejected."""
    for i in range(n):
        confirm = CandidateUpdate(i, "city", "Fort Wayne", 0.8)
        learner.add_example(confirm, ("H2", f"FT Wayne {i % 3}", "46825"), Feedback.CONFIRM)
        reject = CandidateUpdate(100 + i, "city", "Garbage", 0.2)
        learner.add_example(reject, ("H9", "Fort Wayne", "46825"), Feedback.REJECT)
    if retrain:
        learner.retrain("city")


def probe_predictions(learner):
    good = CandidateUpdate(999, "city", "Fort Wayne", 0.8)
    bad = CandidateUpdate(998, "city", "Garbage", 0.2)
    return (
        learner.predict(good, ("H2", "FT Wayne 0", "46825")),
        learner.predict(bad, ("H9", "Fort Wayne", "46825")),
    )


class TestExampleStore:
    def test_growth_preserves_rows(self):
        store = _ExampleStore(3, capacity=2)
        rows = np.arange(30, dtype=np.float64).reshape(10, 3)
        for i, row in enumerate(rows):
            store.append(row, i % 2)
        assert len(store) == 10
        assert np.array_equal(store.X, rows)
        assert store.y.tolist() == [i % 2 for i in range(10)]
        assert store.n_classes_seen == 2

    def test_binned_equals_bin_matrix_after_appends(self):
        rng = np.random.default_rng(0)
        store = _ExampleStore(4)
        for __ in range(25):
            row = rng.integers(0, 5, size=4).astype(float)
            store.append(row, int(rng.integers(0, 3)))
        binned = store.binned()
        reference = bin_matrix(store.X)
        assert [v.tolist() for v in binned.bin_values] == [
            v.tolist() for v in reference.bin_values
        ]
        assert np.array_equal(np.asarray(binned.codes), np.asarray(reference.codes))

    def test_incremental_rebinning_on_vocabulary_growth(self):
        rng = np.random.default_rng(1)
        store = _ExampleStore(2)
        for __ in range(10):
            store.append(np.array([rng.integers(0, 3), rng.random()]), 0)
        store.binned()  # warm the encoding
        # appended rows: one re-uses the vocabulary, one grows it
        store.append(np.array([1.0, 0.5]), 1)
        store.append(np.array([99.0, 0.25]), 1)
        binned = store.binned()
        reference = bin_matrix(store.X)
        for got, want in zip(binned.bin_values, reference.bin_values):
            assert np.array_equal(got, want)
        assert np.array_equal(np.asarray(binned.codes), np.asarray(reference.codes))

    def test_from_arrays_round_trip(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 0.0]])
        y = np.array([0, 2, 0])
        store = _ExampleStore.from_arrays(X, y)
        assert np.array_equal(store.X, X)
        assert np.array_equal(store.y, y)
        assert store.n_classes_seen == 2
        more = np.array([5.0, 6.0])
        store.append(more, 1)
        assert len(store) == 4
        assert store.n_classes_seen == 3


class TestLearnerKinds:
    def test_invalid_kind_rejected(self, schema):
        """The exact-sort committees are test-side only; ``kind`` is gone."""
        with pytest.raises(TypeError, match="kind"):
            FeedbackLearner(schema, kind="exact")

    def test_default_kind_is_hist(self, schema):
        """A learner built with every default grows histogram committees."""
        learner = FeedbackLearner(schema)
        teach(learner)
        assert type(learner._models["city"]) is HistogramForestClassifier

    def test_hist_model_class(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=0)
        teach(learner)
        assert isinstance(learner._models["city"], HistogramForestClassifier)

    def test_hist_and_exact_agree_bit_for_bit(self, schema):
        hist = FeedbackLearner(schema, min_examples=5, seed=3)
        teach(hist)
        store = hist._stores["city"]
        exact = RandomForestClassifier(
            n_estimators=hist.n_estimators,
            max_depth=hist.max_depth,
            min_samples_leaf=hist.min_samples_leaf,
            random_state=random_state(hist, "city"),
        ).fit(store.X, store.y, n_classes=len(FEEDBACK_CLASSES))
        model = hist._models["city"]
        for features in store.X:
            label, fractions, uncertainty = model.predict_one(features)
            want_label, want_fractions, want_uncertainty = exact.predict_one(features)
            assert label == want_label
            assert np.array_equal(fractions, want_fractions)
            assert uncertainty == want_uncertainty
        th = model.trees
        te = exact.trees
        assert len(th) == len(te) == hist.n_estimators
        for a, b in zip(te, th):
            assert np.array_equal(a._feature, b._feature)
            assert np.array_equal(a._threshold, b._threshold)
            assert np.array_equal(a._proba, b._proba)

    def test_warm_refits_match_cold_learner(self, schema):
        """Incremental appends + repeated refits == one fresh learner
        fed the same examples (the warm bin tables change nothing)."""
        warm = FeedbackLearner(schema, min_examples=5, seed=7)
        for round_ in range(4):
            teach(warm, n=4 + round_, retrain=True)
        cold = FeedbackLearner(schema, min_examples=5, seed=7)
        for round_ in range(4):
            teach(cold, n=4 + round_, retrain=False)
        cold.retrain("city")
        # same accumulated examples, same seed -> same final committee
        assert np.array_equal(warm._stores["city"].X, cold._stores["city"].X)
        for a, b in zip(warm._models["city"].trees, cold._models["city"].trees):
            assert np.array_equal(a._feature, b._feature)
            assert np.array_equal(a._threshold, b._threshold)
            assert np.array_equal(a._proba, b._proba)
        for pw, pc in zip(probe_predictions(warm), probe_predictions(cold)):
            assert pw.confirm_probability == pc.confirm_probability


class TestExportRestore:
    def test_format2_round_trip(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=1)
        teach(learner)
        state = learner.export_state()
        assert state["format"] == 2
        clone = FeedbackLearner(schema, min_examples=5, seed=1)
        clone.restore_state(state)
        assert clone.total_examples() == learner.total_examples()
        assert clone.model_version("city") == learner.model_version("city")
        for pa, pb in zip(probe_predictions(learner), probe_predictions(clone)):
            assert pa == pb
        # the restored store keeps accepting examples and refitting
        teach(clone, n=2)
        assert clone.model_version("city") == learner.model_version("city") + 1

    def test_encoder_vocab_round_trips(self, schema):
        """The value→code dictionaries must survive export/restore.

        Committees are trained on the encoder's code assignment; a
        restored learner that re-encodes future values against a fresh
        vocabulary answers against the wrong dictionary (the original
        recovery-divergence bug the chaos refit-kill tests caught)."""
        learner = FeedbackLearner(schema, min_examples=5, seed=1)
        teach(learner)
        state = learner.export_state()
        assert state["vocab"] == learner.encoder.export_vocab()
        clone = FeedbackLearner(schema, min_examples=5, seed=1)
        clone.restore_state(state)
        for attr in schema.attributes:
            orig = learner.encoder.encoder_for(attr)
            rest = clone.encoder.encoder_for(attr)
            assert rest.export_values() == orig.export_values()
            for value in orig.export_values():
                assert rest.encode(value) == orig.encode(value)

    def test_legacy_format_restores(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=1)
        teach(learner)
        state = learner.export_state()
        # rewrite as the pre-store per-row format
        legacy = dict(state)
        del legacy["format"]
        examples = legacy.pop("examples")
        legacy["features"] = {a: [row.copy() for row in X] for a, (X, __) in examples.items()}
        legacy["labels"] = {a: [int(v) for v in y] for a, (__, y) in examples.items()}
        clone = FeedbackLearner(schema, min_examples=5, seed=1)
        clone.restore_state(legacy)
        assert clone.total_examples() == learner.total_examples()
        for pa, pb in zip(probe_predictions(learner), probe_predictions(clone)):
            assert pa == pb


class TestRefitAtomicity:
    def test_kill_mid_refit_leaves_previous_model_intact(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=2)
        teach(learner)
        before_model = learner._models["city"]
        before_version = learner.model_version("city")
        before_predictions = probe_predictions(learner)
        update = CandidateUpdate(0, "city", "v", 0.5)
        learner.add_example(update, ("H2", "a", "b"), Feedback.RETAIN)

        def kill(ctx):
            raise SessionKilled(f"injected kill at {ctx['point']}")

        with fault_scope():
            arm("learner.refit", action=kill, at=1)
            with pytest.raises(SessionKilled):
                learner.retrain("city")
        # no partial model is visible: same object, same version, same
        # answers, and the staleness flag still marks the refit as due
        assert learner._models["city"] is before_model
        assert learner.model_version("city") == before_version
        assert probe_predictions(learner) == before_predictions
        assert "city" in learner._stale
        # the re-run refit succeeds and matches a never-killed learner
        assert learner.retrain("city") is True
        reference = FeedbackLearner(schema, min_examples=5, seed=2)
        teach(reference)
        reference.add_example(update, ("H2", "a", "b"), Feedback.RETAIN)
        reference.retrain("city")
        assert probe_predictions(learner) == probe_predictions(reference)
