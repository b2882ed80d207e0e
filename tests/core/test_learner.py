"""Tests for :mod:`repro.core.learner` (per-attribute feedback models)."""

import numpy as np
import pytest

from repro.core import FeedbackLearner
from repro.db import Schema
from repro.repair import CandidateUpdate, Feedback


@pytest.fixture()
def schema():
    return Schema("r", ["src", "city", "zip"])


def _teach_pattern(learner, n=12):
    """Source H2 updates are confirmable; source H9 ones must be rejected."""
    for i in range(n):
        confirm = CandidateUpdate(i, "city", "Fort Wayne", 0.8)
        learner.add_example(confirm, ("H2", "FT Wayne", "46825"), Feedback.CONFIRM)
        reject = CandidateUpdate(100 + i, "city", "Garbage", 0.2)
        learner.add_example(reject, ("H9", "Fort Wayne", "46825"), Feedback.REJECT)
    learner.retrain("city")


class TestColdStart:
    def test_abstains_without_examples(self, schema):
        learner = FeedbackLearner(schema, seed=0)
        update = CandidateUpdate(0, "city", "Fort Wayne", 0.7)
        prediction = learner.predict(update, ("H2", "FT Wayne", "46825"))
        assert prediction.feedback is None
        assert not prediction.is_decision
        assert prediction.confirm_probability == pytest.approx(0.7)  # falls back to s
        assert prediction.uncertainty == 1.0

    def test_not_ready_below_min_examples(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=0)
        update = CandidateUpdate(0, "city", "v", 0.5)
        learner.add_example(update, ("H2", "a", "b"), Feedback.CONFIRM)
        learner.add_example(update, ("H2", "a", "b"), Feedback.REJECT)
        assert not learner.is_ready("city")
        assert learner.retrain("city") is False

    def test_not_ready_with_single_class(self, schema):
        learner = FeedbackLearner(schema, min_examples=2, seed=0)
        update = CandidateUpdate(0, "city", "v", 0.5)
        for __ in range(10):
            learner.add_example(update, ("H2", "a", "b"), Feedback.CONFIRM)
        assert not learner.is_ready("city")


class TestTrainedModel:
    def test_learns_source_correlation(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=0)
        _teach_pattern(learner)
        good = CandidateUpdate(999, "city", "Fort Wayne", 0.8)
        prediction = learner.predict(good, ("H2", "FT Wayne", "46825"))
        assert prediction.feedback is Feedback.CONFIRM
        bad = CandidateUpdate(998, "city", "Garbage", 0.2)
        prediction = learner.predict(bad, ("H9", "Fort Wayne", "46825"))
        assert prediction.feedback is Feedback.REJECT

    def test_confirm_probability_from_votes(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=0)
        _teach_pattern(learner)
        good = CandidateUpdate(999, "city", "Fort Wayne", 0.8)
        prediction = learner.predict(good, ("H2", "FT Wayne", "46825"))
        assert prediction.confirm_probability > 0.5

    def test_uncertainty_in_unit_range(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=0)
        _teach_pattern(learner)
        update = CandidateUpdate(0, "city", "Fort Wayne", 0.5)
        prediction = learner.predict(update, ("H5", "unseen", "unseen"))
        assert 0.0 <= prediction.uncertainty <= 1.0

    def test_retrain_only_when_stale(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=0)
        _teach_pattern(learner)
        assert learner.retrain("city") is False  # not stale anymore
        update = CandidateUpdate(0, "city", "v", 0.5)
        learner.add_example(update, ("H2", "a", "b"), Feedback.RETAIN)
        assert learner.retrain("city") is True

    def test_models_are_per_attribute(self, schema):
        learner = FeedbackLearner(schema, min_examples=5, seed=0)
        _teach_pattern(learner)
        zip_update = CandidateUpdate(0, "zip", "46825", 0.4)
        prediction = learner.predict(zip_update, ("H2", "Fort Wayne", "46391"))
        assert prediction.feedback is None  # zip model never trained

    def test_retrain_all(self, schema):
        learner = FeedbackLearner(schema, min_examples=2, seed=0)
        update_city = CandidateUpdate(0, "city", "v", 0.5)
        update_zip = CandidateUpdate(0, "zip", "z", 0.5)
        for fb in (Feedback.CONFIRM, Feedback.REJECT):
            learner.add_example(update_city, ("H1", "a", "b"), fb)
            learner.add_example(update_zip, ("H1", "a", "b"), fb)
        assert learner.retrain_all() == 2

    def test_example_counts(self, schema):
        learner = FeedbackLearner(schema, seed=0)
        _teach_pattern(learner, n=3)
        assert learner.example_count("city") == 6
        assert learner.total_examples() == 6

    def test_confirm_probability_shortcut(self, schema):
        learner = FeedbackLearner(schema, seed=0)
        update = CandidateUpdate(0, "city", "v", 0.33)
        assert learner.confirm_probability(update, ("a", "b", "c")) == pytest.approx(0.33)

    def test_confirm_probabilities_match_predict_many(self, schema):
        """The confirm-only pass over a column store returns exactly the
        ``p̃`` of :meth:`predict_many` (``None`` where it abstains) and
        leaves the encoder vocabularies as ``predict_many`` would."""
        from repro.db import Database

        rows = [
            ("H2", "FT Wayne", "46825"),
            ("H9", "Fort Wayne", "46825"),
            ("H7", "Fort Wyne", "46391"),
            ("H2", "Westville", "46391"),
        ]
        db = Database(schema, rows)
        updates = [
            CandidateUpdate(0, "city", "Fort Wayne", 0.8),
            CandidateUpdate(1, "city", "Garbage", 0.2),
            CandidateUpdate(2, "zip", "46825", 0.4),  # unfitted model: abstains
            CandidateUpdate(3, "city", "Never Seen", 0.6),
            CandidateUpdate(2, "city", "Fort Wayne", 0.5),
        ]
        by_rows = FeedbackLearner(schema, min_examples=5, seed=0)
        by_codes = FeedbackLearner(schema, min_examples=5, seed=0)
        for learner in (by_rows, by_codes):
            _teach_pattern(learner)
        expected = [
            None if p.feedback is None else p.confirm_probability
            for p in by_rows.predict_many(updates, [db.values_snapshot(u.tid) for u in updates])
        ]
        got: list = [None] * len(updates)
        stored = {}
        for attribute in ("city", "zip"):  # first-appearance order
            indices = [i for i, u in enumerate(updates) if u.attribute == attribute]
            encodings = np.full((len(indices), 2), -1.0)
            fractions = by_codes.confirm_probabilities(
                attribute,
                db.columns,
                np.array([updates[i].tid for i in indices]),
                [updates[i].value for i in indices],
                encodings,
            )
            stored[attribute] = (indices, encodings)
            for j, i in enumerate(indices):
                got[i] = None if fractions is None else float(fractions[j])
        assert got == expected
        assert got[2] is None and got[0] is not None
        assert by_codes.encoder.export_vocab() == by_rows.encoder.export_vocab()
        # the stored encodings vote the same p̃ without touching the
        # vocabularies; an abstaining attribute encodes nothing
        indices, encodings = stored["city"]
        assert (encodings[:, 0] >= 0).all()
        assert (stored["zip"][1] == -1).all()
        vocab = by_codes.encoder.export_vocab()
        again = by_codes.confirm_probabilities(
            "city",
            db.columns,
            np.array([updates[i].tid for i in indices]),
            ["unused"] * len(indices),
            encodings.copy(),
        )
        assert again.tolist() == [got[i] for i in indices]
        assert by_codes.encoder.export_vocab() == vocab

    def test_repr(self, schema):
        learner = FeedbackLearner(schema, seed=0)
        assert "models fitted" in repr(learner)
