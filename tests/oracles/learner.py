"""Exact-sort CART committees in place of the histogram forest.

:class:`~repro.ml.forest.RandomForestClassifier` grows each tree with a
per-node argsort; the learner's
:class:`~repro.ml.forest.HistogramForestClassifier` must build the same
trees bit for bit from its warm-binned matrices.
"""

from __future__ import annotations

import zlib

import repro.core.learner
from repro.ml.forest import RandomForestClassifier


class ExactForest(RandomForestClassifier):
    """The exact-sort reference, accepting the histogram fit signature."""

    def fit(self, X, y, n_classes=None, binned=None):
        return super().fit(X, y, n_classes=n_classes)


def random_state(learner, attribute: str) -> int:
    """The committee seed :meth:`FeedbackLearner.retrain` uses for *attribute*."""
    return learner._seed + zlib.crc32(attribute.encode()) % 100_000


def use_exact_learner(monkeypatch) -> None:
    """Fit every committee built afterwards with the exact-sort reference."""
    monkeypatch.setattr(repro.core.learner, "HistogramForestClassifier", ExactForest)
