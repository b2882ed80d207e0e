"""The feedback learner: per-attribute random-forest committees (§4.2).

GDR trains one classification model ``M_Ai`` per attribute. Each model
predicts the expected user feedback (confirm / reject / retain) for a
suggested update on that attribute and exposes:

* the prediction itself (majority committee vote);
* the confirm probability ``p̃`` feeding the VOI formula (fraction of
  committee members voting *confirm*);
* the committee uncertainty (vote entropy) driving the active-learning
  ordering inside a group.

Before a model has enough labelled examples (or has seen only one
class), predictions abstain: ``p̃`` falls back to the update score
``s_j`` and the uncertainty is maximal — exactly the paper's cold-start
rule.

Committees are :class:`~repro.ml.forest.HistogramForestClassifier`
forests fitted from warm, incrementally binned example stores. They
are bit-identical to the exact-sort
:class:`~repro.ml.forest.RandomForestClassifier` on the same examples,
which the tests check down to every tree's node arrays.
"""

from __future__ import annotations

import zlib
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.db.schema import Schema
from repro.ml.binning import BinnedMatrix
from repro.ml.encoding import FEEDBACK_CLASSES, UpdateExampleEncoder, feedback_to_class
from repro.ml.forest import HistogramForestClassifier
from repro.ml.metrics import vote_entropy
from repro.repair.candidate import CandidateUpdate
from repro.repair.feedback import Feedback
from repro.repair.similarity import SimilarityFunction, similarity
from repro.testing.faults import fault_hit

__all__ = ["FeedbackLearner", "LearnerPrediction"]

class _ExampleStore:
    """Growable per-attribute training matrix with a warm rank encoding.

    Replaces the old list-of-1-row-arrays + ``np.vstack``-per-retrain
    layout: rows land in amortised doubling arrays, and the lossless
    bin encoding the histogram forest trains on is maintained
    *incrementally* — only rows appended since the last refit are
    re-ranked, and a column is fully re-encoded only when its
    vocabulary actually grew.
    """

    __slots__ = ("_X", "_y", "_n", "_classes", "_codes", "_bin_values", "_encoded")

    def __init__(self, n_features: int, capacity: int = 32) -> None:
        self._X = np.empty((capacity, n_features), dtype=np.float64)
        self._y = np.empty(capacity, dtype=np.int64)
        self._n = 0
        self._classes: set[int] = set()
        # int64 rank codes for rows [0, _encoded); grown with _X
        self._codes: np.ndarray | None = None
        self._bin_values: list[np.ndarray] | None = None
        self._encoded = 0

    @classmethod
    def from_arrays(cls, X: np.ndarray, y: np.ndarray) -> "_ExampleStore":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        store = cls(X.shape[1], capacity=max(32, len(y)))
        store._X[: len(y)] = X
        store._y[: len(y)] = y
        store._n = len(y)
        store._classes = {int(v) for v in np.unique(y)} if len(y) else set()
        return store

    def __len__(self) -> int:
        return self._n

    @property
    def n_features(self) -> int:
        return self._X.shape[1]

    @property
    def X(self) -> np.ndarray:
        """View of the filled rows (no copy, no vstack)."""
        return self._X[: self._n]

    @property
    def y(self) -> np.ndarray:
        return self._y[: self._n]

    @property
    def n_classes_seen(self) -> int:
        return len(self._classes)

    def append(self, features: np.ndarray, label: int) -> None:
        if self._n == len(self._y):
            capacity = max(32, 2 * len(self._y))
            X = np.empty((capacity, self.n_features), dtype=np.float64)
            X[: self._n] = self._X[: self._n]
            self._X = X
            y = np.empty(capacity, dtype=np.int64)
            y[: self._n] = self._y[: self._n]
            self._y = y
            if self._codes is not None:
                codes = np.empty((capacity, self.n_features), dtype=np.int64)
                codes[: self._encoded] = self._codes[: self._encoded]
                self._codes = codes
        self._X[self._n] = features
        self._y[self._n] = label
        self._n += 1
        self._classes.add(int(label))

    def binned(self) -> BinnedMatrix:
        """Lossless rank encoding of the current rows.

        Equal to ``bin_matrix(self.X)`` (same bin tables, same codes) —
        verified property-style in the test suite — but incremental:
        appended rows are ranked by ``searchsorted`` against the
        existing bin tables, and only a column that saw a *new* value
        pays a full re-encode (one ``np.unique`` over that column).
        """
        n, m = self._n, self.n_features
        if self._codes is None:
            self._codes = np.empty((len(self._y), m), dtype=np.int64)
            self._bin_values = [np.empty(0, dtype=np.float64)] * m
            self._encoded = 0
        if self._encoded < n:
            lo = self._encoded
            for j in range(m):
                values = self._bin_values[j]
                new = self._X[lo:n, j]
                if len(values):
                    pos = np.searchsorted(values, new)
                    inside = pos < len(values)
                    known = values[np.where(inside, pos, 0)] == new
                    if bool((inside & known).all()):
                        # vocabulary unchanged: ranks of the new rows
                        # are plain binary-search positions
                        self._codes[lo:n, j] = pos
                        continue
                values, inverse = np.unique(self._X[:n, j], return_inverse=True)
                self._bin_values[j] = values
                self._codes[:n, j] = inverse
            self._encoded = n
        return BinnedMatrix(self._codes[:n], tuple(self._bin_values))


@dataclass(frozen=True, slots=True)
class LearnerPrediction:
    """One model opinion about a suggested update.

    Attributes
    ----------
    feedback:
        Predicted feedback class, or ``None`` when the model abstains
        (not enough training data yet).
    confirm_probability:
        ``p̃``: committee fraction voting confirm; equals the update's
        own score while the model abstains.
    uncertainty:
        Committee vote entropy in [0, 1]; 1.0 while the model abstains.
    """

    feedback: Feedback | None
    confirm_probability: float
    uncertainty: float

    @property
    def is_decision(self) -> bool:
        """True when the learner is ready to decide for the user."""
        return self.feedback is not None


class FeedbackLearner:
    """Manages the per-attribute committee models and their training data.

    Parameters
    ----------
    schema:
        Relation schema (one model per attribute).
    sim:
        Relationship function ``R`` used as a feature.
    n_estimators, max_depth, min_samples_leaf:
        Committee hyper-parameters (paper: ``k = 10`` trees).
    min_examples:
        Minimum labelled examples (with ≥ 2 classes present) before a
        model starts making decisions.
    trust_min_samples / trust_min_accuracy:
        How much recent user-checked evidence, and how accurate it must
        be, before :meth:`is_trusted` lets the model decide for the
        user.
    seed:
        Base random seed; attribute models get independent streams.
    """

    def __init__(
        self,
        schema: Schema,
        sim: SimilarityFunction = similarity,
        n_estimators: int = 10,
        max_depth: int | None = 12,
        min_samples_leaf: int = 1,
        min_examples: int = 5,
        trust_min_samples: int = 8,
        trust_min_accuracy: float = 0.85,
        seed: int = 0,
    ) -> None:
        self.schema = schema
        self.encoder = UpdateExampleEncoder(schema, sim)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_examples = min_examples
        self.trust_min_samples = trust_min_samples
        self.trust_min_accuracy = trust_min_accuracy
        self._seed = seed
        self._stores: dict[str, _ExampleStore] = {
            a: _ExampleStore(self.encoder.n_features) for a in schema.attributes
        }
        self._models: dict[str, HistogramForestClassifier | None] = {
            a: None for a in schema.attributes
        }
        # bumped whenever an attribute's committee is refitted — the
        # cheap staleness check for caches of model-derived quantities
        # (the benefit cache's stored p̃ vectors)
        self._model_versions: dict[str, int] = {a: 0 for a in schema.attributes}
        self._stale: set[str] = set()
        # rolling record of "was the model's prediction confirmed by the
        # user?" — the basis of the paper's is-the-classifier-accurate
        # judgement that gates delegation
        self._validation: dict[str, deque[bool]] = {
            a: deque(maxlen=20) for a in schema.attributes
        }

    # ------------------------------------------------------------------
    # training data
    # ------------------------------------------------------------------
    def add_example(
        self,
        update: CandidateUpdate,
        row_values: Sequence[object],
        feedback: Feedback,
    ) -> None:
        """Record one labelled example for the update's attribute model.

        Parameters
        ----------
        update:
            The suggestion the feedback was about.
        row_values:
            The tuple's values *at suggestion time* (dirty snapshot).
        feedback:
            The user's (or oracle's) decision.
        """
        attr = update.attribute
        features = self.encoder.encode(row_values, attr, update.value)
        self._stores[attr].append(features, feedback_to_class(feedback))
        self._stale.add(attr)

    def example_count(self, attribute: str) -> int:
        """Labelled examples accumulated for one attribute."""
        return len(self._stores[attribute])

    def total_examples(self) -> int:
        """Labelled examples accumulated across all attributes."""
        return sum(len(v) for v in self._stores.values())

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    def is_ready(self, attribute: str) -> bool:
        """True when the attribute's model can make decisions."""
        store = self._stores[attribute]
        return len(store) >= self.min_examples and store.n_classes_seen >= 2

    def retrain(self, attribute: str) -> bool:
        """(Re)fit the attribute model if ready and stale.

        Returns True when a fit actually happened. The refit is atomic
        with respect to crashes: nothing below mutates learner state
        until the new committee is fully fitted, so a kill at the fault
        point (or anywhere mid-fit) leaves the previous model, its
        version and the staleness flag untouched — a restored session
        simply re-runs the refit.
        """
        if attribute not in self._stale or not self.is_ready(attribute):
            return False
        store = self._stores[attribute]
        fault_hit("learner.refit", attribute=attribute, examples=len(store))
        # zlib.crc32 is stable across processes (unlike hash(), which is
        # randomised by PYTHONHASHSEED) — runs must reproduce exactly
        random_state = self._seed + zlib.crc32(attribute.encode()) % 100_000
        model = HistogramForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            random_state=random_state,
        )
        # warm start: the store's incrementally maintained encoding
        # skips re-binning the rows every previous refit already saw
        model.fit(store.X, store.y, n_classes=len(FEEDBACK_CLASSES), binned=store.binned())
        self._models[attribute] = model
        self._model_versions[attribute] += 1
        self._stale.discard(attribute)
        return True

    def model_version(self, attribute: str) -> int:
        """Fit counter of the attribute's committee (0 while unfitted).

        Predictions for an update on *attribute* can only change when
        this version moves or the tuple's row values change — the
        invariant backing the cached VOI ranking.
        """
        return self._model_versions.get(attribute, 0)

    def retrain_all(self) -> int:
        """Refit every stale, ready model; returns the number fitted."""
        return sum(1 for attr in self.schema.attributes if self.retrain(attr))

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(
        self, update: CandidateUpdate, row_values: Sequence[object]
    ) -> LearnerPrediction:
        """Model opinion for a suggestion; abstains while cold.

        The caller is expected to have invoked :meth:`retrain` after
        the last batch of labels (the session does this), but a stale
        model still answers from its previous fit, mirroring the
        interactive behaviour described in §4.2.
        """
        attr = update.attribute
        model = self._models[attr]
        if model is None:
            return LearnerPrediction(
                feedback=None,
                confirm_probability=update.score,
                uncertainty=1.0,
            )
        features = self.encoder.encode(row_values, attr, update.value)
        label, fractions, uncertainty = model.predict_one(features)
        return LearnerPrediction(
            feedback=FEEDBACK_CLASSES[label],
            confirm_probability=float(fractions[feedback_to_class(Feedback.CONFIRM)]),
            uncertainty=float(uncertainty),
        )

    def predict_many(
        self,
        updates: Sequence[CandidateUpdate],
        rows: Sequence[Sequence[object]],
    ) -> list[LearnerPrediction]:
        """Model opinions for many suggestions, batching per attribute.

        Equivalent to calling :meth:`predict` per update (the committee
        arithmetic is row-independent, so the results are identical),
        but all updates sharing an attribute go through one vectorized
        committee pass instead of one single-row pass each — the hot
        path of the cached VOI ranking, the in-session uncertainty
        ordering, and the batched learner drain. Callers must ensure
        *rows* are consistent snapshots of the instance the predictions
        are about; when decisions write the database mid-batch, read
        rows through a :class:`~repro.db.snapshot.SnapshotView` and
        re-predict any update whose tuple was actually written (see
        :func:`~repro.core.session.decide_batched`).
        """
        results: list[LearnerPrediction | None] = [None] * len(updates)
        by_attr: dict[str, list[int]] = {}
        for i, update in enumerate(updates):
            if self._models[update.attribute] is None:
                results[i] = LearnerPrediction(
                    feedback=None,
                    confirm_probability=update.score,
                    uncertainty=1.0,
                )
            else:
                by_attr.setdefault(update.attribute, []).append(i)
        confirm_class = feedback_to_class(Feedback.CONFIRM)
        for attr, indices in by_attr.items():
            model = self._models[attr]
            X = self.encoder.encode_many(
                [rows[i] for i in indices], attr, [updates[i].value for i in indices]
            )
            fractions = model.vote_fractions(X)
            labels = np.argmax(fractions, axis=1)
            for j, i in enumerate(indices):
                row_fractions = fractions[j]
                results[i] = LearnerPrediction(
                    feedback=FEEDBACK_CLASSES[int(labels[j])],
                    confirm_probability=float(row_fractions[confirm_class]),
                    uncertainty=float(vote_entropy(row_fractions, model.n_classes_)),
                )
        return results

    def confirm_probabilities(
        self,
        attribute: str,
        columns,
        tids: np.ndarray,
        values: Sequence[object],
        encodings: np.ndarray,
    ) -> np.ndarray | None:
        """Committee confirm fraction ``p̃`` of suggestions on
        *attribute*, rows read from the column store *columns*;
        ``None`` while the model abstains.

        The suggestion ``i`` proposes ``values[i]`` for tuple
        ``tids[i]``. *encodings* are the suggestions' stored encodings
        (see
        :meth:`~repro.ml.encoding.UpdateExampleEncoder.encode_columns`):
        rows with code ``-1`` are encoded and filled in place, the
        others are reused. Equal to the confirm probabilities of
        :meth:`predict_many` over the same rows, without materialising
        predictions or vote entropies.
        """
        model = self._models[attribute]
        if model is None:
            return None
        X = self.encoder.encode_columns(
            columns, columns.positions_of(tids), attribute, values, encodings
        )
        return model.vote_fractions(X)[:, feedback_to_class(Feedback.CONFIRM)]

    def has_model(self, attribute: str) -> bool:
        """True once the attribute's committee has been fitted."""
        return self._models[attribute] is not None

    def confirm_probability(
        self, update: CandidateUpdate, row_values: Sequence[object]
    ) -> float:
        """``p̃_j`` for the VOI formula (score prior until trained)."""
        return self.predict(update, row_values).confirm_probability

    # ------------------------------------------------------------------
    # user validation of model predictions (paper §4.2: "the user is
    # the one to decide whether the classifiers are accurate")
    # ------------------------------------------------------------------
    def record_validation(self, attribute: str, correct: bool) -> None:
        """Record whether a model prediction agreed with the user."""
        self._validation[attribute].append(correct)

    def validation_accuracy(self, attribute: str) -> float | None:
        """Recent fraction of user-confirmed predictions (None if none)."""
        window = self._validation[attribute]
        if not window:
            return None
        return sum(window) / len(window)

    def is_trusted(
        self,
        attribute: str,
        min_samples: int | None = None,
        min_accuracy: float | None = None,
    ) -> bool:
        """True when the user would delegate decisions on *attribute*.

        Requires at least *min_samples* recent predictions checked by
        the user, of which a *min_accuracy* fraction were correct
        (defaults come from the constructor).
        """
        if min_samples is None:
            min_samples = self.trust_min_samples
        if min_accuracy is None:
            min_accuracy = self.trust_min_accuracy
        window = self._validation[attribute]
        if len(window) < min_samples:
            return False
        return sum(window) / len(window) >= min_accuracy

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Everything a checkpoint needs to rebuild this learner.

        Fitted committees are pickled directly — refitting on restore
        would reproduce them anyway (fits are seeded deterministically)
        but pickling keeps restore O(size) instead of O(refit) and
        works even for attributes whose staleness flag was clear.
        Training examples export as dense per-attribute ``(X, y)``
        arrays (format 2); :meth:`restore_state` also accepts the
        pre-store per-row list format of older checkpoints.
        """
        import pickle

        return {
            "format": 2,
            "examples": {
                a: (store.X.copy(), store.y.copy())
                for a, store in self._stores.items()
            },
            # the encoder's value→code dictionaries are trained-on
            # state: without them a restored session re-encodes future
            # examples against a fresh vocabulary and every fitted
            # committee answers garbage (a divergence the chaos suite's
            # mid-run kill tests would catch)
            "vocab": self.encoder.export_vocab(),
            "models": pickle.dumps(self._models),
            "model_versions": dict(self._model_versions),
            "stale": set(self._stale),
            "validation": {a: list(v) for a, v in self._validation.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Load a state produced by :meth:`export_state`.

        The learner must have been constructed with the same schema and
        hyper-parameters; afterwards predictions, versions and trust
        judgements are byte-identical to the checkpointed instance.
        Both the format-2 array layout and the legacy
        ``"features"``/``"labels"`` per-row layout are accepted, so
        checkpoints written before the store existed keep restoring.
        """
        import pickle

        if "vocab" in state:
            self.encoder.restore_vocab(state["vocab"])
        if "examples" in state:
            self._stores = {
                a: _ExampleStore.from_arrays(X, y)
                for a, (X, y) in state["examples"].items()
            }
        else:
            n_features = self.encoder.n_features
            self._stores = {}
            for a, rows in state["features"].items():
                store = _ExampleStore(n_features, capacity=max(32, len(rows)))
                for features, label in zip(rows, state["labels"][a]):
                    store.append(features, int(label))
                self._stores[a] = store
        self._models = pickle.loads(state["models"])
        self._model_versions = dict(state["model_versions"])
        self._stale = set(state["stale"])
        self._validation = {
            a: deque(v, maxlen=20) for a, v in state["validation"].items()
        }

    def feature_importances(self, attribute: str) -> dict[str, float] | None:
        """Per-feature importances of a fitted attribute model.

        Returns ``None`` while the model is unfitted. Keys are the
        schema attributes plus ``"suggested_value"`` and
        ``"similarity"`` — useful to inspect *what* the learner keys
        its confirm/reject decisions on (e.g. the data-entry source).
        """
        model = self._models[attribute]
        if model is None:
            return None
        return dict(zip(self.encoder.feature_names, model.feature_importances_))

    def __repr__(self) -> str:
        ready = sum(1 for a in self.schema.attributes if self._models[a] is not None)
        return f"FeedbackLearner({ready}/{len(self.schema)} models fitted, {self.total_examples()} examples)"
