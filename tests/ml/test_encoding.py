"""Tests for :mod:`repro.ml.encoding`."""

import numpy as np
import pytest

from repro.db import Schema
from repro.ml import (
    FEEDBACK_CLASSES,
    CategoricalEncoder,
    UpdateExampleEncoder,
    feedback_to_class,
)
from repro.repair import Feedback


class TestCategoricalEncoder:
    def test_codes_start_at_zero_and_grow(self):
        enc = CategoricalEncoder()
        assert enc.encode("a") == 0
        assert enc.encode("b") == 1
        assert enc.encode("a") == 0
        assert len(enc) == 2

    def test_decode_inverse(self):
        enc = CategoricalEncoder()
        enc.encode("x")
        enc.encode("y")
        assert enc.decode(1) == "y"

    def test_contains(self):
        enc = CategoricalEncoder()
        enc.encode("x")
        assert "x" in enc and "y" not in enc

    def test_mixed_types(self):
        enc = CategoricalEncoder()
        assert enc.encode(42) != enc.encode("42")


class TestFeedbackClasses:
    def test_fixed_ordering(self):
        assert FEEDBACK_CLASSES == (Feedback.CONFIRM, Feedback.REJECT, Feedback.RETAIN)

    def test_feedback_to_class(self):
        assert feedback_to_class(Feedback.CONFIRM) == 0
        assert feedback_to_class(Feedback.REJECT) == 1
        assert feedback_to_class(Feedback.RETAIN) == 2


class TestUpdateExampleEncoder:
    @pytest.fixture()
    def encoder(self):
        return UpdateExampleEncoder(Schema("r", ["a", "b", "c"]))

    def test_feature_width(self, encoder):
        assert encoder.n_features == 5  # 3 attrs + suggested value + similarity

    def test_encode_shape_and_dtype(self, encoder):
        features = encoder.encode(("x", "y", "z"), "b", "w")
        assert features.shape == (5,)
        assert features.dtype == np.float64

    def test_similarity_feature_for_identical_value(self, encoder):
        features = encoder.encode(("x", "y", "z"), "b", "y")
        assert features[-1] == 1.0

    def test_similarity_feature_for_different_value(self, encoder):
        features = encoder.encode(("x", "y", "z"), "b", "completely-different")
        assert 0.0 <= features[-1] < 1.0

    def test_same_example_same_features(self, encoder):
        one = encoder.encode(("x", "y", "z"), "a", "v")
        two = encoder.encode(("x", "y", "z"), "a", "v")
        assert np.array_equal(one, two)

    def test_suggested_value_shares_attribute_vocabulary(self, encoder):
        # encode a row where attribute 'a' holds "v", then suggest "v":
        # the suggestion column must reuse the same code
        features = encoder.encode(("v", "y", "z"), "a", "v")
        assert features[0] == features[3]

    def test_unseen_values_never_fail(self, encoder):
        for i in range(50):
            encoder.encode((f"x{i}", f"y{i}", f"z{i}"), "c", f"new{i}")

    def test_encoder_for(self, encoder):
        encoder.encode(("x", "y", "z"), "a", "v")
        assert "x" in encoder.encoder_for("a")

    def test_custom_similarity(self):
        enc = UpdateExampleEncoder(Schema("r", ["a"]), sim=lambda u, v: 0.42)
        features = enc.encode(("x",), "a", "y")
        assert features[-1] == pytest.approx(0.42)


class TestEncodeMany:
    """`encode_many` must be byte-identical to stacking `encode` calls."""

    def _examples(self):
        rows = [
            ("x", "y", "z"),
            ("x2", "y", "z2"),
            ("x", "y3", "z"),
            ("x4", "y4", "z4"),
        ]
        suggested = ["w", "y", "fresh", "y4"]
        return rows, suggested

    def test_matches_sequential_encode(self):
        rows, suggested = self._examples()
        sequential = UpdateExampleEncoder(Schema("r", ["a", "b", "c"]))
        expected = np.vstack(
            [sequential.encode(row, "b", value) for row, value in zip(rows, suggested)]
        )
        batched = UpdateExampleEncoder(Schema("r", ["a", "b", "c"]))
        got = batched.encode_many(rows, "b", suggested)
        assert np.array_equal(got, expected)

    def test_fresh_values_interleave_like_sequential(self):
        """The target attribute's encoder sees row value then suggested
        value per example — a column-major pass would assign different
        codes when both are new."""
        rows = [("r0",), ("r1",)]
        suggested = ["s0", "s1"]
        sequential = UpdateExampleEncoder(Schema("r", ["a"]))
        expected = np.vstack(
            [sequential.encode(row, "a", value) for row, value in zip(rows, suggested)]
        )
        batched = UpdateExampleEncoder(Schema("r", ["a"]))
        got = batched.encode_many(rows, "a", suggested)
        assert np.array_equal(got, expected)
        # interleaved assignment: r0=0, s0=1, r1=2, s1=3
        assert got[:, 0].tolist() == [0.0, 2.0]
        assert got[:, 1].tolist() == [1.0, 3.0]

    def test_custom_similarity_applies_per_row(self):
        rows, suggested = self._examples()
        enc = UpdateExampleEncoder(Schema("r", ["a", "b", "c"]), sim=lambda u, v: 0.42)
        got = enc.encode_many(rows, "b", suggested)
        assert got[:, -1].tolist() == [0.42] * len(rows)

    def test_empty_batch(self):
        enc = UpdateExampleEncoder(Schema("r", ["a", "b", "c"]))
        got = enc.encode_many([], "b", [])
        assert got.shape == (0, enc.n_features)

    def test_shared_state_with_sequential_use(self):
        # encode_many grows the same vocabularies encode uses
        enc = UpdateExampleEncoder(Schema("r", ["a", "b"]))
        enc.encode_many([("x", "y")], "b", ["w"])
        single = enc.encode(("x", "y"), "b", "w")
        assert np.array_equal(enc.encode_many([("x", "y")], "b", ["w"])[0], single)


class TestEncodeColumns:
    """`encode_columns` over a column store must equal `encode_many`
    over the decoded rows, and grow every vocabulary in the same order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_encode_many_through_growth(self, seed):
        import random

        from repro.db.columnar import ColumnStore

        rng = random.Random(seed)
        schema = Schema("r", ["a", "b", "c"])
        pool = [f"v{i}" for i in range(9)]
        rows = {tid: [rng.choice(pool) for __ in range(3)] for tid in range(12)}
        store = ColumnStore(schema, rows.items())
        by_rows = UpdateExampleEncoder(schema)
        by_codes = UpdateExampleEncoder(schema)
        for __ in range(25):
            roll = rng.random()
            if roll < 0.2:
                # a write, possibly of a value the store never held
                tid, pos = rng.randrange(12), rng.randrange(3)
                value = rng.choice(pool + [f"new{rng.randrange(50)}"])
                rows[tid][pos] = value
                store.set_cell(tid, pos, value)
            elif roll < 0.3:
                # a training example encodes outside the batch path
                tid, attribute = rng.randrange(12), rng.choice(schema.attributes)
                value = rng.choice(pool)
                by_rows.encode(rows[tid], attribute, value)
                by_codes.encode(rows[tid], attribute, value)
            else:
                tids = [rng.randrange(12) for __ in range(rng.randrange(1, 7))]
                attribute = rng.choice(schema.attributes)
                suggested = [rng.choice(pool + ["s1", "s2"]) for __ in tids]
                expected = by_rows.encode_many([rows[t] for t in tids], attribute, suggested)
                positions = np.array([store.position_of(t) for t in tids], dtype=np.int64)
                encodings = np.full((len(tids), 2), -1.0)
                got = by_codes.encode_columns(store, positions, attribute, suggested, encodings)
                assert np.array_equal(got, expected)
                # the encodings it stored reproduce the features of the
                # unchanged rows without touching a vocabulary
                vocab = by_codes.export_vocab()
                unused = ["unused"] * len(tids)
                again = by_codes.encode_columns(store, positions, attribute, unused, encodings)
                assert np.array_equal(again, expected)
                assert by_codes.export_vocab() == vocab
            assert by_codes.export_vocab() == by_rows.export_vocab()

    def test_restored_vocabulary_drops_translations(self):
        from repro.db.columnar import ColumnStore

        schema = Schema("r", ["a", "b"])
        store = ColumnStore(schema, [(0, ["x", "y"]), (1, ["z", "y"])])
        enc = UpdateExampleEncoder(schema)
        rows = np.array([0, 1], dtype=np.int64)
        enc.encode_columns(store, rows, "b", ["w", "w"])
        enc.restore_vocab({"a": ["z", "x"], "b": ["w", "y"]})
        got = enc.encode_columns(store, rows, "b", ["w", "w"])
        assert got[:, 0].tolist() == [1.0, 0.0]
        assert got[:, 1].tolist() == [1.0, 1.0]
