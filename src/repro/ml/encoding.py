"""Feature encoding for the feedback learner.

A training example for model ``M_Ai`` (paper §4.2) is::

    ⟨t[A1], ..., t[An], v, R(t[Ai], v), F⟩

— the original (dirty) tuple values, the suggested value, a similarity
feature relating the current and suggested values, and the feedback
label. All categorical values are mapped to integer codes by
:class:`CategoricalEncoder`; the encoder grows its vocabulary on the
fly because active learning sees new values incrementally.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.db.schema import Schema
from repro.repair.feedback import Feedback
from repro.repair.similarity import SimilarityFunction, similarity

__all__ = ["FEEDBACK_CLASSES", "CategoricalEncoder", "UpdateExampleEncoder", "feedback_to_class"]

#: Fixed class ordering for feedback labels.
FEEDBACK_CLASSES: tuple[Feedback, ...] = (Feedback.CONFIRM, Feedback.REJECT, Feedback.RETAIN)

_CLASS_OF = {fb: i for i, fb in enumerate(FEEDBACK_CLASSES)}


def feedback_to_class(feedback: Feedback) -> int:
    """Map a feedback kind to its fixed class index (0/1/2)."""
    return _CLASS_OF[feedback]


class CategoricalEncoder:
    """Incremental value-to-code mapping for one categorical column.

    Codes start at 0 and grow as new values appear; encoding never
    fails on unseen values, which is essential for active learning.

    Examples
    --------
    >>> enc = CategoricalEncoder()
    >>> enc.encode("a"), enc.encode("b"), enc.encode("a")
    (0, 1, 0)
    >>> enc.decode(1)
    'b'
    """

    def __init__(self) -> None:
        self._codes: dict[object, int] = {}
        self._values: list[object] = []

    def encode(self, value: object) -> int:
        """The integer code of *value*, assigning a new one if unseen."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def decode(self, code: int) -> object:
        """The value carrying *code* (inverse of :meth:`encode`)."""
        return self._values[code]

    def export_values(self) -> list[object]:
        """The vocabulary in code order (for checkpoints)."""
        return list(self._values)

    @classmethod
    def from_values(cls, values: Sequence[object]) -> "CategoricalEncoder":
        """Rebuild an encoder whose codes match an exported vocabulary."""
        encoder = cls()
        for value in values:
            encoder.encode(value)
        return encoder

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._codes


class UpdateExampleEncoder:
    """Builds numeric feature vectors for suggested-update examples.

    The layout is ``[code(A1=t[A1]), ..., code(An=t[An]), code(Ai=v),
    R(t[Ai], v)]`` — one column per schema attribute, one for the
    suggested value (sharing the target attribute's vocabulary), and
    one continuous similarity feature.

    Parameters
    ----------
    schema:
        Relation schema of the repaired table.
    sim:
        Relationship function ``R`` (defaults to Eq. 7 similarity).
    """

    def __init__(self, schema: Schema, sim: SimilarityFunction = similarity) -> None:
        self.schema = schema
        self.sim = sim
        self._encoders = {attr: CategoricalEncoder() for attr in schema.attributes}
        # per attribute: (column-store vocabulary, its code -> our code,
        # -1 where not yet looked up). Both vocabularies are append-only
        # and map equal values to one code, so an entry never goes stale.
        self._code_maps: dict[str, tuple[object, np.ndarray]] = {}

    @property
    def n_features(self) -> int:
        """Width of the produced feature vectors."""
        return len(self.schema) + 2

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Column labels of the produced feature vectors."""
        return self.schema.attributes + ("suggested_value", "similarity")

    def encode(
        self,
        row_values: Sequence[object],
        attribute: str,
        suggested_value: object,
    ) -> np.ndarray:
        """Encode one example for model ``M_attribute``.

        Parameters
        ----------
        row_values:
            The tuple's values in schema order, *as they were when the
            update was suggested* (the dirty snapshot).
        attribute:
            The target attribute ``Ai``.
        suggested_value:
            The suggested replacement ``v``.
        """
        features = np.empty(self.n_features, dtype=np.float64)
        for i, attr in enumerate(self.schema.attributes):
            features[i] = self._encoders[attr].encode(row_values[i])
        features[len(self.schema)] = self._encoders[attribute].encode(suggested_value)
        current = row_values[self.schema.position(attribute)]
        features[len(self.schema) + 1] = float(self.sim(current, suggested_value))
        return features

    def encode_many(
        self,
        rows: Sequence[Sequence[object]],
        attribute: str,
        suggested_values: Sequence[object],
    ) -> np.ndarray:
        """Encode many examples for model ``M_attribute`` in one pass.

        Byte-identical to stacking :meth:`encode` row by row: every
        per-attribute encoder sees its values in the same first
        encounter order as the sequential path would feed it — each
        non-target column is one pass down the rows, and the target
        attribute's encoder interleaves each row's current value with
        its suggested value, exactly like ``encode`` does. The
        similarity feature routes through ``self.sim`` — the engine's
        shared code-space cache when wired by
        :class:`~repro.core.learner.FeedbackLearner`.
        """
        count = len(suggested_values)
        features = np.empty((count, self.n_features), dtype=np.float64)
        n_attrs = len(self.schema)
        target_pos = self.schema.position(attribute)
        for j, attr in enumerate(self.schema.attributes):
            if j == target_pos:
                continue
            encode = self._encoders[attr].encode
            features[:, j] = [encode(row[j]) for row in rows]
        target_encode = self._encoders[attribute].encode
        sim = self.sim
        for i, (row, suggested) in enumerate(zip(rows, suggested_values)):
            current = row[target_pos]
            features[i, target_pos] = target_encode(current)
            features[i, n_attrs] = target_encode(suggested)
            features[i, n_attrs + 1] = float(sim(current, suggested))
        return features

    def encode_columns(
        self,
        columns,
        rows: np.ndarray,
        attribute: str,
        suggested_values: Sequence[object],
        encodings: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`encode_many` for rows read from a column store's codes.

        *columns* is a :class:`~repro.db.columnar.ColumnStore` and
        *rows* are storage row positions. Byte-identical to
        :meth:`encode_many` over the decoded rows, and it feeds every
        per-attribute encoder the never-seen values in the same first
        encounter order; store codes already looked up translate
        through a per-attribute array instead of one dictionary lookup
        per cell.

        *encodings* (float64, ``(len(rows), 2)``) optionally holds a
        stored encoding of each example's suggested value: the last two
        feature columns, its code and its similarity, with code ``-1``
        where the example has not been encoded. Only those examples are
        encoded, and their rows are filled in place; the others reuse
        theirs, which stays exact while the example's row holds still.
        Such an example's values were all registered when it was
        encoded, so leaving it out changes neither the vocabularies nor
        the order in which they meet never-seen values. The
        similarities of the encoded examples go through one ``scores``
        batch when ``self.sim`` is a
        :class:`~repro.repair.similarity.SimilarityCache`.
        """
        count = len(suggested_values)
        if encodings is None:
            encodings = np.full((count, 2), -1.0)
        features = np.empty((count, self.n_features), dtype=np.float64)
        n_attrs = len(self.schema)
        target_pos = self.schema.position(attribute)
        for j, attr in enumerate(self.schema.attributes):
            if j != target_pos:
                codes = columns.codes(j)[rows]
                features[:, j] = self._translate(attr, columns.vocabulary(j), codes)
        vocab = columns.vocabulary(target_pos)
        current_codes = columns.codes(target_pos)[rows]
        fresh = np.flatnonzero(encodings[:, 0] < 0)
        if len(fresh):
            fresh_codes = current_codes[fresh]
            currents = vocab.decode_many(fresh_codes.tolist())
            values = [suggested_values[i] for i in fresh.tolist()]
            target_encode = self._encoders[attribute].encode
            if (self._code_map(attribute, vocab)[fresh_codes] >= 0).all():
                # every current value is known, so only suggestions can
                # meet the encoder for the first time
                encodings[fresh, 0] = [target_encode(value) for value in values]
            else:
                # interleave current and suggested values exactly like
                # encode_many does
                suggested_codes = []
                for current, value in zip(currents, values):
                    target_encode(current)
                    suggested_codes.append(target_encode(value))
                encodings[fresh, 0] = suggested_codes
            encodings[fresh, 1] = self._similarities(target_pos, currents, values)
        features[:, target_pos] = self._translate(attribute, vocab, current_codes)
        features[:, n_attrs:] = encodings
        return features

    def _similarities(
        self, pos: int, currents: list[object], values: list[object]
    ) -> list[float]:
        """``R(current, value)`` per pair; one code-space batch through
        a :class:`~repro.repair.similarity.SimilarityCache`."""
        scores = getattr(self.sim, "scores", None)
        if scores is None:
            return [float(self.sim(current, value)) for current, value in zip(currents, values)]
        requests = [(pos, current, (value,)) for current, value in zip(currents, values)]
        return [out[0] for out in scores(requests)]

    def _code_map(self, attribute: str, vocab) -> np.ndarray:
        entry = self._code_maps.get(attribute)
        if entry is None or entry[0] is not vocab:
            table = np.full(max(16, len(vocab)), -1, dtype=np.int64)
        elif len(entry[1]) < len(vocab):
            table = np.full(2 * len(vocab), -1, dtype=np.int64)
            table[: len(entry[1])] = entry[1]
        else:
            return entry[1]
        self._code_maps[attribute] = (vocab, table)
        return table

    def _translate(self, attribute: str, vocab, codes: np.ndarray) -> np.ndarray:
        """Our codes for store *codes* of one column, encoding values
        never looked up before in their first-encounter order."""
        table = self._code_map(attribute, vocab)
        out = table[codes]
        missing = out < 0
        if missing.any():
            unseen, first = np.unique(codes[missing], return_index=True)
            encode = self._encoders[attribute].encode
            for code in unseen[np.argsort(first)].tolist():
                table[code] = encode(vocab.decode(code))
            out = table[codes]
        return out

    def encoder_for(self, attribute: str) -> CategoricalEncoder:
        """The vocabulary encoder of one attribute (shared with ``v``)."""
        return self._encoders[attribute]

    def export_vocab(self) -> dict[str, list[object]]:
        """Per-attribute vocabularies in code order (for checkpoints).

        The code assignment is *state*: committees are trained on these
        codes, so a restored learner must encode future examples with
        the same value→code mapping or its models answer against the
        wrong dictionary.
        """
        return {a: enc.export_values() for a, enc in self._encoders.items()}

    def restore_vocab(self, vocab: dict[str, list[object]]) -> None:
        """Rebuild every attribute encoder from an exported vocabulary."""
        self._encoders = {
            a: CategoricalEncoder.from_values(values) for a, values in vocab.items()
        }
        self._code_maps.clear()
