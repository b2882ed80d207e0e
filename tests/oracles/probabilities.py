"""p̃ re-predicted from scratch for every member.

:class:`~repro.core.voi.GroupBenefitCache` keeps each member's
committee encoding beside its stored ``p̃`` and, after a refit, votes a
member whose row held still from that encoding with the mask-free
committee walk. The reference here re-encodes every member it is asked
about, row by row through
:meth:`~repro.ml.encoding.UpdateExampleEncoder.encode_many`, and votes
with the per-tree views of the committee.
"""

from __future__ import annotations

import types

import numpy as np

from repro.ml.encoding import FEEDBACK_CLASSES
from repro.repair.feedback import Feedback


def fresh_confirm_probabilities(learner, attribute, columns, tids, values, encodings):
    """:meth:`FeedbackLearner.confirm_probabilities` re-encoding every
    member; the encodings it returns through *encodings* are fresh."""
    model = learner._models[attribute]
    if model is None:
        return None
    width = len(columns.schema)
    rows = []
    for tid in np.asarray(tids).tolist():
        row = columns.position_of(tid)
        rows.append([columns.vocabulary(j).decode(columns.code_at(row, j)) for j in range(width)])
    X = learner.encoder.encode_many(rows, attribute, list(values))
    encodings[:] = X[:, width:]
    votes = np.zeros((len(rows), model.n_classes_))
    for tree in model.trees:
        votes[np.arange(len(rows)), tree.predict(X)] += 1.0
    fractions = votes / len(model.trees)
    return fractions[:, FEEDBACK_CLASSES.index(Feedback.CONFIRM)]


def use_fresh_probabilities(learner) -> None:
    """Make *learner* (one instance) re-encode every member it predicts."""
    learner.confirm_probabilities = types.MethodType(fresh_confirm_probabilities, learner)
