"""Predict-one-apply-one reference for the batched learner drain.

:func:`decide_sequential` takes the same arguments as
:func:`repro.core.session.decide_batched` and predicts each update on
its live row right before deciding it — no snapshot view, no batching,
no wave bookkeeping.
"""

from __future__ import annotations

import repro.core.gdr
import repro.core.session
from repro.repair.feedback import UserFeedback


def decide_sequential(db, learner, state, manager, updates, decision_allowed, on_applied) -> int:
    """Decide *updates* one at a time, in order; returns the count applied."""
    applied = 0
    for update in updates:
        if not state.contains(update):
            continue
        prediction = learner.predict(update, db.values_snapshot(update.tid))
        if not decision_allowed(update, prediction):
            continue
        manager.apply_feedback(update, UserFeedback(prediction.feedback), source="learner")
        applied += 1
        on_applied()
    return applied


def use_sequential_drain(monkeypatch) -> None:
    """Route in-session delegation and the engine drain through the reference."""
    monkeypatch.setattr(repro.core.session, "decide_batched", decide_sequential)
    monkeypatch.setattr(repro.core.gdr, "decide_batched", decide_sequential)
