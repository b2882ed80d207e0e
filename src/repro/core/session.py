"""One interactive active-learning session over a group (paper §4.2).

The user picked a group ``c``. The session then alternates:

1. order the group's live updates — by committee uncertainty (GDR) or
   randomly (GDR-S-Learning / no-learning);
2. the user labels the next batch of ``n_s`` updates; each label is
   routed through the consistency manager immediately and added to the
   learner's training set;
3. the learner is retrained and the remaining updates reordered.

When the user's per-group quota (or the global budget) is exhausted the
learner takes over and decides the group's remaining updates — the
paper's "user delegates the remaining decisions to the learned model".
Delegation and the engine's post-budget drain share one decision
engine, :func:`decide_batched`: one committee pass over the whole list
against a snapshot view, decisions applied in order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.effort import FeedbackBudget
from repro.core.grouping import UpdateGroup
from repro.core.learner import FeedbackLearner
from repro.core.user import UserOracle
from repro.db.database import Database
from repro.repair.candidate import CandidateUpdate
from repro.repair.consistency import ConsistencyManager
from repro.repair.feedback import Feedback, UserFeedback
from repro.repair.state import RepairState

__all__ = [
    "InteractiveSession",
    "SessionReport",
    "decide_batched",
    "delegation_allowed",
    "predict_many_snapshot",
]

ProgressCallback = Callable[[], None]

#: ``(update, prediction) -> bool``: the delegation gates.
DecisionGate = Callable[[CandidateUpdate, object], bool]


def delegation_allowed(
    learner: FeedbackLearner, max_decision_uncertainty: float, update, prediction
) -> bool:
    """The delegation gates, shared by every learner decision path.

    A decision requires a committee prediction with uncertainty at most
    *max_decision_uncertainty*; a *confirm* decision (the only one that
    writes the database) additionally requires a *trusted* model. One
    definition serves the engine drain and in-session delegation so the
    two can never diverge.
    """
    if not prediction.is_decision:
        return False
    if prediction.uncertainty > max_decision_uncertainty:
        return False
    if prediction.feedback is Feedback.CONFIRM and not learner.is_trusted(update.attribute):
        return False
    return True


def predict_many_snapshot(
    db: Database, learner: FeedbackLearner, updates: list[CandidateUpdate]
) -> list:
    """One batched committee pass with rows pinned by a snapshot view.

    The view's per-tuple pinning means a tuple carrying several
    suggestions is materialised once, not once per suggestion, and the
    rows form a consistent point-in-time image of the instance.
    """
    with db.snapshot_view() as view:
        rows = [view.values_snapshot(update.tid) for update in updates]
        return learner.predict_many(updates, rows)


def decide_batched(
    db: Database,
    learner: FeedbackLearner,
    state: RepairState,
    manager: ConsistencyManager,
    updates: list[CandidateUpdate],
    decision_allowed: DecisionGate,
    on_applied: ProgressCallback,
) -> int:
    """Batch-decide an ordered update list, byte-identical to one-by-one.

    The shared engine behind the batched learner drain and in-session
    delegation. One ``predict_many`` evaluates every candidate against
    a copy-on-write snapshot view — rows pinned at batch start, one
    materialisation per tuple however many suggestions it carries —
    then decisions are applied strictly in list order.

    It decides exactly as predicting and applying one update at a time
    would. That rests on three facts: predictions are pure (no model
    refits happen mid-batch), an apply writes at most its own update's
    tuple, and liveness (``state.contains``) is re-checked at each
    update's apply turn. The single hazard is a tuple carrying several live
    suggestions whose earlier suggestion *actually wrote* the row (a
    confirm — rejects and retains never write): such writes close a
    *wave*. Rather than cutting waves statically wherever a tuple
    might write, the batch is cut lazily — ``wrote_database`` applies
    record their tid, and a later update on a recorded tid is simply
    re-predicted against the live row, exactly what a one-at-a-time
    loop would have seen. The common case (no same-tuple write, e.g.
    every single-suggestion-per-tuple pass) is one committee pass for
    the whole list with zero re-predictions.

    Returns the number of decisions applied.
    """
    if not updates:
        return 0
    predictions = predict_many_snapshot(db, learner, updates)
    applied = 0
    written: set[int] = set()
    for update, prediction in zip(updates, predictions):
        if not state.contains(update):
            continue
        if update.tid in written:
            # an earlier confirm in this batch rewrote the tuple; the
            # batched prediction is stale — recompute on the live row
            prediction = learner.predict(update, db.values_snapshot(update.tid))
        if not decision_allowed(update, prediction):
            continue
        outcome = manager.apply_feedback(
            update, UserFeedback(prediction.feedback), source="learner"
        )
        if outcome.wrote_database:
            written.add(update.tid)
        applied += 1
        on_applied()
    return applied


@dataclass(slots=True)
class SessionReport:
    """What happened during one group session.

    Attributes
    ----------
    group_key:
        The inspected group's ``(attribute, value)`` key.
    labeled:
        User labels consumed.
    learner_decided:
        Updates decided by the learner after delegation.
    user_confirms / user_rejects / user_retains:
        Breakdown of the user labels.
    """

    group_key: tuple[str, object]
    labeled: int = 0
    learner_decided: int = 0
    user_confirms: int = 0
    user_rejects: int = 0
    user_retains: int = 0


class InteractiveSession:
    """Drives user + learner through one update group.

    Parameters
    ----------
    db, state, manager:
        Shared repair substrate.
    oracle:
        The (simulated) user.
    learner:
        The feedback learner, or ``None`` for the no-learning variants.
    ordering:
        ``"uncertainty"`` (active learning) or ``"random"`` (passive).
    batch_size:
        ``n_s``: labels between retrains.
    seed:
        Seed for the random ordering variant.
    """

    def __init__(
        self,
        db: Database,
        state: RepairState,
        manager: ConsistencyManager,
        oracle: UserOracle,
        learner: FeedbackLearner | None,
        ordering: str = "uncertainty",
        batch_size: int = 10,
        seed: int = 0,
        max_decision_uncertainty: float = 0.5,
    ) -> None:
        if ordering not in ("uncertainty", "random"):
            raise ValueError(f"ordering must be 'uncertainty' or 'random', got {ordering!r}")
        self.db = db
        self.state = state
        self.manager = manager
        self.oracle = oracle
        self.learner = learner
        self.ordering = ordering
        self.batch_size = batch_size
        self.max_decision_uncertainty = max_decision_uncertainty
        self._rng = np.random.default_rng(seed)

    @property
    def rng_state(self) -> dict:
        """The ordering RNG's serialisable state (for checkpoints)."""
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    # ------------------------------------------------------------------
    def run(
        self,
        group: UpdateGroup,
        quota: int,
        budget: FeedbackBudget,
        on_feedback: ProgressCallback | None = None,
        on_learner_decision: ProgressCallback | None = None,
    ) -> SessionReport:
        """Consume one group: user labels up to *quota*, learner finishes.

        Parameters
        ----------
        group:
            The group chosen from the top of the ranking.
        quota:
            Maximum user labels to spend on this group (``d_i``).
        budget:
            Global feedback budget shared across sessions.
        on_feedback / on_learner_decision:
            Optional hooks fired after each decision (used for
            trajectory recording).
        """
        report = SessionReport(group_key=group.key)
        while report.labeled < quota and not budget.exhausted:
            alive = self._alive_updates(group)
            if not alive:
                break
            ordered = self._order(alive)
            room = quota - report.labeled
            if budget.remaining is not None:
                room = min(room, budget.remaining)
            room = min(self.batch_size, room)
            if (
                self.ordering == "uncertainty"
                and self.learner is not None
                and room >= 2
                and len(ordered) > room
            ):
                # verification probe: spend one label on the model's
                # most CONFIDENT prediction. The user sees predictions
                # alongside the updates (§4.2) and inherently corrects
                # confident mistakes — without this, the accuracy the
                # user observes is biased toward the uncertain region
                # and never validates where delegation will act.
                batch = ordered[: room - 1] + [ordered[-1]]
            else:
                batch = ordered[:room]
            if not batch:
                break
            for update in batch:
                if not self.state.contains(update):
                    continue  # invalidated by an earlier apply in this batch
                self._label_one(update, report)
                budget.consume()
                if on_feedback is not None:
                    on_feedback()
            if self.learner is not None:
                if group.attribute == "*":
                    self.learner.retrain_all()
                else:
                    self.learner.retrain(group.attribute)
        if self.learner is not None:
            self._delegate(group, report, on_learner_decision)
        return report

    # ------------------------------------------------------------------
    def _alive_updates(self, group: UpdateGroup) -> list[CandidateUpdate]:
        return [u for u in group.updates if self.state.contains(u)]

    def _order(self, updates: list[CandidateUpdate]) -> list[CandidateUpdate]:
        if self.ordering == "random" or self.learner is None:
            order = self._rng.permutation(len(updates))
            return [updates[int(i)] for i in order]
        # Uncertainty first; ties (e.g. a cold model answering 1.0 for
        # everything) break toward high repair scores so early labels
        # land on probable genuine fixes rather than arbitrary cells.
        # No writes happen while ordering, so the snapshot rows are
        # simply the live rows, deduplicated per tuple.
        predictions = predict_many_snapshot(self.db, self.learner, updates)
        scored = [
            (-prediction.uncertainty, -update.score, update.cell, update)
            for update, prediction in zip(updates, predictions)
        ]
        scored.sort(key=lambda item: (item[0], item[1], item[2]))
        return [update for __, __, __, update in scored]

    def _label_one(self, update: CandidateUpdate, report: SessionReport) -> None:
        current = self.db.value(update.tid, update.attribute)
        row_snapshot = self.db.values_snapshot(update.tid)
        prediction = None
        if self.learner is not None:
            prediction = self.learner.predict(update, row_snapshot)
        feedback = self.oracle.review(update, current)
        if prediction is not None and prediction.is_decision:
            # the user inherently corrects the learner's mistakes; the
            # running agreement record is what decides delegation
            self.learner.record_validation(
                update.attribute, prediction.feedback is feedback.kind
            )
        report.labeled += 1
        if feedback.kind is Feedback.CONFIRM:
            report.user_confirms += 1
        elif feedback.kind is Feedback.REJECT:
            report.user_rejects += 1
        else:
            report.user_retains += 1
        if self.learner is not None:
            self.learner.add_example(update, row_snapshot, feedback.kind)
            if feedback.kind is Feedback.REJECT and feedback.has_correction:
                corrected = CandidateUpdate(
                    update.tid, update.attribute, feedback.correction, 1.0
                )
                self.learner.add_example(corrected, row_snapshot, Feedback.CONFIRM)
        self.manager.apply_feedback(update, feedback, source="user")

    def _delegate(
        self,
        group: UpdateGroup,
        report: SessionReport,
        on_learner_decision: ProgressCallback | None,
    ) -> None:
        """Let the learner decide the group's remaining updates.

        A decision requires a committee prediction with uncertainty at
        most ``max_decision_uncertainty``; a *confirm* decision (the
        only one that writes the database) additionally requires a
        *trusted* model — the user has recently checked the model's
        predictions and found them accurate (paper §4.2: the user
        decides whether the classifiers are accurate). Retain/reject
        decisions are reversible bookkeeping and may proceed on
        confidence alone. Everything else stays in the pool for later
        rounds or further user feedback.

        Decides through :func:`decide_batched` — one committee pass over
        the group against a snapshot view.
        """

        def applied() -> None:
            report.learner_decided += 1
            if on_learner_decision is not None:
                on_learner_decision()

        decide_batched(
            self.db,
            self.learner,
            self.state,
            self.manager,
            self._alive_updates(group),
            self._decision_allowed,
            applied,
        )

    def _decision_allowed(self, update: CandidateUpdate, prediction) -> bool:
        return delegation_allowed(self.learner, self.max_decision_uncertainty, update, prediction)
