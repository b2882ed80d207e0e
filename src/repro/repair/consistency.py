"""The updates consistency manager (paper §3 and Appendix A.5).

Once an update is confirmed — by the user or by the learner — it is
applied to the database immediately. The manager then restores the two
invariants of Appendix A.5:

(i)  every tuple violating some rule is (again) known to be dirty and
     has candidate updates where derivable;
(ii) no live suggestion depends on cell values that the applied update
     changed — such suggestions are regenerated against the new
     instance.

Because :class:`~repro.constraints.violations.ViolationDetector`
maintains violations incrementally via database listeners, invariant
(i) reduces to regenerating updates for the tuples whose violation
status the write could have altered: the written tuple itself and the
tuples that shared (before or after the write) a variable-CFD partition
with it.

Step 9 of the GDR process (cover newly dirty tuples, prune clean ones)
runs in **O(delta)**: the manager holds a
:class:`~repro.constraints.violations.DirtyDelta` cursor over the
detector's dirty-set transitions and listens to
:class:`~repro.repair.state.RepairState` events for lost coverage —
each :meth:`ConsistencyManager.refresh_suggestions` walks only that
union (plus the persistent set of dirty-but-uncoverable tuples, which
the paper's process re-attempts every round). A write's revisit
regenerates its tuples' suggestions itself, so they need no second
look. The full sweep, :meth:`ConsistencyManager.refresh_suggestions_full`,
serves the first refresh and any refresh after a state clear, and is
the reference the delta refresh is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.repository import RuleSet
from repro.constraints.violations import ViolationDetector
from repro.db.changelog import CellChange
from repro.db.database import Database
from repro.repair.candidate import CandidateUpdate
from repro.repair.feedback import Feedback, UserFeedback
from repro.repair.generator import UpdateGenerator
from repro.repair.state import EventKind, RepairState, StateEvent

__all__ = ["AppliedFeedback", "ConsistencyManager"]


@dataclass(frozen=True, slots=True)
class AppliedFeedback:
    """Outcome of routing one feedback decision through the manager.

    Attributes
    ----------
    update:
        The suggestion the feedback was about.
    feedback:
        The decision that was applied.
    applied_value:
        Value actually written to the database (``None`` when nothing
        was written — reject without correction, or retain).
    revisited_cells:
        Cells whose suggestions were invalidated and regenerated.
    replacement:
        The new suggestion generated for the same cell after a plain
        reject, if any.
    """

    update: CandidateUpdate
    feedback: UserFeedback
    applied_value: object | None = None
    revisited_cells: tuple[tuple[int, str], ...] = field(default_factory=tuple)
    replacement: CandidateUpdate | None = None

    @property
    def wrote_database(self) -> bool:
        """True when the decision modified the database."""
        return self.applied_value is not None


class ConsistencyManager:
    """Applies feedback decisions and keeps PossibleUpdates consistent."""

    def __init__(
        self,
        db: Database,
        rules: RuleSet,
        detector: ViolationDetector,
        state: RepairState,
        generator: UpdateGenerator,
    ) -> None:
        self.db = db
        self.rules = rules
        self.detector = detector
        self.state = state
        self.generator = generator
        # optional write-ahead journal (repro.db.journal.FeedbackJournal):
        # when set, every feedback decision is journaled on entry to
        # apply_feedback, before any routing or database write
        self.journal = None
        # trigger hook (paper §3): out-of-band edits — data entry, other
        # tools — must also keep PossibleUpdates consistent. Writes the
        # manager itself performs are handled by the feedback path and
        # suppressed here.
        self._suspend_trigger = False
        # --- O(delta) refresh bookkeeping -----------------------------
        # dirty-status flips since the last refresh, straight from the
        # detector's tracker
        self._dirty_cursor = detector.dirty_delta()
        # tuples stripped of a suggestion (state REMOVED events): their
        # coverage may have drifted
        self._touched: set[int] = set()
        # dirty tuples for which generation produced nothing — the full
        # sweep re-attempts them every round (the database may have
        # changed elsewhere, opening new candidate values), so the delta
        # path must too
        self._uncovered: set[int] = set()
        # the delta machinery ignores state events the refresh itself
        # causes: every mutation inside a refresh concerns a tuple the
        # sweep is already processing
        self._in_refresh = False
        self._need_full = False
        state.add_listener(self._on_state_event)
        db.add_listener(self._on_external_change)

    def detach(self) -> None:
        """Stop watching out-of-band database edits and state events."""
        self.db.remove_listener(self._on_external_change)
        self.state.remove_listener(self._on_state_event)

    def _on_external_change(self, change: CellChange) -> None:
        if self._suspend_trigger:
            return
        # the database writes its code matrix synchronously inside
        # set_value, before listeners fire, so regeneration below always
        # sees the post-write instance
        self._revisit_after_write(change.tid, change.attribute)

    def _on_state_event(self, event: StateEvent) -> None:
        if self._in_refresh:
            return
        if event.kind is EventKind.CLEARED:
            # the pool was wiped wholesale — delta bookkeeping is void
            self._need_full = True
            self._touched.clear()
            self._uncovered.clear()
        elif event.kind is EventKind.REMOVED:
            # a tuple may have lost its last suggestion while staying
            # dirty; the next refresh re-examines it
            self._touched.add(event.cell[0])

    # ------------------------------------------------------------------
    def apply_feedback(
        self, update: CandidateUpdate, feedback: UserFeedback, source: str = "user"
    ) -> AppliedFeedback:
        """Route one decision about *update* (Appendix A.5 steps 1-6).

        Parameters
        ----------
        update:
            The suggestion being decided.
        feedback:
            The decision; a reject carrying a correction is treated as
            a confirm of the corrected value (paper §4.2).
        source:
            Provenance tag recorded in the database change log
            (``"user"``, ``"learner"``, ...).
        """
        cell = update.cell
        kind = feedback.kind

        if self.journal is not None:
            # WAL contract: the decision is durable before it is acted
            # on, so a resumed session can replay it instead of asking
            # the user again
            self.journal.log_feedback(update, feedback, source)

        if kind is Feedback.RETAIN:
            # Step 1: current value is correct; stop suggesting.
            self.state.freeze(cell)
            return AppliedFeedback(update, feedback)

        if kind is Feedback.REJECT and not feedback.has_correction:
            # Step 2: the value is wrong; prevent it and look again.
            self.state.prevent(cell, update.value)
            self.state.remove(cell)
            replacement = self.generator.generate_for_cells([cell])[0]
            return AppliedFeedback(update, feedback, replacement=replacement)

        # Confirm (possibly via a reject carrying the corrected value).
        value = feedback.correction if feedback.has_correction else update.value
        return self._apply_confirmed(update, feedback, value, source)

    def _apply_confirmed(
        self,
        update: CandidateUpdate,
        feedback: UserFeedback,
        value: object,
        source: str,
    ) -> AppliedFeedback:
        """Step 3: write the cell and restore both invariants."""
        tid, attribute = update.cell

        # Tuples whose partitions the write leaves (computed pre-write).
        before: set[int] = set()
        for rule in self.rules.rules_touching(attribute):
            if rule.is_variable:
                before.update(self.detector.partners(tid, rule))

        self._suspend_trigger = True
        try:
            self.db.set_value(tid, attribute, value, source=source)
        finally:
            self._suspend_trigger = False
        self.state.freeze(update.cell)

        revisited = self._revisit_after_write(tid, attribute, extra_tuples=before)
        return AppliedFeedback(
            update,
            feedback,
            applied_value=value,
            revisited_cells=tuple(revisited),
        )

    def _revisit_after_write(
        self,
        tid: int,
        attribute: str,
        extra_tuples: set[int] | None = None,
    ) -> list[tuple[int, str]]:
        """Steps 4-5: drop stale suggestions and regenerate.

        Covers the written tuple, the tuples sharing its (post-write)
        variable-rule partitions and any *extra_tuples* the caller knows
        were affected (e.g. pre-write partners).
        """
        affected: set[int] = {tid}
        if extra_tuples:
            affected.update(extra_tuples)
        revisit_attrs: set[str] = set()
        for rule in self.rules.rules_touching(attribute):
            revisit_attrs.update(rule.attributes)
            if rule.is_variable:
                affected.update(self.detector.partners(tid, rule))
        # the next refresh need not re-walk these tuples: dirty flips
        # reach it through the DirtyDelta cursor and lost coverage
        # through the REMOVED events the pass below fires; the pass
        # regenerates every changeable cell of them, and the only value
        # the write changed is the written cell's (frozen after
        # feedback, regenerated below after an external write)
        # one batched generation pass over every changeable revisited
        # cell (the written one is frozen); it reports the cells that
        # carried a suggestion before or after
        ordered_attrs = sorted(revisit_attrs)
        frozen = self.state.cell_views()[0]
        cells = [
            cell
            for cell in ((t, a) for t in sorted(affected) for a in ordered_attrs)
            if cell not in frozen
        ]
        revisited: list[tuple[int, str]] = []
        self.generator.generate_for_cells(cells, revisited=revisited)
        return revisited

    # ------------------------------------------------------------------
    def refresh_suggestions(self) -> int:
        """Step 9 of the GDR process: cover newly dirty tuples.

        Generates suggestions for every dirty tuple that currently has
        no live suggestion on any changeable cell, and prunes
        suggestions for tuples that became clean or whose suggested
        value was written. Walks only the tuples that could have
        changed since the last refresh — dirty-status flips, tuples
        revisited by writes, tuples that lost suggestions, and the
        standing uncoverable set — falling back to one full sweep on
        the first call (or after a detector rebuild / state clear).
        Returns the number of suggestions generated.
        """
        delta = self._dirty_cursor.poll()
        if delta is None or self._need_full:
            self._need_full = False
            self._touched.clear()
            return self.refresh_suggestions_full()
        candidates = set(delta)
        candidates.update(self._touched)
        self._touched.clear()
        candidates.update(self._uncovered)
        if not candidates:
            return 0
        detector = self.detector
        state = self.state
        db = self.db
        uncovered = self._uncovered
        self._in_refresh = True
        try:
            # classification first (independent per tuple), then one
            # batched generation pass over every uncovered dirty tuple —
            # witness signatures and candidate pools are shared across
            # the whole wave instead of per tuple
            generate: list[int] = []
            for tid in sorted(candidates):
                if not detector.is_dirty(tid):
                    for update in state.updates_for_tuple(tid):
                        state.remove(update.cell)
                    uncovered.discard(tid)
                    continue
                for update in state.updates_for_tuple(tid):
                    if update.value == db.value(*update.cell):
                        state.remove(update.cell)
                if state.covers_tuple(tid):
                    uncovered.discard(tid)
                else:
                    generate.append(tid)
            produced = len(self.generator.generate_for_tuples(generate))
            for tid in generate:
                if state.covers_tuple(tid):
                    uncovered.discard(tid)
                else:
                    uncovered.add(tid)
        finally:
            self._in_refresh = False
        return produced

    def refresh_suggestions_full(self) -> int:
        """The rebuild-from-scratch reference for :meth:`refresh_suggestions`.

        One pass over the live suggestion pool classifies every
        suggestion as stale (tuple clean, or value already written) or
        covering; stale suggestions are pruned and every uncovered
        dirty tuple gets a generation attempt.
        """
        produced = 0
        detector = self.detector
        state = self.state
        db = self.db
        # drain delta bookkeeping: after a full sweep everything below
        # is consistent with the current instance
        self._dirty_cursor.poll()
        self._touched.clear()
        stale: list[tuple[int, str]] = []
        covered: set[int] = set()
        self._in_refresh = True
        try:
            for update in state.live_updates():
                if not detector.is_dirty(update.tid) or update.value == db.value(*update.cell):
                    stale.append(update.cell)
                else:
                    covered.add(update.tid)
            for cell in stale:
                state.remove(cell)
            # the detector maintains the dirty set pre-sorted; iterate
            # the incremental ordered view instead of re-sorting, and
            # generate the whole uncovered wave in one batched pass
            generate = [
                tid for tid in detector.dirty_tuples_ordered() if tid not in covered
            ]
            produced += len(self.generator.generate_for_tuples(generate))
            self._uncovered = {
                tid for tid in generate if not state.covers_tuple(tid)
            }
        finally:
            self._in_refresh = False
        return produced

    def check_invariants(self) -> list[str]:
        """Diagnostics for tests: returns human-readable violations.

        Checks that no live suggestion targets a frozen cell, proposes
        the cell's current value, or proposes a prevented value.
        """
        problems: list[str] = []
        for update in self.state.updates():
            cell = update.cell
            if not self.state.is_changeable(cell):
                problems.append(f"suggestion on frozen cell {cell}")
            if update.value == self.db.value(*cell):
                problems.append(f"suggestion equals current value at {cell}")
            if self.state.is_prevented(cell, update.value):
                problems.append(f"suggestion proposes prevented value at {cell}")
        return problems
