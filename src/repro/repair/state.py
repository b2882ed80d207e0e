"""Mutable repair bookkeeping: PossibleUpdates, preventedList, Changeable.

The paper keeps three pieces of state per cell ``⟨t, B⟩``:

* at most one live suggestion in the ``PossibleUpdates`` list;
* ``⟨t, B⟩.preventedList`` — values confirmed wrong for the cell;
* ``⟨t, B⟩.Changeable`` — cleared once the cell's value is confirmed
  correct (retain feedback) or has been repaired (confirm feedback).

:class:`RepairState` centralises that bookkeeping for the generator,
the consistency manager and the GDR engine.

Mutation events: every mutation of the suggestion pool emits a typed
:class:`StateEvent` to registered listeners, so downstream consumers
(the incremental :class:`~repro.core.grouping.GroupIndex`, the
consistency manager's O(delta) refresh) can maintain derived structures
without re-scanning the pool. A per-tuple index makes "which cells of
tuple *t* carry suggestions" an O(1) lookup instead of a pool scan.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Set as AbstractSet
from enum import Enum
from typing import NamedTuple

from repro.repair.candidate import CandidateUpdate

__all__ = ["EventKind", "RepairState", "StateEvent"]

Cell = tuple[int, str]

_EMPTY: frozenset[object] = frozenset()


class EventKind(Enum):
    """What happened to the suggestion pool."""

    #: A suggestion became the live one for its cell (possibly
    #: replacing another — a replacement emits REMOVED then ADDED).
    #: Re-putting a suggestion equal to the live one fires nothing, so
    #: a cell never sees ADDED twice without a REMOVED in between.
    ADDED = "added"
    #: A live suggestion left the pool (removed, discarded, replaced,
    #: or dropped by a freeze).
    REMOVED = "removed"
    #: A cell became unchangeable. Fired *after* the REMOVED event for
    #: any suggestion the freeze dropped.
    FROZEN = "frozen"
    #: The whole pool was dropped at once (``clear_updates``/``reset``);
    #: per-suggestion REMOVED events are *not* fired — consumers should
    #: rebuild from scratch.
    CLEARED = "cleared"


class StateEvent(NamedTuple):
    """One typed mutation of the repair state.

    Attributes
    ----------
    kind:
        The mutation type.
    cell:
        The affected ``(tid, attribute)`` cell (``None`` for CLEARED).
    update:
        The suggestion added or removed (``None`` for FROZEN on a cell
        without a live suggestion, and for CLEARED).
    """

    kind: EventKind
    cell: Cell | None
    update: CandidateUpdate | None


StateListener = Callable[[StateEvent], None]


class RepairState:
    """Per-cell repair flags plus the live candidate-update pool."""

    def __init__(self) -> None:
        self._prevented: dict[Cell, set[object]] = {}
        self._frozen: set[Cell] = set()
        self._possible: dict[Cell, CandidateUpdate] = {}
        # tid -> attributes of that tuple currently carrying a live
        # suggestion (the per-tuple coverage index)
        self._by_tid: dict[int, set[str]] = {}
        self._listeners: list[StateListener] = []

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: StateListener) -> None:
        """Register a callback fired on every suggestion-pool mutation."""
        self._listeners.append(listener)

    def remove_listener(self, listener: StateListener) -> None:
        """Unregister a previously added callback (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, kind: EventKind, cell: Cell | None, update: CandidateUpdate | None) -> None:
        if not self._listeners:
            return
        event = StateEvent(kind, cell, update)
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # changeable flag
    # ------------------------------------------------------------------
    def is_changeable(self, cell: Cell) -> bool:
        """True unless the cell's value has been confirmed/repaired."""
        return cell not in self._frozen

    def freeze(self, cell: Cell) -> None:
        """Mark the cell unchangeable and drop any live suggestion."""
        self._frozen.add(cell)
        dropped = self._pop(cell)
        self._emit(EventKind.FROZEN, cell, dropped)

    def frozen_cells(self) -> set[Cell]:
        """All cells whose values are confirmed (copy)."""
        return set(self._frozen)

    # ------------------------------------------------------------------
    # prevented values
    # ------------------------------------------------------------------
    def prevent(self, cell: Cell, value: object) -> None:
        """Record that *value* was rejected for *cell*."""
        self._prevented.setdefault(cell, set()).add(value)

    def prevented(self, cell: Cell) -> set[object]:
        """Values confirmed wrong for *cell* (copy)."""
        return set(self._prevented.get(cell, ()))

    def prevented_view(self, cell: Cell) -> AbstractSet[object]:
        """Values confirmed wrong for *cell* — the live set, not a copy.

        For hot read-only callers (the suggestion generator asks once
        per revisited cell); the result must not be mutated.
        """
        return self._prevented.get(cell, _EMPTY)

    def cell_views(self) -> tuple[AbstractSet[Cell], Mapping[Cell, AbstractSet[object]], Mapping]:
        """The frozen cells, the prevented values per cell and the live
        suggestions per cell — the live containers, **read only**.

        For the suggestion engine's per-cell loops, which test every
        revisited cell against all three; the views mutate under later
        state changes and must not be retained across them.
        """
        return self._frozen, self._prevented, self._possible

    def is_prevented(self, cell: Cell, value: object) -> bool:
        """True when *value* was already rejected for *cell*."""
        return value in self._prevented.get(cell, ())

    def prevented_map(self) -> dict[Cell, set[object]]:
        """All prevented values per cell (deep copy), for checkpoints."""
        return {cell: set(values) for cell, values in self._prevented.items()}

    # ------------------------------------------------------------------
    # possible updates (at most one live suggestion per cell)
    # ------------------------------------------------------------------
    def _pop(self, cell: Cell) -> CandidateUpdate | None:
        """Drop the live suggestion for *cell*, emitting REMOVED."""
        dropped = self._possible.pop(cell, None)
        if dropped is not None:
            attrs = self._by_tid[cell[0]]
            attrs.discard(cell[1])
            if not attrs:
                del self._by_tid[cell[0]]
            self._emit(EventKind.REMOVED, cell, dropped)
        return dropped

    def put(self, update: CandidateUpdate) -> None:
        """Insert or replace the live suggestion for the update's cell.

        Putting an update equal to the live one is a no-op: the live
        object stays and no event fires. A different update replaces
        the live one, emitting REMOVED then ADDED.
        """
        cell = update.cell
        existing = self._possible.get(cell)
        if existing is not None:
            if existing == update:
                return
            self._pop(cell)
        self._possible[cell] = update
        self._by_tid.setdefault(cell[0], set()).add(cell[1])
        self._emit(EventKind.ADDED, cell, update)

    def get(self, cell: Cell) -> CandidateUpdate | None:
        """The live suggestion for *cell*, if any."""
        return self._possible.get(cell)

    def remove(self, cell: Cell) -> CandidateUpdate | None:
        """Drop and return the live suggestion for *cell*, if any."""
        return self._pop(cell)

    def discard(self, update: CandidateUpdate) -> bool:
        """Remove *update* only if it is still the live suggestion."""
        if self._possible.get(update.cell) == update:
            self._pop(update.cell)
            return True
        return False

    def contains(self, update: CandidateUpdate) -> bool:
        """True when *update* is still the live suggestion for its cell."""
        return self._possible.get(update.cell) == update

    def updates(self) -> list[CandidateUpdate]:
        """All live suggestions, ordered by (tid, attribute)."""
        return [self._possible[cell] for cell in sorted(self._possible)]

    def live_updates(self) -> list[CandidateUpdate]:
        """All live suggestions in pool order (no sort — cheap view).

        For consumers that only aggregate over the pool (coverage sets,
        staleness sweeps) and do not need the deterministic
        ``(tid, attribute)`` order of :meth:`updates`.
        """
        return list(self._possible.values())

    def updates_for_tuple(self, tid: int) -> list[CandidateUpdate]:
        """Live suggestions targeting tuple *tid* (cell order)."""
        attrs = self._by_tid.get(tid)
        if not attrs:
            return []
        return [self._possible[(tid, attr)] for attr in sorted(attrs)]

    def covers_tuple(self, tid: int) -> bool:
        """True when tuple *tid* has at least one live suggestion."""
        return tid in self._by_tid

    def __len__(self) -> int:
        return len(self._possible)

    def clear_updates(self) -> None:
        """Drop every live suggestion (flags are kept)."""
        self._possible.clear()
        self._by_tid.clear()
        self._emit(EventKind.CLEARED, None, None)

    def reset(self) -> None:
        """Forget everything: suggestions, prevented values and flags."""
        self._possible.clear()
        self._by_tid.clear()
        self._prevented.clear()
        self._frozen.clear()
        self._emit(EventKind.CLEARED, None, None)

    def __repr__(self) -> str:
        return (
            f"RepairState({len(self._possible)} updates, "
            f"{len(self._frozen)} frozen cells, "
            f"{sum(len(v) for v in self._prevented.values())} prevented values)"
        )
