"""Tests for :mod:`repro.repair.state`."""

from repro.repair import CandidateUpdate, RepairState
from repro.repair.state import EventKind


def _u(tid=0, attr="a", value="v", score=0.5):
    return CandidateUpdate(tid, attr, value, score)


class TestChangeableFlag:
    def test_default_changeable(self):
        state = RepairState()
        assert state.is_changeable((0, "a"))

    def test_freeze(self):
        state = RepairState()
        state.freeze((0, "a"))
        assert not state.is_changeable((0, "a"))

    def test_freeze_drops_suggestion(self):
        state = RepairState()
        state.put(_u())
        state.freeze((0, "a"))
        assert state.get((0, "a")) is None

    def test_frozen_cells_copy(self):
        state = RepairState()
        state.freeze((0, "a"))
        cells = state.frozen_cells()
        cells.clear()
        assert not state.is_changeable((0, "a"))


class TestPreventedValues:
    def test_prevent_and_query(self):
        state = RepairState()
        state.prevent((0, "a"), "bad")
        assert state.is_prevented((0, "a"), "bad")
        assert not state.is_prevented((0, "a"), "good")
        assert state.prevented((0, "a")) == {"bad"}

    def test_prevent_accumulates(self):
        state = RepairState()
        state.prevent((0, "a"), "x")
        state.prevent((0, "a"), "y")
        assert state.prevented((0, "a")) == {"x", "y"}

    def test_prevented_returns_copy(self):
        state = RepairState()
        state.prevent((0, "a"), "x")
        state.prevented((0, "a")).clear()
        assert state.prevented((0, "a")) == {"x"}

    def test_prevented_view_is_live_and_read_only_empty(self):
        state = RepairState()
        empty = state.prevented_view((0, "a"))
        assert not empty and isinstance(empty, frozenset)
        state.prevent((0, "a"), "x")
        view = state.prevented_view((0, "a"))
        state.prevent((0, "a"), "y")
        assert view == {"x", "y"}

    def test_per_cell_isolation(self):
        state = RepairState()
        state.prevent((0, "a"), "x")
        assert state.prevented((0, "b")) == set()


class TestPossibleUpdates:
    def test_put_get(self):
        state = RepairState()
        update = _u()
        state.put(update)
        assert state.get((0, "a")) == update
        assert state.contains(update)

    def test_put_replaces(self):
        state = RepairState()
        state.put(_u(value="v1"))
        state.put(_u(value="v2"))
        assert state.get((0, "a")).value == "v2"
        assert len(state) == 1

    def test_equal_reput_is_silent_and_keeps_live_object(self):
        state = RepairState()
        events = []
        state.add_listener(events.append)
        live = _u()
        state.put(live)
        events.clear()
        state.put(_u())  # equal value and score, different object
        assert events == []
        assert state.get((0, "a")) is live

    def test_replacement_emits_removed_then_added(self):
        state = RepairState()
        events = []
        state.add_listener(events.append)
        old, new = _u(value="v1"), _u(value="v2")
        state.put(old)
        events.clear()
        state.put(new)
        assert [(e.kind, e.update) for e in events] == [
            (EventKind.REMOVED, old),
            (EventKind.ADDED, new),
        ]

    def test_score_change_is_a_replacement(self):
        state = RepairState()
        events = []
        state.add_listener(events.append)
        state.put(_u(score=0.5))
        events.clear()
        state.put(_u(score=0.6))
        assert [e.kind for e in events] == [EventKind.REMOVED, EventKind.ADDED]
        assert state.get((0, "a")).score == 0.6

    def test_remove(self):
        state = RepairState()
        update = _u()
        state.put(update)
        assert state.remove((0, "a")) == update
        assert state.remove((0, "a")) is None

    def test_discard_only_if_same(self):
        state = RepairState()
        v1 = _u(value="v1")
        v2 = _u(value="v2")
        state.put(v1)
        state.put(v2)  # replaces v1
        assert state.discard(v1) is False
        assert state.discard(v2) is True
        assert len(state) == 0

    def test_updates_sorted_by_cell(self):
        state = RepairState()
        state.put(_u(tid=2))
        state.put(_u(tid=0, attr="b"))
        state.put(_u(tid=0, attr="a"))
        cells = [u.cell for u in state.updates()]
        assert cells == [(0, "a"), (0, "b"), (2, "a")]

    def test_updates_for_tuple(self):
        state = RepairState()
        state.put(_u(tid=1))
        state.put(_u(tid=2))
        assert [u.tid for u in state.updates_for_tuple(1)] == [1]

    def test_clear_updates_keeps_flags(self):
        state = RepairState()
        state.put(_u())
        state.prevent((0, "a"), "bad")
        state.clear_updates()
        assert len(state) == 0
        assert state.is_prevented((0, "a"), "bad")

    def test_reset_forgets_everything(self):
        state = RepairState()
        state.put(_u())
        state.prevent((0, "a"), "bad")
        state.freeze((1, "b"))
        state.reset()
        assert len(state) == 0
        assert not state.is_prevented((0, "a"), "bad")
        assert state.is_changeable((1, "b"))

    def test_repr(self):
        state = RepairState()
        state.put(_u())
        assert "1 updates" in repr(state)
