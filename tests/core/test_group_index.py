"""Tests for the incrementally maintained :class:`GroupIndex`."""

import random

from repro.core import GroupIndex, group_sort_key, group_updates
from repro.repair import CandidateUpdate, RepairState


def _update(tid, attr, value, score=0.5):
    return CandidateUpdate(tid, attr, value, score)


class TestEventMaintenance:
    def test_seeds_from_existing_state(self):
        state = RepairState()
        state.put(_update(1, "city", "A"))
        state.put(_update(2, "city", "A"))
        index = GroupIndex(state)
        assert len(index) == 1
        assert index.size(("city", "A")) == 2
        assert index.verify()

    def test_put_remove_freeze_clear(self):
        state = RepairState()
        index = GroupIndex(state)
        state.put(_update(1, "city", "A", 0.25))
        state.put(_update(2, "city", "A", 0.75))
        state.put(_update(1, "zip", "9", 0.9))
        assert index.verify()
        assert index.size(("city", "A")) == 2
        assert index.mean_score(("city", "A")) == 0.5

        # replacing a suggestion moves it between groups
        state.put(_update(1, "city", "B", 0.8))
        assert index.verify()
        assert index.size(("city", "A")) == 1
        assert index.size(("city", "B")) == 1

        state.freeze((2, "city"))
        assert index.verify()
        assert ("city", "A") not in index

        state.remove((1, "zip"))
        assert index.verify()

        state.clear_updates()
        assert index.verify()
        assert len(index) == 0

    def test_same_update_reput_keeps_scores_exact(self):
        state = RepairState()
        index = GroupIndex(state)
        update = _update(3, "city", "A", 0.3)
        state.put(update)
        for __ in range(5):
            state.put(update)
        assert index.mean_score(("city", "A")) == 0.3
        assert index.verify()

    def test_equal_reput_leaves_group_untouched(self):
        state = RepairState()
        index = GroupIndex(state)
        cursor = index.dirty_cursor()
        state.put(_update(3, "city", "A", 0.3))
        index.poll_dirty_keys(cursor)
        version = index.version(("city", "A"))
        built = index.group(("city", "A"))
        state.put(_update(3, "city", "A", 0.3))
        assert index.poll_dirty_keys(cursor) == set()
        assert index.version(("city", "A")) == version
        assert index.group(("city", "A")) is built
        assert index.verify()

    def test_keys_for_tid(self):
        state = RepairState()
        index = GroupIndex(state)
        state.put(_update(1, "city", "A"))
        state.put(_update(1, "zip", "9"))
        state.put(_update(2, "city", "A"))
        assert index.keys_for_tid(1) == {("city", "A"), ("zip", "9")}
        state.remove((1, "city"))
        assert index.keys_for_tid(1) == {("zip", "9")}
        state.remove((1, "zip"))
        assert index.keys_for_tid(1) == frozenset()

    def test_group_materialisation_sorted_and_cached(self):
        state = RepairState()
        index = GroupIndex(state)
        state.put(_update(5, "city", "A"))
        state.put(_update(1, "city", "A"))
        group = index.group(("city", "A"))
        assert [u.tid for u in group.updates] == [1, 5]
        assert index.group(("city", "A")) is group  # cached
        state.put(_update(3, "city", "A"))
        rebuilt = index.group(("city", "A"))
        assert rebuilt is not group
        assert [u.tid for u in rebuilt.updates] == [1, 3, 5]

    def test_groups_match_reference_order(self):
        state = RepairState()
        index = GroupIndex(state)
        rng = random.Random(7)
        for tid in range(40):
            attr = rng.choice(["city", "zip", "state"])
            value = rng.choice(["A", "B", 1, "1", 2.0])
            state.put(CandidateUpdate(tid, attr, value, rng.random()))
        reference = group_updates(state.updates())
        assert [g.key for g in index.groups()] == [g.key for g in reference]
        assert [g.updates for g in index.groups()] == [g.updates for g in reference]


class TestUngrouped:
    def test_single_pseudo_group(self):
        state = RepairState()
        index = GroupIndex(state, grouping=False)
        state.put(_update(1, "city", "A"))
        state.put(_update(1, "zip", "9"))
        state.put(_update(2, "city", "B"))
        assert len(index) == 1
        assert index.size(("*", "*")) == 3
        assert index.verify()
        state.remove((1, "city"))
        assert index.verify()
        # tuple 1 still holds a zip suggestion in the pseudo-group
        assert index.keys_for_tid(1) == {("*", "*")}


class TestDirtyCursor:
    def test_poll_reports_changed_keys_once(self):
        state = RepairState()
        index = GroupIndex(state)
        state.put(_update(1, "city", "A"))
        cursor = index.dirty_cursor()
        assert index.poll_dirty_keys(cursor) == {("city", "A")}  # starts all-dirty
        assert index.poll_dirty_keys(cursor) == set()
        state.put(_update(2, "city", "A"))
        state.put(_update(3, "zip", "9"))
        assert index.poll_dirty_keys(cursor) == {("city", "A"), ("zip", "9")}
        assert index.poll_dirty_keys(cursor) == set()

    def test_emptied_groups_reported(self):
        state = RepairState()
        index = GroupIndex(state)
        state.put(_update(1, "city", "A"))
        cursor = index.dirty_cursor()
        index.poll_dirty_keys(cursor)
        state.remove((1, "city"))
        assert index.poll_dirty_keys(cursor) == {("city", "A")}
        assert ("city", "A") not in index


class TestRandomisedParity:
    def test_random_mutation_stream_stays_verified(self):
        rng = random.Random(123)
        state = RepairState()
        index = GroupIndex(state)
        live_cells = []
        for step in range(400):
            action = rng.random()
            if action < 0.55 or not live_cells:
                tid = rng.randrange(30)
                attr = rng.choice(["city", "zip", "state"])
                value = rng.choice(["A", "B", "C", 1, "1"])
                state.put(CandidateUpdate(tid, attr, value, round(rng.random(), 3)))
                if (tid, attr) not in live_cells:
                    live_cells.append((tid, attr))
            elif action < 0.8:
                cell = live_cells.pop(rng.randrange(len(live_cells)))
                state.remove(cell)
            elif action < 0.95:
                cell = live_cells.pop(rng.randrange(len(live_cells)))
                state.freeze(cell)
            else:
                state.clear_updates()
                live_cells.clear()
            if step % 50 == 0:
                assert index.verify(), f"diverged at step {step}"
        assert index.verify()


class TestSortKey:
    def test_mixed_types_order_deterministically(self):
        # 1, "1" and 1.0 share str(); the type-aware key separates them
        keys = [("a", "1"), ("a", 1), ("a", 1.0), ("a", "0")]
        ordered = sorted(keys, key=group_sort_key)
        assert ordered[0] == ("a", "0")
        assert sorted(reversed(keys), key=group_sort_key) == ordered
        assert len({group_sort_key(k) for k in keys}) == len(keys)
