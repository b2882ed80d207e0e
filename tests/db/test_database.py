"""Tests for :mod:`repro.db.database`."""

import pytest

from repro.db import Database, Schema
from repro.errors import SchemaError, UnknownTupleError


@pytest.fixture()
def db():
    return Database(Schema("r", ["a", "b"]), [["x", 1], ["y", 2]])


class TestInsert:
    def test_insert_sequence_returns_sequential_tids(self, db):
        tid = db.insert(["z", 3])
        assert tid == 2
        assert db.value(tid, "a") == "z"

    def test_insert_mapping(self, db):
        tid = db.insert({"a": "m", "b": 9})
        assert db.value(tid, "b") == 9

    def test_insert_mapping_missing_attribute(self, db):
        with pytest.raises(SchemaError):
            db.insert({"a": "m"})

    def test_insert_mapping_extra_attribute(self, db):
        with pytest.raises(SchemaError):
            db.insert({"a": "m", "b": 1, "c": 2})

    def test_insert_wrong_arity(self, db):
        with pytest.raises(SchemaError):
            db.insert(["only-one"])

    def test_len_counts_rows(self, db):
        assert len(db) == 2


class TestAccess:
    def test_row_view(self, db):
        row = db.row(0)
        assert row["a"] == "x"
        assert row.tid == 0
        assert row.as_dict() == {"a": "x", "b": 1}

    def test_row_project(self, db):
        assert db.row(1).project(["b", "a"]) == (2, "y")

    def test_row_get_default(self, db):
        assert db.row(0).get("missing", "dflt") == "dflt"

    def test_unknown_tid(self, db):
        with pytest.raises(UnknownTupleError):
            db.row(99)
        with pytest.raises(UnknownTupleError):
            db.value(99, "a")

    def test_values_snapshot_is_detached(self, db):
        snap = db.values_snapshot(0)
        db.set_value(0, "a", "changed")
        assert snap == ("x", 1)

    def test_column(self, db):
        assert db.column("a") == ["x", "y"]

    def test_domain(self, db):
        db.insert(["x", 5])
        assert db.domain("a") == {"x", "y"}

    def test_tids_sorted(self, db):
        assert db.tids() == [0, 1]

    def test_contains(self, db):
        assert 0 in db and 99 not in db

    def test_iteration_yields_rows(self, db):
        assert [r.tid for r in db] == [0, 1]


class TestMutation:
    def test_set_value_changes_cell(self, db):
        assert db.set_value(0, "a", "q") is True
        assert db.value(0, "a") == "q"

    def test_set_value_noop_returns_false(self, db):
        assert db.set_value(0, "a", "x") is False

    def test_listener_fired_on_change(self, db):
        events = []
        db.add_listener(events.append)
        db.set_value(0, "b", 42, source="test")
        assert len(events) == 1
        change = events[0]
        assert (change.tid, change.attribute, change.old, change.new) == (0, "b", 1, 42)
        assert change.source == "test"
        assert change.cell == (0, "b")

    def test_listener_not_fired_on_noop(self, db):
        events = []
        db.add_listener(events.append)
        db.set_value(0, "a", "x")
        assert events == []

    def test_remove_listener(self, db):
        events = []
        db.add_listener(events.append)
        db.remove_listener(events.append)
        db.set_value(0, "a", "q")
        assert events == []

    def test_remove_listener_absent_is_noop(self, db):
        db.remove_listener(lambda c: None)

    def test_change_seq_monotone(self, db):
        events = []
        db.add_listener(events.append)
        db.set_value(0, "a", "q")
        db.set_value(1, "a", "r")
        assert events[0].seq < events[1].seq

    def test_delete(self, db):
        db.delete(0)
        assert 0 not in db
        with pytest.raises(UnknownTupleError):
            db.delete(0)


class TestSnapshotAndDiff:
    def test_snapshot_is_independent(self, db):
        snap = db.snapshot()
        db.set_value(0, "a", "q")
        assert snap.value(0, "a") == "x"

    def test_snapshot_preserves_tids(self, db):
        db.delete(0)
        snap = db.snapshot()
        assert snap.tids() == [1]
        assert snap.insert(["new", 0]) == 2  # next tid continues

    def test_snapshot_has_no_listeners(self, db):
        events = []
        db.add_listener(events.append)
        snap = db.snapshot()
        snap.set_value(0, "a", "q")
        assert events == []

    def test_diff_cells(self, db):
        other = db.snapshot()
        other.set_value(0, "a", "q")
        other.set_value(1, "b", 7)
        assert set(db.diff_cells(other)) == {(0, "a"), (1, "b")}

    def test_diff_cells_schema_mismatch(self, db):
        other = Database(Schema("s", ["a", "b"]))
        with pytest.raises(SchemaError):
            db.diff_cells(other)

    def test_diff_cells_missing_tuple_reports_full_row(self, db):
        other = db.snapshot()
        other.delete(1)
        assert set(db.diff_cells(other)) == {(1, "a"), (1, "b")}

    def test_equals_data(self, db):
        assert db.equals_data(db.snapshot())
        other = db.snapshot()
        other.set_value(0, "a", "q")
        assert not db.equals_data(other)

    def test_repr(self, db):
        assert "2 tuples" in repr(db)


class TestRow:
    def test_row_equality(self, db):
        assert db.row(0) == db.row(0)
        assert db.row(0) != db.row(1)

    def test_row_hashable(self, db):
        assert len({db.row(0), db.row(0)}) == 1

    def test_row_len_and_iter(self, db):
        row = db.row(0)
        assert len(row) == 2
        assert list(row) == ["x", 1]

    def test_row_values_tuple(self, db):
        assert db.row(1).values == ("y", 2)


class TestStorageContract:
    def test_hash_equal_value_reads_back_as_first_stored(self):
        db = Database(Schema("r", ["a"]), [[1.0]])
        tid = db.insert([1])
        assert type(db.value(tid, "a")) is float  # the column's first-stored 1.0
        assert db.values_snapshot(tid) == (1.0,)
        assert db.set_value(tid, "a", True) is False  # == and hash-equal: no-op

    def test_unhashable_insert_raises_schema_error_unmodified(self, db):
        version = db.version
        vocab_sizes = [len(db.columns.vocabulary(p)) for p in range(2)]
        with pytest.raises(SchemaError, match=r"'b' of tuple 2 is unhashable"):
            db.insert(["new-value", ["not", "hashable"]])
        assert len(db) == 2 and db.version == version
        assert [len(db.columns.vocabulary(p)) for p in range(2)] == vocab_sizes
        assert db.insert(["z", 3]) == 2  # the failed insert consumed no tid

    def test_unhashable_write_raises_schema_error_unmodified(self, db):
        events, hooked = [], []
        db.add_listener(events.append)
        db.add_write_hook(lambda *args: hooked.append(args))
        version = db.version
        with pytest.raises(SchemaError, match=r"'a' of tuple 1 is unhashable"):
            db.set_value(1, "a", {"x": 1})
        assert db.value(1, "a") == "y" and db.version == version
        assert events == [] and hooked == []

    def test_from_rows_rejects_next_tid_not_past_largest_tid(self):
        schema = Schema("r", ["a"])
        with pytest.raises(SchemaError, match="next tid 1"):
            Database.from_rows(schema, {0: ["p"], 1: ["q"]}, next_tid=1)
        db = Database.from_rows(schema, {0: ["p"], 1: ["q"]}, next_tid=2)
        assert db.insert(["r"]) == 2

    def test_from_rows_rejects_wrong_row_length(self):
        with pytest.raises(SchemaError, match="row for tuple 1 has 1 values"):
            Database.from_rows(Schema("r", ["a", "b"]), {0: ["p", 1], 1: ["q"]})
