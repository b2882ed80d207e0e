"""Tests for the dictionary-encoded column storage of a database."""

import numpy as np
import pytest

from repro.db import ColumnStore, Database, Schema, Vocabulary
from repro.errors import UnknownTupleError


@pytest.fixture
def db():
    return Database(
        Schema("r", ["a", "b"]),
        [["x", 1], ["y", 2], ["x", 2], ["z", 1]],
    )


class TestVocabulary:
    def test_encode_assigns_dense_codes(self):
        vocab = Vocabulary()
        assert vocab.encode("p") == 0
        assert vocab.encode("q") == 1
        assert vocab.encode("p") == 0
        assert len(vocab) == 2

    def test_decode_roundtrip(self):
        vocab = Vocabulary()
        values = ["x", 3, None, ("t",)]
        codes = [vocab.encode(v) for v in values]
        assert vocab.decode_many(codes) == values

    def test_code_of_unseen_is_negative(self):
        vocab = Vocabulary()
        assert vocab.code_of("nope") == -1
        assert "nope" not in vocab

    def test_dict_equality_semantics(self):
        """1, 1.0 and True share a dict slot, hence a code."""
        vocab = Vocabulary()
        assert vocab.encode(1) == vocab.encode(1.0) == vocab.encode(True)


class TestColumnStoreBuild:
    def test_store_built_at_construction_matches_rows(self, db):
        cols = db._columns
        assert cols is not None and db.columns is cols
        assert len(cols) == 4
        decoded = [
            [cols.vocabulary(p).decode(cols.code_at(cols.position_of(tid), p)) for p in range(2)]
            for tid in db.tids()
        ]
        assert decoded == [list(db.row(tid).values) for tid in db.tids()]

    def test_codes_column_matches_database_column(self, db):
        cols = db.columns
        order = [cols.position_of(tid) for tid in db.tids()]
        decoded = cols.vocabulary(0).decode_many(cols.codes(0)[order].tolist())
        assert decoded == db.column("a")

    def test_snapshot_copies_store_with_same_codes(self, db):
        db.set_value(3, "a", "w")  # grows the vocabulary past a fresh encode
        db.delete(1)  # swap-remove: storage order is no longer tid order
        copy = db.snapshot()
        assert copy.columns is not db.columns
        assert len(copy.columns) == len(db)
        cols, copied = db.columns, copy.columns
        assert copied.tids().tolist() == db.tids()  # rows in tid order
        for pos in range(2):
            assert copied.vocabulary(pos).decode_many(range(len(copied.vocabulary(pos)))) == (
                cols.vocabulary(pos).decode_many(range(len(cols.vocabulary(pos))))
            )
            for tid in db.tids():
                assert copied.code_at(copied.position_of(tid), pos) == cols.code_at(
                    cols.position_of(tid), pos
                )
        copy.set_value(0, "a", "only-in-copy")
        assert "only-in-copy" not in cols.vocabulary(0)
        assert db.value(0, "a") == "x"


class TestColumnStoreMaintenance:
    def test_set_value_updates_codes(self, db):
        cols = db.columns
        db.set_value(0, "a", "fresh")
        row = cols.position_of(0)
        assert cols.vocabulary(0).decode(cols.code_at(row, 0)) == "fresh"

    def test_insert_appends(self, db):
        cols = db.columns
        tid = db.insert({"a": "w", "b": 9})
        assert tid in cols
        assert len(cols) == 5

    def test_delete_swaps_with_last(self, db):
        cols = db.columns
        db.delete(0)
        assert 0 not in cols
        assert len(cols) == 3
        # remaining tuples still decode correctly
        for tid in db.tids():
            row = cols.position_of(tid)
            assert cols.vocabulary(0).decode(cols.code_at(row, 0)) == db.value(tid, "a")

    def test_positions_of_follows_swap_remove(self, db):
        """The tid-indexed position array stays exact through appends
        past its capacity and swap-removes that move the last row."""
        cols = db.columns
        for i in range(40):
            db.insert({"a": f"n{i}", "b": i})
        for tid in (0, 7, 43, 20):
            db.delete(tid)
        tids = np.array(db.tids(), dtype=np.int64)
        rows = cols.positions_of(tids)
        assert rows.tolist() == [cols.position_of(t) for t in tids.tolist()]
        assert cols.tids()[rows].tolist() == tids.tolist()
        assert sorted(rows.tolist()) == list(range(len(cols)))
        for absent in (0, 43, 44, -1):
            assert absent not in cols
            with pytest.raises(UnknownTupleError):
                cols.position_of(absent)
            with pytest.raises(UnknownTupleError):
                cols.positions_of(np.array([1, absent]))
        assert "a" not in cols

    def test_growth_beyond_initial_capacity(self):
        db = Database(Schema("r", ["a"]))
        for i in range(100):
            db.insert([i])
        assert len(db.columns) == 100
        assert db.columns.vocabulary(0).decode(db.columns.code_at(db.columns.position_of(99), 0)) == 99

    def test_version_bumps_on_mutations(self, db):
        v0 = db.version
        db.set_value(0, "a", "changed")
        v1 = db.version
        db.insert({"a": "n", "b": 0})
        v2 = db.version
        db.delete(1)
        assert v0 < v1 < v2 < db.version

    def test_noop_write_keeps_version(self, db):
        v0 = db.version
        db.set_value(0, "a", db.value(0, "a"))
        assert db.version == v0


class TestColumnStoreMatching:
    def test_match_mask_single(self, db):
        mask = db.columns.match_mask([(0, "x")])
        assert db.columns.tids()[mask].tolist() == [0, 2] or sorted(
            db.columns.tids()[mask].tolist()
        ) == [0, 2]

    def test_match_mask_conjunction(self, db):
        tids = db.columns.match_tids([(0, "x"), (1, 2)])
        assert tids == [2]

    def test_match_mask_unseen_value_is_empty(self, db):
        assert not db.columns.match_mask([(0, "unseen")]).any()

    def test_match_mask_exclude_tid(self, db):
        tids = db.columns.match_tids([(0, "x")], exclude_tid=0)
        assert tids == [2]

    def test_match_mask_codes(self, db):
        cols = db.columns
        code = cols.code_for(0, "x")
        mask = cols.match_mask_codes([(0, code)])
        assert sorted(cols.tids()[mask].tolist()) == [0, 2]

    def test_values_at_decodes_distinct(self, db):
        cols = db.columns
        mask = cols.match_mask([(1, 1)])
        assert sorted(cols.values_at(0, mask), key=str) == ["x", "z"]

    def test_values_at_never_leaks_stale_vocabulary(self, db):
        cols = db.columns
        db.set_value(3, "a", "x")  # "z" no longer present in any row
        mask = np.ones(len(cols), dtype=bool)
        assert "z" not in cols.values_at(0, mask)
        assert "z" in cols.vocabulary(0)  # vocab itself is append-only
