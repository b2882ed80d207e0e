"""Model-based test: the code-matrix database against a dict-of-lists store.

Random ``insert``/``set_value``/``delete``/``snapshot``/``from_rows``
sequences run on a :class:`~repro.db.Database` and on the reference
:class:`~tests.oracles.rowstore.RowStore`. After every step each read
must agree, and every stored code must decode to the reference value.
Sequences insert past the store's initial capacity, swap-remove rows
from the middle and keep growing the vocabularies with new values.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Schema
from tests.oracles.rowstore import RowStore

ATTRIBUTES = ("a", "b", "c")
SCHEMA = Schema("r", list(ATTRIBUTES))

# strings, ints and None: no two distinct values are == and hash-equal,
# so the reference's exact objects and the decoded ones must match
values = st.one_of(
    st.sampled_from(["x", "y", "z", "", "Westville"]),
    st.text(alphabet="abc", min_size=1, max_size=3),
    st.integers(-3, 40),
    st.none(),
)
rows = st.lists(st.tuples(values, values, values), max_size=24)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.tuples(values, values, values)),
        st.tuples(st.just("set"), st.integers(0, 10**6), st.sampled_from(ATTRIBUTES), values),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
    ),
    max_size=60,
)


def assert_agree(db: Database, ref: RowStore) -> None:
    assert db.tids() == ref.tids()
    assert len(db) == len(ref.rows)
    assert db.export_rows() == (ref.rows, ref.next_tid)
    for tid in ref.tids():
        assert db.values_snapshot(tid) == ref.values_snapshot(tid)
        assert db.row(tid).values == ref.values_snapshot(tid)
        for attr in ATTRIBUTES:
            assert db.value(tid, attr) == ref.value(tid, attr)
    for attr in ATTRIBUTES:
        assert db.column(attr) == ref.column(attr)
        assert db.domain(attr) == ref.domain(attr)
    assert [row.values for row in db.rows()] == [ref.values_snapshot(t) for t in ref.tids()]
    cols = db.columns
    assert sorted(cols.tids().tolist()) == ref.tids()
    positions = cols.positions_of(np.array(ref.tids(), dtype=np.int64)).tolist()
    assert sorted(positions) == list(range(len(ref.rows)))
    for tid, expected in ref.rows.items():
        row = cols.position_of(tid)
        for pos, value in enumerate(expected):
            assert cols.vocabulary(pos).decode(cols.code_at(row, pos)) == value


@settings(max_examples=60, deadline=None)
@given(initial=rows, steps=ops)
def test_database_matches_row_store(initial, steps):
    db = Database(SCHEMA, initial)
    ref = RowStore(ATTRIBUTES)
    for values in initial:
        ref.insert(values)
    assert_agree(db, ref)
    pinned: list[tuple[Database, RowStore]] = []
    for op in steps:
        kind = op[0]
        tids = ref.tids()
        if kind == "insert":
            assert db.insert(list(op[1])) == ref.insert(op[1])
        elif kind == "set" and tids:
            tid = tids[op[1] % len(tids)]
            assert db.set_value(tid, op[2], op[3]) == ref.set_value(tid, op[2], op[3])
        elif kind == "delete" and tids:
            tid = tids[op[1] % len(tids)]
            db.delete(tid)
            ref.delete(tid)
        elif kind == "snapshot":
            pinned.append((db.snapshot(), ref.snapshot()))
        elif kind == "restore":
            exported, next_tid = db.export_rows()
            db = Database.from_rows(SCHEMA, exported, next_tid)
        assert_agree(db, ref)
    for snap_db, snap_ref in pinned:
        assert_agree(snap_db, snap_ref)
        assert db.diff_cells(snap_db) == ref.diff_cells(snap_ref)
        assert snap_db.diff_cells(db) == snap_ref.diff_cells(ref)
