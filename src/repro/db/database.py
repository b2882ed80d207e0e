"""In-memory relational instance with cell-level update notifications.

This module is the storage substrate the paper runs on top of MySQL;
here it is a dictionary-encoded code matrix
(:class:`~repro.db.columnar.ColumnStore`, exposed as
:attr:`Database.columns`) with:

* stable integer tuple ids (``tid``);
* cell-level reads (decoded on demand) and writes;
* listener hooks fired on every mutation (used by the violation
  detector, consistency manager, hash indexes and change log — the
  equivalent of the paper's database triggers);
* cheap snapshots (a code-matrix copy) for ground-truth comparisons.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from repro.db.changelog import CellChange
from repro.db.columnar import ColumnStore
from repro.db.schema import Schema
from repro.db.snapshot import SnapshotView
from repro.errors import SchemaError

__all__ = ["Database", "Row"]

Listener = Callable[[CellChange], None]
#: (tid, attribute, old, new, source) — fired before the row mutates.
WriteHook = Callable[[int, str, object, object, str], None]


class Row:
    """A read-only view of one tuple.

    Supports mapping-style access by attribute name and exposes the
    tuple id. Mutation must go through :meth:`Database.set_value` so
    that listeners fire.
    """

    __slots__ = ("tid", "_schema", "_values")

    def __init__(self, tid: int, schema: Schema, values: Sequence[object]) -> None:
        self.tid = tid
        self._schema = schema
        self._values = values

    def __getitem__(self, attribute: str) -> object:
        return self._values[self._schema.position(attribute)]

    def get(self, attribute: str, default: object = None) -> object:
        """Return the value of *attribute*, or *default* if unknown."""
        if attribute not in self._schema:
            return default
        return self[attribute]

    @property
    def values(self) -> tuple[object, ...]:
        """All attribute values in schema order."""
        return tuple(self._values)

    def as_dict(self) -> dict[str, object]:
        """The tuple as an ``attribute -> value`` dictionary."""
        return dict(zip(self._schema.attributes, self._values))

    def project(self, attributes: Iterable[str]) -> tuple[object, ...]:
        """Values of the given attributes, in the order requested."""
        return tuple(self[a] for a in attributes)

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.tid == other.tid and self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.tid, self.values))

    def __repr__(self) -> str:
        return f"Row(tid={self.tid}, {self.as_dict()!r})"


class Database:
    """A mutable single-relation instance.

    Every cell is stored once, as a code in :attr:`columns`. Cell
    values must be hashable; values of a column that are ``==`` and
    hash-equal share a code and read back as the first one stored
    (``1`` inserted after ``1.0`` reads ``1.0``).

    Parameters
    ----------
    schema:
        The relation schema.
    rows:
        Optional initial rows; each row is either a sequence of values
        in schema order or a mapping from attribute name to value.

    Examples
    --------
    >>> db = Database(Schema("r", ["a", "b"]))
    >>> tid = db.insert({"a": 1, "b": 2})
    >>> db.value(tid, "b")
    2
    >>> db.set_value(tid, "b", 3)
    True
    >>> db.value(tid, "b")
    3
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[object] | Mapping[str, object]] | None = None,
    ) -> None:
        self.schema = schema
        self._columns = ColumnStore(schema)
        self._next_tid = 0
        self._listeners: list[Listener] = []
        self._write_hooks: list[WriteHook] = []
        self._change_seq = 0
        self._version = 0
        if rows is not None:
            for row in rows:
                self.insert(row)

    @property
    def version(self) -> int:
        """Monotonic instance version: bumps on every insert/write/delete.

        Cheap staleness check for consumers holding derived caches (the
        generator's witness-lookup memo, for example).
        """
        return self._version

    @property
    def columns(self) -> ColumnStore:
        """The dictionary-encoded code matrix holding this instance.

        Written synchronously under every :meth:`insert`,
        :meth:`set_value` and :meth:`delete` — a listener reading the
        columns always sees the post-write state.
        """
        return self._columns

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: Listener) -> None:
        """Register a callback fired after every cell mutation."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        """Unregister a previously added callback (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, change: CellChange) -> None:
        for listener in self._listeners:
            listener(change)

    def add_write_hook(self, hook: WriteHook) -> None:
        """Register a callback fired *before* every effective cell write.

        Unlike listeners (which observe the post-write state), write
        hooks run after the no-op check but before the row mutates —
        the write-ahead seam. A hook that raises aborts the write with
        the instance unmodified, which is exactly the WAL contract: no
        durable record, no mutation.
        """
        self._write_hooks.append(hook)

    def remove_write_hook(self, hook: WriteHook) -> None:
        """Unregister a previously added write hook (no-op if absent)."""
        try:
            self._write_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # insertion / deletion
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[object] | Mapping[str, object]) -> int:
        """Insert a row, returning its newly assigned tuple id."""
        tid = self._next_tid
        self._columns.append(tid, self._coerce_row(row))
        self._next_tid += 1
        self._version += 1
        return tid

    def _coerce_row(self, row: Sequence[object] | Mapping[str, object]) -> list[object]:
        if isinstance(row, Mapping):
            missing = [a for a in self.schema.attributes if a not in row]
            if missing:
                raise SchemaError(f"row missing attributes {missing!r}")
            extra = [a for a in row if a not in self.schema]
            if extra:
                raise SchemaError(f"row has unknown attributes {extra!r}")
            return [row[a] for a in self.schema.attributes]
        return list(row)

    def delete(self, tid: int) -> None:
        """Remove the tuple with id *tid*."""
        self._columns.remove(tid)
        self._version += 1

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def row(self, tid: int) -> Row:
        """Return a read-only view of tuple *tid*."""
        return Row(tid, self.schema, self._columns.row_values(tid))

    def value(self, tid: int, attribute: str) -> object:
        """Return one cell value."""
        return self._columns.value(tid, self.schema.position(attribute))

    def values_snapshot(self, tid: int) -> tuple[object, ...]:
        """A detached copy of tuple *tid*'s values, in schema order."""
        return self._columns.row_values(tid)

    def tids(self) -> list[int]:
        """All live tuple ids (ascending)."""
        return sorted(self._columns.tids().tolist())

    def rows(self) -> Iterator[Row]:
        """Iterate over all tuples as :class:`Row` views."""
        for tid, values in self.export_rows()[0].items():
            yield Row(tid, self.schema, values)

    def column(self, attribute: str) -> list[object]:
        """All values of one attribute, ordered by tuple id."""
        store = self._columns
        return store.column_values(self.schema.position(attribute), store.tid_order())

    def domain(self, attribute: str) -> set[object]:
        """The active domain of *attribute* (distinct current values)."""
        pos = self.schema.position(attribute)
        return set(self._columns.vocabulary(pos).decode_many(set(self._columns.codes(pos).tolist())))

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, tid: object) -> bool:
        return tid in self._columns

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_value(self, tid: int, attribute: str, value: object, source: str = "user") -> bool:
        """Write one cell, notifying listeners.

        Returns ``True`` if the value actually changed, ``False`` if the
        write was a no-op (listeners are not fired for no-ops). An
        unhashable *value* raises :class:`SchemaError` with the instance
        unmodified.
        """
        pos = self.schema.position(attribute)
        store = self._columns
        old = store.value(tid, pos)
        if old == value:
            return False
        store.require_hashable(tid, pos, value)
        for hook in self._write_hooks:
            hook(tid, attribute, old, value, source)
        store.set_cell(tid, pos, value)
        self._version += 1
        self._change_seq += 1
        self._notify(CellChange(self._change_seq, tid, attribute, old, value, source))
        return True

    # ------------------------------------------------------------------
    # copies and comparisons
    # ------------------------------------------------------------------
    def snapshot_view(self) -> SnapshotView:
        """A copy-on-write read view pinned at the current version.

        Rows are copied lazily — on first read through the view, or on
        the first write that would otherwise overwrite an unread row —
        so acquiring a view is O(1) regardless of instance size. The
        view must be released (it is a context manager) to stop
        pinning. See :class:`repro.db.snapshot.SnapshotView`.
        """
        return SnapshotView(self)

    def snapshot(self) -> "Database":
        """A deep copy with the same tids, same codes and no listeners."""
        copy = Database(self.schema)
        copy._columns = self._columns.copy()
        copy._next_tid = self._next_tid
        return copy

    def export_rows(self) -> tuple[dict[int, list[object]], int]:
        """The decoded ``(rows by tid, next tid)``, for checkpoints."""
        store = self._columns
        order = store.tid_order()
        columns = [store.column_values(pos, order) for pos in range(len(self.schema))]
        return dict(zip(store.tids()[order].tolist(), map(list, zip(*columns)))), self._next_tid

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Mapping[int, Sequence[object]],
        next_tid: int | None = None,
    ) -> "Database":
        """Rebuild an instance with explicit tuple ids (checkpoint restore).

        Unlike :meth:`insert`, the given tids are kept verbatim, so a
        restored instance is id-compatible with journals and repair
        state recorded against the original. Rows are encoded in tid
        order. Raises :class:`SchemaError` for a negative tid, a row of
        the wrong length, or a *next_tid* that does not exceed every
        given tid (a later :meth:`insert` would overwrite a stored tuple).
        """
        top = max(rows, default=-1)
        if next_tid is None:
            next_tid = top + 1
        elif next_tid <= top:
            raise SchemaError(f"next tid {next_tid} does not exceed the largest tid {top}")
        if min(rows, default=0) < 0:
            raise SchemaError(f"tuple id {min(rows)} is negative")
        db = cls(schema)
        db._columns = ColumnStore(schema, rows.items())
        db._next_tid = next_tid
        return db

    def diff_cells(self, other: "Database") -> list[tuple[int, str]]:
        """Cells where this instance differs from *other*.

        Both instances must share the schema and tuple ids; extra or
        missing tuples on either side are reported as full-row diffs.
        """
        if self.schema != other.schema:
            raise SchemaError("cannot diff databases with different schemas")
        mine, theirs = self.export_rows()[0], other.export_rows()[0]
        diffs: list[tuple[int, str]] = []
        for tid in sorted(mine.keys() | theirs.keys()):
            a, b = mine.get(tid), theirs.get(tid)
            diffs.extend(
                (tid, attr)
                for pos, attr in enumerate(self.schema.attributes)
                if a is None or b is None or a[pos] != b[pos]
            )
        return diffs

    def equals_data(self, other: "Database") -> bool:
        """True when both instances hold identical tuples per tid."""
        return self.schema == other.schema and not self.diff_cells(other)

    def __repr__(self) -> str:
        return f"Database({self.schema.name!r}, {len(self)} tuples)"
