"""In-memory relational instance with cell-level update notifications.

This module is the storage substrate the paper runs on top of MySQL;
here it is a dict-backed tuple store with:

* stable integer tuple ids (``tid``);
* cell-level reads/writes;
* listener hooks fired on every mutation (used by the violation
  detector, consistency manager, hash indexes and change log — the
  equivalent of the paper's database triggers);
* a lazily built, incrementally maintained dictionary-encoded columnar
  mirror (:attr:`Database.columns`) backing the vectorized violation
  engine;
* cheap snapshots for ground-truth comparisons.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from repro.db.changelog import CellChange
from repro.db.columnar import ColumnStore
from repro.db.schema import Schema
from repro.errors import SchemaError, UnknownTupleError

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
    >>> db.value(tid, "b")
    3
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[object] | Mapping[str, object]] | None = None,
    ) -> None:
        self.schema = schema
        self._rows: dict[int, list[object]] = {}
        self._next_tid = 0
        self._listeners: list[Listener] = []
        self._write_hooks: list[WriteHook] = []
        self._change_seq = 0
        self._version = 0
        self._columns: ColumnStore | None = None
        if rows is not None:
            for row in rows:
                self.insert(row)

    # ------------------------------------------------------------------
    # columnar mirror
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic instance version: bumps on every insert/write/delete.

        Cheap staleness check for consumers holding derived caches (the
        generator's witness-lookup memo, for example).
        """
        return self._version

    @property
    def columns(self) -> ColumnStore:
        """The dictionary-encoded columnar image of this instance.

        Built lazily on first access, then maintained incrementally and
        synchronously under every :meth:`insert`, :meth:`set_value` and
        :meth:`delete` — a listener reading the columns always sees the
        post-write state.
        """
        if self._columns is None:
            self._columns = ColumnStore(self.schema, self._rows.items())
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
        values = self._coerce_row(row)
        tid = self._next_tid
        self._next_tid += 1
        self._rows[tid] = values
        self._version += 1
        if self._columns is not None:
            self._columns.append(tid, values)
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
        values = list(row)
        if len(values) != len(self.schema):
            raise SchemaError(
                f"row has {len(values)} values, schema {self.schema.name!r} "
                f"expects {len(self.schema)}"
            )
        return values

    def delete(self, tid: int) -> None:
        """Remove the tuple with id *tid*."""
        if tid not in self._rows:
            raise UnknownTupleError(tid)
        del self._rows[tid]
        self._version += 1
        if self._columns is not None:
            self._columns.remove(tid)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def row(self, tid: int) -> Row:
        """Return a read-only view of tuple *tid*."""
        try:
            return Row(tid, self.schema, self._rows[tid])
        except KeyError:
            raise UnknownTupleError(tid) from None

    def value(self, tid: int, attribute: str) -> object:
        """Return one cell value."""
        pos = self.schema.position(attribute)
        try:
            return self._rows[tid][pos]
        except KeyError:
            raise UnknownTupleError(tid) from None

    def values_snapshot(self, tid: int) -> tuple[object, ...]:
        """A detached copy of tuple *tid*'s values, in schema order."""
        try:
            return tuple(self._rows[tid])
        except KeyError:
            raise UnknownTupleError(tid) from None

    def values_view(self, tid: int) -> Sequence[object]:
        """Tuple *tid*'s live value list, in schema order — **read only**.

        Unlike :meth:`values_snapshot` this does not copy; the returned
        sequence aliases the stored row and mutates under later writes.
        For hot paths (the violation detector's per-write maintenance)
        that only read positionally and never retain the sequence.
        """
        try:
            return self._rows[tid]
        except KeyError:
            raise UnknownTupleError(tid) from None

    def tids(self) -> list[int]:
        """All live tuple ids (ascending)."""
        return sorted(self._rows)

    def rows(self) -> Iterator[Row]:
        """Iterate over all tuples as :class:`Row` views."""
        for tid in sorted(self._rows):
            yield Row(tid, self.schema, self._rows[tid])

    def column(self, attribute: str) -> list[object]:
        """All values of one attribute, ordered by tuple id."""
        pos = self.schema.position(attribute)
        return [self._rows[tid][pos] for tid in sorted(self._rows)]

    def domain(self, attribute: str) -> set[object]:
        """The active domain of *attribute* (distinct current values)."""
        pos = self.schema.position(attribute)
        return {values[pos] for values in self._rows.values()}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, tid: object) -> bool:
        return tid in self._rows

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_value(self, tid: int, attribute: str, value: object, source: str = "user") -> bool:
        """Write one cell, notifying listeners.

        Returns ``True`` if the value actually changed, ``False`` if the
        write was a no-op (listeners are not fired for no-ops).
        """
        pos = self.schema.position(attribute)
        try:
            values = self._rows[tid]
        except KeyError:
            raise UnknownTupleError(tid) from None
        old = values[pos]
        if old == value:
            return False
        for hook in self._write_hooks:
            hook(tid, attribute, old, value, source)
        values[pos] = value
        self._version += 1
        if self._columns is not None:
            self._columns.set_cell(tid, pos, value)
        self._change_seq += 1
        self._notify(CellChange(self._change_seq, tid, attribute, old, value, source))
        return True

    # ------------------------------------------------------------------
    # copies and comparisons
    # ------------------------------------------------------------------
    def snapshot_view(self):
        """A copy-on-write read view pinned at the current version.

        Rows are copied lazily — on first read through the view, or on
        the first write that would otherwise overwrite an unread row —
        so acquiring a view is O(1) regardless of instance size. The
        view must be released (it is a context manager) to stop
        pinning. See :class:`repro.db.snapshot.SnapshotView`.
        """
        from repro.db.snapshot import SnapshotView

        return SnapshotView(self)

    def snapshot(self) -> "Database":
        """A deep copy with the same tids and no listeners attached."""
        copy = Database(self.schema)
        copy._rows = {tid: list(values) for tid, values in self._rows.items()}
        copy._next_tid = self._next_tid
        return copy

    def export_rows(self) -> tuple[dict[int, list[object]], int]:
        """The live ``(rows by tid, next tid)``, for checkpoints.

        Not a copy: the caller must serialise or copy the rows before
        the next write and must not mutate them. A checkpoint pickles
        them at once, so copying first would only add a transient
        second image of the instance to the session's peak memory.
        """
        return (self._rows, self._next_tid)

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
        state recorded against the original.
        """
        db = cls(schema)
        db._rows = {tid: list(values) for tid, values in rows.items()}
        db._next_tid = (
            next_tid if next_tid is not None else max(rows, default=-1) + 1
        )
        return db

    def diff_cells(self, other: "Database") -> list[tuple[int, str]]:
        """Cells where this instance differs from *other*.

        Both instances must share the schema and tuple ids; extra or
        missing tuples on either side are reported as full-row diffs.
        """
        if self.schema != other.schema:
            raise SchemaError("cannot diff databases with different schemas")
        diffs: list[tuple[int, str]] = []
        all_tids = set(self._rows) | set(other._rows)
        for tid in sorted(all_tids):
            mine = self._rows.get(tid)
            theirs = other._rows.get(tid)
            if mine is None or theirs is None:
                diffs.extend((tid, attr) for attr in self.schema.attributes)
                continue
            for pos, attr in enumerate(self.schema.attributes):
                if mine[pos] != theirs[pos]:
                    diffs.append((tid, attr))
        return diffs

    def equals_data(self, other: "Database") -> bool:
        """True when both instances hold identical tuples per tid."""
        return self.schema == other.schema and not self.diff_cells(other)

    def __repr__(self) -> str:
        return f"Database({self.schema.name!r}, {len(self)} tuples)"
