"""Dictionary-encoded column storage: the cells of a :class:`Database`.

The paper keeps its relation in MySQL, with the violation statistics
maintained by triggers over B-tree indexed tables. Here the relation
lives in one place, a :class:`ColumnStore`:

* per attribute, an append-only :class:`Vocabulary` assigning a dense
  integer *code* to every distinct value ever stored in that column;
* a NumPy ``int32`` code matrix of shape ``(attributes, capacity)`` —
  each relation column is a contiguous row slice, one slot per live
  tuple (kept dense under deletion by swap-with-last);
* a bidirectional ``tid <-> row position`` mapping: the tids by row
  position, and one int array indexed by tid holding each tuple's row
  position (``-1`` for ids never stored or deleted).

Values decode on demand. Equality — the only predicate CFDs need —
becomes integer comparison over contiguous arrays, so context masks,
LHS partitions and RHS histograms vectorize with
``==``/``np.bincount``/``np.unique`` instead of per-tuple Python loops.

Two dictionary-encoding caveats worth knowing:

* vocabularies are append-only: overwriting the last occurrence of a
  value does **not** retire its code. ``codes_at`` therefore reads
  codes of *live* rows only and never leaks stale values;
* code equality follows Python ``dict`` semantics (``1``, ``1.0`` and
  ``True`` share a code), so a stored value reads back as the first
  value of its column it is ``==`` and hash-equal to.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import cast

import numpy as np

from repro.db.schema import Schema
from repro.errors import SchemaError, UnknownTupleError

__all__ = ["ColumnStore", "Vocabulary"]

#: Initial per-column capacity (arrays double when full).
_MIN_CAPACITY = 16


class Vocabulary:
    """Append-only value → dense-code dictionary for one attribute.

    Examples
    --------
    >>> vocab = Vocabulary()
    >>> vocab.encode("Michigan City"), vocab.encode("Westville")
    (0, 1)
    >>> vocab.encode("Michigan City")
    0
    >>> vocab.decode(1)
    'Westville'
    >>> vocab.code_of("Gary")
    -1
    """

    __slots__ = ("_code_of", "_values")

    def __init__(self) -> None:
        self._code_of: dict[object, int] = {}
        self._values: list[object] = []

    def encode(self, value: object) -> int:
        """The code for *value*, allocating a fresh one when unseen."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._values)
            self._code_of[value] = code
            self._values.append(value)
        return code

    def code_of(self, value: object) -> int:
        """The code for *value*, or ``-1`` when it was never stored."""
        return self._code_of.get(value, -1)

    def decode(self, code: int) -> object:
        """The value carrying *code*."""
        return self._values[code]

    def decode_many(self, codes: Iterable[int]) -> list[object]:
        """Decode a sequence of codes in one pass."""
        values = self._values
        return [values[c] for c in codes]

    def copy(self) -> "Vocabulary":
        """An independent vocabulary assigning the same codes."""
        copy = Vocabulary()
        copy._code_of, copy._values = dict(self._code_of), list(self._values)
        return copy

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._code_of

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} values)"


class ColumnStore:
    """Dictionary-encoded code arrays for every attribute of a relation.

    Parameters
    ----------
    schema:
        The relation schema (fixes the column count and order).
    items:
        Initial ``(tid, values)`` pairs; loaded in ascending tid order
        so freshly built stores assign codes deterministically.

    Notes
    -----
    The store is written *by* :class:`~repro.db.database.Database`
    (synchronously, before listeners fire), not via listener callbacks:
    consumers reading the columns from inside a listener always see the
    post-write image.
    """

    def __init__(self, schema: Schema, items: Iterable[tuple[int, Sequence[object]]] = ()) -> None:
        self.schema = schema
        ncols = len(schema)
        self._vocabs = [Vocabulary() for _ in range(ncols)]
        # one (ncols, capacity) matrix: each column of the relation is a
        # contiguous row slice, and one tuple's codes gather with a
        # single fancy index down the row-position axis
        self._matrix = np.empty((ncols, _MIN_CAPACITY), dtype=np.int32)
        self._tids = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._pos_of = np.full(_MIN_CAPACITY, -1, dtype=np.int64)
        self._size = 0
        for tid, values in sorted(items, key=lambda item: item[0]):
            self.append(tid, values)

    # ------------------------------------------------------------------
    # maintenance (driven by Database mutations)
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * self._size)
        ncols = len(self.schema)
        matrix = np.empty((ncols, capacity), dtype=np.int32)
        tids = np.empty(capacity, dtype=np.int64)
        matrix[:, : self._size] = self._matrix[:, : self._size]
        self._matrix = matrix
        tids[: self._size] = self._tids[: self._size]
        self._tids = tids

    def require_hashable(self, tid: int, pos: int, value: object) -> None:
        """Raise :class:`SchemaError` when *value* cannot be encoded."""
        try:
            hash(value)
        except TypeError:
            attribute = self.schema.attributes[pos]
            raise SchemaError(
                f"value {value!r} for attribute {attribute!r} of tuple {tid} is unhashable"
            ) from None

    def append(self, tid: int, values: Sequence[object]) -> None:
        """Encode and store one new tuple (:class:`SchemaError`, with the
        store unmodified, for a wrong-length row or an unhashable value)."""
        if len(values) != len(self._vocabs):
            raise SchemaError(
                f"row for tuple {tid} has {len(values)} values, "
                f"schema {self.schema.name!r} expects {len(self._vocabs)}"
            )
        try:
            # a lookup pass first: it raises before any vocabulary grows
            codes = [vocab._code_of.get(value) for vocab, value in zip(self._vocabs, values)]
        except TypeError:
            for pos, value in enumerate(values):
                self.require_hashable(tid, pos, value)
            raise
        if None in codes:
            for pos, code in enumerate(codes):
                if code is None:
                    codes[pos] = self._vocabs[pos].encode(values[pos])
        if self._size == self._matrix.shape[1]:
            self._grow()
        row = self._size
        self._tids[row] = tid
        self._matrix[:, row] = cast("list[int]", codes)
        if tid >= len(self._pos_of):
            pos_of = np.full(max(tid + 1, 2 * len(self._pos_of)), -1, dtype=np.int64)
            pos_of[: len(self._pos_of)] = self._pos_of
            self._pos_of = pos_of
        self._pos_of[tid] = row
        self._size += 1

    def set_cell(self, tid: int, pos: int, value: object) -> None:
        """Encode and store one cell after a write."""
        self._matrix[pos, self.position_of(tid)] = self._vocabs[pos].encode(value)

    def remove(self, tid: int) -> None:
        """Drop one tuple, keeping the arrays dense (swap-with-last)."""
        row = self.position_of(tid)
        self._pos_of[tid] = -1
        last = self._size - 1
        if row != last:
            moved_tid = int(self._tids[last])
            self._tids[row] = moved_tid
            self._matrix[:, row] = self._matrix[:, last]
            self._pos_of[moved_tid] = row
        self._size = last

    def copy(self) -> "ColumnStore":
        """An independent store with the same codes (whole vocabularies
        copied), rows in tid order."""
        order = self.tid_order()
        copy = ColumnStore(self.schema)
        copy._vocabs = [vocab.copy() for vocab in self._vocabs]
        copy._matrix = self._matrix[:, order]  # capacity = size; appends grow it
        copy._tids = self._tids[order]
        copy._pos_of = np.full(len(self._pos_of), -1, dtype=np.int64)
        copy._pos_of[copy._tids] = np.arange(len(order))
        copy._size = len(order)
        return copy

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def codes(self, pos: int) -> np.ndarray:
        """Code array for column *pos* (a contiguous view over live rows)."""
        return self._matrix[pos, : self._size]

    def gather_row(self, tid: int, positions: np.ndarray) -> np.ndarray:
        """Codes of tuple *tid* at the given column positions (one gather)."""
        return self._matrix[positions, self.position_of(tid)]

    def gather(self, positions: Sequence[int], rows: Sequence[int]) -> np.ndarray:
        """Codes at column *positions* x storage *rows* (one slice).

        Returns a ``(len(positions), len(rows))`` array; row positions
        come from :meth:`position_of`.
        """
        return self._matrix[np.ix_(positions, rows)]

    def code_at(self, row: int, pos: int) -> int:
        """Code at storage row *row*, column *pos* (no tid indirection).

        Callers obtain *row* via :meth:`position_of` once and then read
        several cells of the same tuple cheaply.
        """
        return int(self._matrix[pos, row])

    def tids(self) -> np.ndarray:
        """Tuple ids by row position (a view; order is storage order)."""
        return self._tids[: self._size]

    def tid_order(self) -> np.ndarray:
        """Row positions sorted by tuple id."""
        return np.argsort(self._tids[: self._size], kind="stable")

    def value(self, tid: int, pos: int) -> object:
        """The decoded value of tuple *tid* at column *pos*."""
        return self._vocabs[pos]._values[self._matrix.item(pos, self.position_of(tid))]

    def row_values(self, tid: int) -> tuple[object, ...]:
        """Tuple *tid*'s decoded values, in schema order."""
        codes = self._matrix[:, self.position_of(tid)].tolist()
        return tuple([vocab._values[code] for vocab, code in zip(self._vocabs, codes)])

    def column_values(self, pos: int, rows: np.ndarray) -> list[object]:
        """Decoded values of column *pos* at storage *rows* (one gather)."""
        return self._vocabs[pos].decode_many(self._matrix[pos, rows].tolist())

    def vocabulary(self, pos: int) -> Vocabulary:
        """The dictionary of column *pos*."""
        return self._vocabs[pos]

    def code_for(self, pos: int, value: object) -> int:
        """Code of *value* in column *pos*, ``-1`` when never stored."""
        return self._vocabs[pos].code_of(value)

    def position_of(self, tid: int) -> int:
        """Current row position of tuple *tid*."""
        if tid >= 0:
            try:
                row: int = self._pos_of.item(tid)
            except IndexError:
                row = -1
            if row >= 0:
                return row
        raise UnknownTupleError(tid)

    def positions_of(self, tids: np.ndarray) -> np.ndarray:
        """Current row positions of the tuples *tids* (one gather)."""
        tids = np.asarray(tids, dtype=np.int64)
        inside = (tids >= 0) & (tids < len(self._pos_of))
        rows = self._pos_of[np.where(inside, tids, 0)]
        absent = ~inside | (rows < 0)
        if absent.any():
            raise UnknownTupleError(int(tids[np.argmax(absent)]))
        return rows

    def __contains__(self, tid: object) -> bool:
        try:
            self.position_of(tid)  # type: ignore[arg-type]
        except (UnknownTupleError, TypeError):
            return False
        return True

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # vectorized predicates
    # ------------------------------------------------------------------
    def match_mask_codes(self, items: Iterable[tuple[int, int]]) -> np.ndarray:
        """Boolean row mask for an equality conjunction over raw codes.

        *items* is an iterable of ``(column position, code)`` pairs
        (e.g. codes read off another row via :meth:`code_at`); the
        result marks the live rows agreeing with every pair.
        """
        mask = np.ones(self._size, dtype=bool)
        for pos, code in items:
            mask &= self.codes(pos) == code
        return mask

    def codes_at(self, pos: int, mask: np.ndarray) -> np.ndarray:
        """Distinct codes of column *pos* over the masked rows (sorted).

        Consumers that memoise or score in code space (the suggestion
        engine's witness pools) read codes directly and decode only
        what they keep, through the column's
        :meth:`Vocabulary.decode_many`.
        """
        return np.unique(self.codes(pos)[mask])

    def __repr__(self) -> str:
        return f"ColumnStore({self.schema.name!r}, {self._size} rows, {len(self.schema)} columns)"
