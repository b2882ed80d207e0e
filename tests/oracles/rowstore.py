"""Dict-of-lists tuple store: the reference for :class:`repro.db.Database`.

The database keeps each cell once, as a code in its column store, and
decodes on read. :class:`RowStore` keeps the decoded values themselves
(``tid -> list of values``), with the same tid assignment, snapshot,
restore and diff rules, so a model-based test can run one operation
sequence on both and compare every read.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


class RowStore:
    """Rows by tid, values in schema order."""

    def __init__(self, attributes: Sequence[str]) -> None:
        self.attributes = tuple(attributes)
        self.rows: dict[int, list[object]] = {}
        self.next_tid = 0

    def insert(self, values: Sequence[object]) -> int:
        tid = self.next_tid
        self.next_tid += 1
        self.rows[tid] = list(values)
        return tid

    def delete(self, tid: int) -> None:
        del self.rows[tid]

    def set_value(self, tid: int, attribute: str, value: object) -> bool:
        values = self.rows[tid]
        pos = self.attributes.index(attribute)
        if values[pos] == value:
            return False
        values[pos] = value
        return True

    def value(self, tid: int, attribute: str) -> object:
        return self.rows[tid][self.attributes.index(attribute)]

    def values_snapshot(self, tid: int) -> tuple[object, ...]:
        return tuple(self.rows[tid])

    def tids(self) -> list[int]:
        return sorted(self.rows)

    def column(self, attribute: str) -> list[object]:
        pos = self.attributes.index(attribute)
        return [self.rows[tid][pos] for tid in sorted(self.rows)]

    def domain(self, attribute: str) -> set[object]:
        pos = self.attributes.index(attribute)
        return {values[pos] for values in self.rows.values()}

    def snapshot(self) -> "RowStore":
        return RowStore.from_rows(self.attributes, self.rows, self.next_tid)

    @classmethod
    def from_rows(
        cls, attributes: Sequence[str], rows: Mapping[int, Sequence[object]], next_tid: int
    ) -> "RowStore":
        store = cls(attributes)
        store.rows = {tid: list(values) for tid, values in rows.items()}
        store.next_tid = next_tid
        return store

    def diff_cells(self, other: "RowStore") -> list[tuple[int, str]]:
        diffs: list[tuple[int, str]] = []
        for tid in sorted(set(self.rows) | set(other.rows)):
            mine, theirs = self.rows.get(tid), other.rows.get(tid)
            if mine is None or theirs is None:
                diffs.extend((tid, attr) for attr in self.attributes)
                continue
            diffs.extend(
                (tid, attr) for attr, a, b in zip(self.attributes, mine, theirs) if a != b
            )
        return diffs
