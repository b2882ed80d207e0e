"""Copy-on-write point-in-time views over a live database.

The batched learner paths (``FeedbackLearner.predict_many`` behind the
drain, the delegation step, the cached VOI ranking) need many row
images *as of one instant* while decisions keep writing the live
instance. Copying every row up front would cost O(instance) per batch;
:class:`SnapshotView` instead pins row images lazily:

* a row first *read* through the view is copied once and served from
  the view on every later read (which also de-duplicates the repeated
  ``values_snapshot`` calls of multi-suggestion batches);
* a row first *written* (before ever being read) has its pre-write
  image reconstructed from the change record the database broadcasts,
  so later reads still observe the pinned version;
* rows neither read nor written cost nothing.

The view therefore observes the instance exactly as it stood at
:attr:`SnapshotView.version`, no matter how many cells are written
while it is held. Releasing the view (explicitly or via ``with``)
detaches it from the database and drops every pinned image.

Scope: views track cell writes (``Database.set_value``), the only
mutation the interactive loop performs. Tuples inserted after the view
was acquired are not hidden from it, and deleting a tuple out from
under a view that never touched it forfeits that tuple's image — both
operations are outside the repair hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.db.changelog import CellChange

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["SnapshotView"]


class SnapshotView:
    """A consistent read view pinned at one database version.

    Parameters
    ----------
    db:
        The live database; the view registers itself as a listener and
        must be released (or used as a context manager) when done.

    Examples
    --------
    >>> from repro.db import Database, Schema
    >>> db = Database(Schema("r", ["a"]), [["x"]])
    >>> with db.snapshot_view() as view:
    ...     db.set_value(0, "a", "y")
    ...     view.values_snapshot(0)
    True
    ('x',)
    >>> db.value(0, "a")
    'y'
    """

    __slots__ = ("_db", "_rows", "_version", "_released")

    def __init__(self, db: "Database") -> None:
        self._db = db
        # tid -> pinned value tuple (captured by first read or write)
        self._rows: dict[int, tuple[object, ...]] = {}
        self._version = db.version
        self._released = False
        db.add_listener(self._on_change)

    @property
    def version(self) -> int:
        """The database version this view observes."""
        return self._version

    @property
    def released(self) -> bool:
        """True once the view has been detached from the database."""
        return self._released

    @property
    def pinned_count(self) -> int:
        """Number of row images currently pinned by the view."""
        return len(self._rows)

    # ------------------------------------------------------------------
    def _on_change(self, change: CellChange) -> None:
        if change.tid in self._rows:
            return  # image already pinned at the view's version
        # Listeners fire post-write: reconstruct the pre-write image by
        # undoing the one cell the change record describes. Any earlier
        # write to this tuple during the view's lifetime would already
        # have pinned it, so exactly one cell differs from the snapshot.
        values = list(self._db.values_snapshot(change.tid))
        values[self._db.schema.position(change.attribute)] = change.old
        self._rows[change.tid] = tuple(values)

    # ------------------------------------------------------------------
    def values_snapshot(self, tid: int) -> tuple[object, ...]:
        """Tuple *tid*'s values as of the view's version (pinned copy).

        Repeated reads of one tuple return the same pinned tuple object
        — callers batching several suggestions per tuple share one row
        image instead of re-copying the row per suggestion.
        """
        if self._released:
            raise RuntimeError("snapshot view has been released")
        row = self._rows.get(tid)
        if row is None:
            row = self._db.values_snapshot(tid)
            self._rows[tid] = row
        return row

    def value(self, tid: int, attribute: str) -> object:
        """One cell value as of the view's version."""
        return self.values_snapshot(tid)[self._db.schema.position(attribute)]

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Detach from the database and drop every pinned image."""
        if self._released:
            return
        self._released = True
        self._db.remove_listener(self._on_change)
        self._rows.clear()

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else f"{len(self._rows)} pinned"
        return f"SnapshotView(version={self._version}, {state})"
