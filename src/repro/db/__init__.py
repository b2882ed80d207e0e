"""In-memory relational substrate (schema, tuple store, columns, audit log).

This package replaces the MySQL backend used in the paper with a pure
Python tuple store that supports cell-level updates, listener hooks
(the analogue of database triggers) and a dictionary-encoded columnar
image.
"""

from repro.db.changelog import CellChange, ChangeLog
from repro.db.columnar import ColumnStore, Vocabulary
from repro.db.database import Database, Row
from repro.db.io import load_csv, save_csv
from repro.db.journal import FeedbackJournal, ReplayOracle
from repro.db.schema import Schema
from repro.db.snapshot import SnapshotView

__all__ = [
    "CellChange",
    "ChangeLog",
    "ColumnStore",
    "Database",
    "FeedbackJournal",
    "ReplayOracle",
    "Row",
    "Schema",
    "SnapshotView",
    "Vocabulary",
    "load_csv",
    "save_csv",
]
