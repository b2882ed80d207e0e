"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class at API
boundaries while still being able to discriminate precise failure
modes when needed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A relation schema is malformed (duplicate or empty attributes)."""


class UnknownAttributeError(SchemaError, KeyError):
    """An attribute name was referenced that is not part of the schema."""

    def __init__(self, attribute: str, schema_name: str = "") -> None:
        self.attribute = attribute
        self.schema_name = schema_name
        where = f" in relation {schema_name!r}" if schema_name else ""
        super().__init__(f"unknown attribute {attribute!r}{where}")


class UnknownTupleError(ReproError, KeyError):
    """A tuple id was referenced that does not exist in the database."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        super().__init__(f"unknown tuple id {tid}")


class RuleError(ReproError):
    """A CFD rule is structurally invalid."""


class RuleParseError(RuleError):
    """The textual CFD notation could not be parsed."""

    def __init__(self, text: str, reason: str) -> None:
        self.text = text
        self.reason = reason
        super().__init__(f"cannot parse CFD {text!r}: {reason}")


class RepairError(ReproError):
    """The repair machinery was used inconsistently."""


class NotFittedError(ReproError):
    """A model was asked to predict before :meth:`fit` was called."""


class ConfigError(ReproError):
    """An engine or experiment was configured with invalid parameters."""


class DatasetError(ConfigError):
    """A benchmark dataset could not be generated or loaded.

    Carries the dataset name (or file path) and, when known, the
    offending parameter/column so callers see *where* the problem is
    instead of a raw ``KeyError``/``TypeError``/``FileNotFoundError``.
    """

    def __init__(self, dataset: str, reason: str, field: str | None = None) -> None:
        self.dataset = dataset
        self.field = field
        where = f" (field {field!r})" if field else ""
        super().__init__(f"dataset {dataset!r}{where}: {reason}")


class JournalError(ReproError):
    """The write-ahead feedback journal could not be written or read."""


class JournalReplayError(JournalError):
    """A journal record does not match the instance it is replayed onto.

    Raised when a write record's expected pre-image disagrees with the
    current cell value — the journal belongs to a different database
    version — or when a replayed feedback record targets a suggestion
    the resumed session never produced.
    """
