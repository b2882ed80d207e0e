"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer of the
engine (``db``, ``constraints``, ``repair``, ``core.voi``,
``core.learner``, ``core.gdr``, ``db.journal``) at class level, so every
instance the engine builds afterwards reports through one
:class:`Recorder`.  Nothing in the program is edited; only the traced
run installs the wrappers, and the untraced runs that produce the
end-to-end metrics never import this module.

A layer's *self time* is the time its spans cover minus the time their
child spans cover, so the self times of all layers plus the root
spans' own self time add up to the root wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Aggregates self time per layer over properly nested spans."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [layer, start, child time]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    @property
    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> float:
        end = perf_counter()
        layer, start, child = self._stack.pop()
        duration = end - start
        self.self_time[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()


def _one(*args, **kwargs) -> int:
    return 1


def _len_arg(*args, **kwargs) -> int:
    return len(args[1])


#: (module, class) -> (method, layer, counter, count function, layers it merges into)
ENTRY_POINTS = {
    ("repro.db.database", "Database"): (
        ("__init__", "db.ingest", None, None, ("db.snapshot",)),
        ("snapshot", "db.snapshot", None, None, ()),
        ("set_value", "db.write", "db.writes", _one, ()),
    ),
    ("repro.constraints.violations", "ViolationDetector"): (
        ("__init__", "constraints.detect", None, None, ()),
        ("recompute", "constraints.detect", None, None, ()),
        ("what_if", "constraints.whatif", "constraints.whatif_cells", _one, ()),
        ("what_if_many", "constraints.whatif", "constraints.whatif_cells", _one, ()),
        ("what_if_moved_many", "constraints.whatif", "constraints.whatif_cells", _one, ()),
        ("what_if_moved_many_cells", "constraints.whatif", "constraints.whatif_cells", _len_arg, ()),
    ),
    ("repro.repair.generator", "UpdateGenerator"): (
        ("generate_all", "repair.generate_all", None, None, ()),
        ("generate_for_cells", "repair.generate_cells", "repair.generated_cells", _len_arg,
         ("repair.generate_all",)),
    ),
    ("repro.repair.consistency", "ConsistencyManager"): (
        ("apply_feedback", "repair.apply", "repair.applies", _one, ()),
        ("refresh_suggestions", "repair.refresh", "repair.refreshes", _one, ()),
        ("refresh_suggestions_full", "repair.refresh", "repair.refreshes", _one, ()),
    ),
    ("repro.core.voi", "GroupBenefitCache"): (
        ("top", "voi.top", None, None, ()),
        ("refresh", "voi.top", None, None, ()),
    ),
    ("repro.core.voi", "VOIEstimator"): (
        ("update_benefit", "voi.benefits", "voi.benefit_calls", _one, ()),
        ("update_benefits_many", "voi.benefits", "voi.benefit_calls", _one, ()),
        ("group_benefit", "voi.benefits", "voi.benefit_calls", _one, ()),
        ("rank_groups", "voi.benefits", "voi.benefit_calls", _one, ()),
    ),
    ("repro.core.learner", "FeedbackLearner"): (
        ("retrain", "learner.retrain", "learner.retrains", _one, ()),
        ("predict", "learner.predict", "learner.predicted_rows", _one, ()),
        ("predict_many", "learner.predict", "learner.predicted_rows", _len_arg, ()),
    ),
    ("repro.core.gdr", "GDREngine"): (
        ("current_loss", "gdr.loss_eval", "gdr.loss_evals", _one, ()),
        ("checkpoint", "checkpoint", "checkpoints", _one, ()),
    ),
    ("repro.db.journal", "FeedbackJournal"): (
        ("append", "journal.append", "journal.records", _one, ()),
    ),
}

#: Every layer an entry point reports to, in report order.
LAYERS = tuple(dict.fromkeys(entry[1] for entries in ENTRY_POINTS.values() for entry in entries))


def _wrap(recorder: Recorder, original, layer, counter, count, merge):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        current = recorder.current
        if current == layer or current in merge:
            return original(*args, **kwargs)
        if counter is not None:
            recorder.counts[counter] += count(*args, **kwargs)
        recorder.enter(layer)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.exit()

    return wrapper


def install(recorder: Recorder):
    """Wrap every entry point; returns a function that restores them."""
    undo = []
    for (module, cls_name), entries in ENTRY_POINTS.items():
        cls = getattr(importlib.import_module(module), cls_name)
        for method, layer, counter, count, merge in entries:
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(recorder, original, layer, counter, count, merge))
            undo.append((cls, method, original))

    # the columnar image is encoded lazily on first access; that encode
    # is part of ingest, so time the one access that builds it
    from repro.db.database import Database

    columns = Database.__dict__["columns"]

    def columns_getter(db):
        if db._columns is not None:
            return columns.fget(db)
        with recorder.span("db.ingest"):
            return columns.fget(db)

    Database.columns = property(columns_getter, doc=columns.__doc__)
    undo.append((Database, "columns", columns))

    def uninstall() -> None:
        for cls, method, original in reversed(undo):
            setattr(cls, method, original)

    return uninstall
