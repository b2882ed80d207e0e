"""Named fault points with deterministic, seeded schedules.

The chaos suite needs to break the engine at *exact, reproducible*
moments: the 7th journal append, the 3rd drain decision, every other
loop iteration. Production code therefore calls::

    fault_hit("journal.append", seq=seq)

at each named fault point. With nothing armed this is one module-level
dict truthiness check — cheap enough for hot paths. A test arms a
point with an *action* and a trigger pattern::

    with fault_scope():
        arm("drain.decision", action=kill, at=3)       # 3rd hit only
        arm("engine.iteration", action=storm, every=2) # every 2nd hit

Actions receive the hit's keyword context and may raise (to simulate a
crash or an I/O error) or mutate live structures (to simulate
corruption). Schedules are driven purely by hit counters, so a given
seed → schedule → run is exactly reproducible; :class:`SessionKilled`
is the conventional "process died here" signal used by the
kill-and-restore tests.

The registered points live in :data:`FAULT_POINT_REGISTRY` — a
machine-readable tuple of :class:`FaultPoint` records (name,
description, owning module) that is the single source of truth
consumed by :func:`fault_points`, ``GDREngine.health()`` and the
``fault-registry`` repolint cross-check (which verifies every entry is
instrumented in its owning module and armed by at least one test, and
that no call site names an unregistered point).
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FAULT_POINTS",
    "FAULT_POINT_REGISTRY",
    "FaultPoint",
    "SessionKilled",
    "arm",
    "armed_points",
    "disarm",
    "fault_hit",
    "fault_points",
    "fault_scope",
]


@dataclass(frozen=True)
class FaultPoint:
    """One registered fault point: name, what it models, who fires it."""

    name: str
    description: str
    #: Dotted module whose code calls ``fault_hit(name, ...)``.
    module: str


#: The fault points production code is instrumented with — the single
#: source of truth for arm(), engine.health() and the lint cross-check.
#: Entries must stay literal (name/description/module as plain strings):
#: the repolint ``fault-registry`` rule reads this assignment from the
#: AST without importing the package.
FAULT_POINT_REGISTRY: tuple[FaultPoint, ...] = (
    FaultPoint(
        "journal.append",
        "before a journal record is written to disk",
        "repro.db.journal",
    ),
    FaultPoint(
        "engine.iteration",
        "top of each interactive loop iteration",
        "repro.core.gdr",
    ),
    FaultPoint(
        "engine.drain_pass",
        "top of each learner-drain pass",
        "repro.core.gdr",
    ),
    FaultPoint(
        "drain.decision",
        "after each drain decision is applied",
        "repro.core.gdr",
    ),
    FaultPoint(
        "learner.refit",
        "before an attribute committee refit mutates state",
        "repro.core.learner",
    ),
)

#: Point names, registry order (kept for existing callers/tests).
FAULT_POINTS: tuple[str, ...] = tuple(point.name for point in FAULT_POINT_REGISTRY)


def fault_points() -> dict[str, FaultPoint]:
    """The registry as ``{name: FaultPoint}`` (a fresh dict per call)."""
    return {point.name: point for point in FAULT_POINT_REGISTRY}

FaultAction = Callable[[dict], None]


class SessionKilled(RuntimeError):
    """Conventional 'the process died here' signal for kill tests.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a crash is
    not a library-reported failure mode, and nothing in the engine may
    catch it.
    """


@dataclass
class _Armed:
    """One armed trigger on a fault point."""

    action: FaultAction
    #: Fire on exactly the N-th hit (1-based), when set.
    at: int | None = None
    #: Fire on every N-th hit, when set.
    every: int | None = None
    #: Maximum number of firings (``None`` = unlimited).
    times: int | None = None
    hits: int = field(default=0)
    fired: int = field(default=0)

    def should_fire(self) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.at is not None:
            return self.hits == self.at
        if self.every is not None:
            return self.hits % self.every == 0
        return True


#: point name -> armed triggers. Empty in production.
_SCHEDULE: dict[str, list[_Armed]] = {}


def arm(
    point: str,
    action: FaultAction,
    at: int | None = None,
    every: int | None = None,
    times: int | None = None,
) -> None:
    """Arm *point* with *action*; trigger per *at*/*every*/*times*.

    ``at=N`` fires on the N-th hit only (1-based); ``every=N`` fires on
    every N-th hit; neither means every hit. ``times`` caps total
    firings. Unknown point names are rejected so a typo cannot silently
    arm nothing.
    """
    if point not in FAULT_POINTS:
        raise ValueError(f"unknown fault point {point!r}; known: {FAULT_POINTS}")
    if at is not None and at < 1:
        raise ValueError(f"'at' is a 1-based hit index, got {at}")
    if every is not None and every < 1:
        raise ValueError(f"'every' must be >= 1, got {every}")
    _SCHEDULE.setdefault(point, []).append(
        _Armed(action=action, at=at, every=every, times=times)
    )


def disarm(point: str | None = None) -> None:
    """Disarm one fault point, or every point when *point* is None."""
    if point is None:
        _SCHEDULE.clear()
    else:
        _SCHEDULE.pop(point, None)


def armed_points() -> list[str]:
    """Names of currently armed fault points."""
    return sorted(_SCHEDULE)


def fault_hit(point: str, **context) -> None:
    """Report one pass through a fault point (no-op unless armed)."""
    if not _SCHEDULE:
        return
    triggers = _SCHEDULE.get(point)
    if not triggers:
        return
    for trigger in triggers:
        trigger.hits += 1
        if trigger.should_fire():
            trigger.fired += 1
            context["point"] = point
            context["hit"] = trigger.hits
            trigger.action(context)


@contextmanager
def fault_scope():
    """Context manager disarming every fault point on exit.

    Tests should arm inside a scope so a failing assertion cannot leak
    live faults into the rest of the suite.
    """
    try:
        yield
    finally:
        disarm()
