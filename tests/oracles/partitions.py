"""Per-key partition-movement check: the reference for the key table's.

The detector gives every variable-rule partition a small int id and
stamps an id's version on each write; the VOI key table checks all its
keys against those versions in one NumPy pass
(:meth:`repro.core.voi.DeltaKeyCache.moved`). The reference is the
check that came before: every rule state kept a ``{partition key:
tick}`` map of its last touches, and each key was tested on its own,
partition by partition (:func:`partitions_moved`).

:func:`recorded_touches` rebuilds those maps beside a live detector by
wrapping the rule states' ``_touch`` (outside the id-array write it
checks), and :func:`moved_keys` runs the per-key loop over a key
table's reads, named by partition key.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.constraints.violations import _VariableRuleState

#: Per rule state, the tick of each partition key's last touch.
TouchLog = dict[_VariableRuleState, dict[tuple, int]]


@contextmanager
def recorded_touches() -> Iterator[TouchLog]:
    """Log every partition touch of every variable-rule state while open."""
    log: TouchLog = {}
    touch, reset = _VariableRuleState._touch, _VariableRuleState.reset

    def logged_touch(state, key) -> None:
        touch(state, key)
        log.setdefault(state, {})[key] = state._clock.tick

    def logged_reset(state) -> None:
        reset(state)
        log.pop(state, None)

    _VariableRuleState._touch = logged_touch
    _VariableRuleState.reset = logged_reset
    try:
        yield log
    finally:
        _VariableRuleState._touch = touch
        _VariableRuleState.reset = reset


def partitions_moved(reads, tick: int, log: TouchLog) -> bool:
    """True when a partition in *reads* (``(state, key)`` pairs) was
    touched after clock *tick*."""
    for state, key in reads:
        if log.get(state, {}).get(key, 0) > tick:
            return True
    return False


def moved_keys(cache, key_ids: np.ndarray, log: TouchLog) -> np.ndarray:
    """:meth:`~repro.core.voi.DeltaKeyCache.moved` of *key_ids*, one
    key at a time over partition keys."""
    named = {}
    for state in cache._detector._states:
        if isinstance(state, _VariableRuleState):
            for key, pid in state._pids.items():
                named[pid] = (state, key)
    return np.array(
        [
            partitions_moved(
                [named[pid] for pid in cache._pids[k].tolist() if pid], int(cache._tick[k]), log
            )
            for k in key_ids.tolist()
        ],
        dtype=bool,
    )
