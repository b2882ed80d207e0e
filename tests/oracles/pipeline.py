"""Rebuild-from-scratch reference for the engine's per-iteration loop.

Every iteration and drain pass re-scans the pool with
``refresh_suggestions_full``, re-groups it with ``group_updates`` and
re-ranks every group with the strategy's ``rank`` — instead of the
O(delta) refresh, the event-maintained group index and the benefit
cache.
"""

from __future__ import annotations

from repro.core.gdr import GDREngine
from repro.core.grouping import group_updates
from repro.repair.consistency import ConsistencyManager


def pick_top_group(engine: GDREngine):
    """``(group, benefit, max benefit, #groups)`` from a fresh ranking."""
    groups = group_updates(engine.state.updates(), grouping=engine.config.grouping)
    ranked = engine.strategy.rank(groups, engine.probability)
    group, benefit = ranked[0]
    return group, benefit, max(score for __, score in ranked), len(groups)


def drain_candidates(engine: GDREngine, restrict: bool):
    """The live pool, filtered to visited groups under locality."""
    return [
        update
        for update in engine.state.updates()
        if not restrict or update.group_key in engine._visited_groups
    ]


def use_rebuild_pipeline(monkeypatch) -> None:
    """Run every engine built afterwards on the rebuild reference."""
    monkeypatch.setattr(
        ConsistencyManager, "refresh_suggestions", ConsistencyManager.refresh_suggestions_full
    )
    monkeypatch.setattr(GDREngine, "_pick_top_group", pick_top_group)
    monkeypatch.setattr(GDREngine, "_drain_candidates", drain_candidates)
