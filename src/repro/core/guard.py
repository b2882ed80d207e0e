"""Invariant guard: sampling auditor with graceful degradation.

The engine trades per-iteration rebuilds for incrementally maintained
structures — the event-driven :class:`~repro.core.grouping.GroupIndex`,
the stamp-guarded :class:`~repro.core.voi.GroupBenefitCache`, the
code-space :class:`~repro.repair.similarity.SimilarityCache` and the
suggestion engine's write-surviving decision memo. Each has a
from-scratch reference (``group_updates``, the cache-free
``VOIEstimator.rank_groups``, the scalar Eq. 7, a fresh Algorithm 1
decision); the guard turns those references into a *runtime* safety
net:

* every engine iteration calls :meth:`InvariantGuard.tick`; every
  *interval*-th tick runs one audit pass cross-checking each live
  structure against its reference;
* a divergence is recorded as a structured :class:`Incident` and the
  corrupted component alone is evicted/rebuilt. For the ranking
  structures (``group_index``, ``benefit_cache``) the next group
  selection additionally ranks freshly built groups
  (*graceful degradation* — one slow step instead of a crash or a
  silently wrong ranking); for ``sim_cache`` and ``decision_memo``
  the recovery action itself (a clear) already restores correctness —
  later reads recompute from the reference — so no degraded step is
  needed;
* incidents beyond *max_incidents* escalate to
  :class:`~repro.errors.IntegrityError` — past that point the session
  keeps diverging faster than it can repair itself and hard failure is
  the only trustworthy answer.

Audits are read-only with respect to engine results: re-scoring the
benefit cache is exactly the refresh the next ``top()`` would perform,
and rebuilding a corrupted structure restores precisely the state the
incremental path is specified (and tested) to maintain — so a guarded
run produces the same ``GDRResult`` as an unguarded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grouping import group_sort_key
from repro.errors import IntegrityError
from repro.repair.similarity import similarity

__all__ = ["Incident", "InvariantGuard"]

#: Components the guard audits, in audit order.
COMPONENTS = ("group_index", "benefit_cache", "sim_cache", "decision_memo")


@dataclass(frozen=True, slots=True)
class Incident:
    """One detected divergence between a live structure and its reference.

    Attributes
    ----------
    component:
        Which structure diverged (one of :data:`COMPONENTS`).
    detail:
        Human-readable description of the divergence.
    tick:
        The guard tick at which the audit caught it.
    recovered:
        True when the component was evicted/rebuilt in place.
    """

    component: str
    detail: str
    tick: int
    recovered: bool = True

    def as_dict(self) -> dict:
        """JSON-friendly form (for incident logs)."""
        return {
            "component": self.component,
            "detail": self.detail,
            "tick": self.tick,
            "recovered": self.recovered,
        }


@dataclass(slots=True)
class _Cursor:
    """Rotating sample cursor over an ordered id space."""

    offset: int = 0

    def take(self, ids: list, count: int) -> list:
        if not ids or count <= 0:
            return []
        start = self.offset % len(ids)
        self.offset = (start + count) % len(ids)
        doubled = ids + ids
        return doubled[start : start + min(count, len(ids))]


class InvariantGuard:
    """Samples the engine's live structures against their references.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.gdr.GDREngine` to watch.
    interval:
        Run one audit pass every *interval* ticks (1 = every tick).
    max_incidents:
        Incident budget; exceeding it raises
        :class:`~repro.errors.IntegrityError`.
    sample:
        How many sim-cache and decision-memo entries the per-audit
        samples cover (full structures are still verified
        for the group index and benefit cache, whose references are
        cheap relative to their structures' sizes).
    """

    def __init__(
        self, engine, interval: int = 4, max_incidents: int = 25, sample: int = 16
    ) -> None:
        self.engine = engine
        self.interval = max(1, int(interval))
        self.max_incidents = max(1, int(max_incidents))
        self.sample = max(1, int(sample))
        self.incidents: list[Incident] = []
        self._ticks = 0
        self._audits = 0
        self._degraded: set[str] = set()
        self._degraded_steps = 0
        self._decision_cursor = _Cursor()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        """Guard-health counters (surfaced by ``GDREngine.health()``)."""
        return {
            "ticks": self._ticks,
            "audits": self._audits,
            "incidents": len(self.incidents),
            "degraded_steps": self._degraded_steps,
        }

    def consume_degraded(self, component: str) -> bool:
        """One-shot degradation flag for *component*.

        Returns True exactly once after an audit recovered the
        component; the caller routes that step through the reference
        path (the rebuilt structure is trusted again afterwards).
        Only ``group_index`` and ``benefit_cache`` incidents set the
        flag — they are consumed by the engine's next group selection;
        ``sim_cache`` and ``decision_memo`` recover fully in place.
        """
        if component in self._degraded:
            self._degraded.discard(component)
            self._degraded_steps += 1
            return True
        return False

    def tick(self) -> list[Incident]:
        """Count one engine step; audit on every *interval*-th.

        Returns the incidents found by this tick's audit (empty when no
        audit ran or everything matched).
        """
        self._ticks += 1
        if self._ticks % self.interval != 0:
            return []
        return self.audit()

    # ------------------------------------------------------------------
    def audit(self) -> list[Incident]:
        """One audit pass over every component; records incidents.

        Raises :class:`~repro.errors.IntegrityError` when the total
        incident count exceeds the budget.
        """
        self._audits += 1
        found: list[Incident] = []
        found.extend(self._audit_group_index())
        found.extend(self._audit_benefit_cache())
        found.extend(self._audit_sim_cache())
        found.extend(self._audit_decision_memo())
        self.incidents.extend(found)
        if len(self.incidents) > self.max_incidents:
            raise IntegrityError(
                f"invariant guard recorded {len(self.incidents)} incidents "
                f"(budget {self.max_incidents}); latest: "
                f"{self.incidents[-1].detail}"
            )
        return found

    def _record(self, component: str, detail: str, degrade: bool = True) -> Incident:
        """Build one incident; optionally flag *component* for degradation.

        *degrade* is False for components whose recovery action alone
        restores correctness (``sim_cache`` and ``decision_memo``
        clear): nothing consumes a degraded flag for them, so setting
        one would only linger and skew ``degraded_steps``.
        """
        incident = Incident(component=component, detail=detail, tick=self._ticks)
        if degrade:
            self._degraded.add(component)
        return incident

    # -- group index ---------------------------------------------------
    def _audit_group_index(self) -> list[Incident]:
        index = self.engine.group_index
        if index.verify():
            return []
        incident = self._record(
            "group_index",
            f"incremental partition diverged from group_updates over "
            f"{len(index)} groups; rebuilt from the live pool",
        )
        index.rebuild()
        return [incident]

    # -- benefit cache -------------------------------------------------
    def _audit_benefit_cache(self) -> list[Incident]:
        cache = self.engine.benefit_cache
        if cache is None:
            return []
        probability = self.engine.probability
        cached = {
            group.key: benefit for group, benefit in cache.rank_all(probability)
        }
        reference = {
            group.key: benefit
            for group, benefit in self.engine.voi.rank_groups(
                self.engine.group_index.groups(), probability
            )
        }
        diverged = sorted(
            (
                key
                for key in cached.keys() | reference.keys()
                if abs(cached.get(key, float("nan")) - reference.get(key, float("nan")))
                > 1e-9
                or (key in cached) != (key in reference)
            ),
            key=group_sort_key,
        )
        if not diverged:
            return []
        key = diverged[0]
        incident = self._record(
            "benefit_cache",
            f"cached Eq. 6 benefit for group {key!r} reads "
            f"{cached.get(key)!r} but the reference ranking computes "
            f"{reference.get(key)!r} ({len(diverged)} groups diverged); "
            f"cache invalidated",
        )
        cache.invalidate()
        return [incident]

    # -- similarity cache ----------------------------------------------
    def _audit_sim_cache(self) -> list[Incident]:
        sim_cache = self.engine.sim_cache
        columns = self.engine.db.columns
        for entry in sim_cache.sample_entries(self.sample):
            if len(entry) == 4:
                pos, cur_code, cand_code, cached = entry
                vocab = columns.vocabulary(pos)
                a, b = vocab.decode(cur_code), vocab.decode(cand_code)
            else:
                a, b, cached = entry
            expected = similarity(a, b)
            if abs(cached - expected) > 1e-9:
                incident = self._record(
                    "sim_cache",
                    f"cached Eq. 7 similarity({a!r}, {b!r}) reads {cached!r}, "
                    f"scalar reference computes {expected!r}; cache cleared",
                    degrade=False,
                )
                sim_cache.clear()
                return [incident]
        return []

    # -- decision memo -------------------------------------------------
    def _audit_decision_memo(self) -> list[Incident]:
        generator = self.engine.generator
        entries = generator.decision_entries()
        for attribute, rules, codes, prevented, cached in self._decision_cursor.take(
            entries, self.sample
        ):
            expected = generator.redecide(attribute, rules, codes, prevented)
            if expected != cached:
                incident = self._record(
                    "decision_memo",
                    f"memoised Algorithm 1 decision for {attribute!r} at signature "
                    f"{codes} reads {cached!r}, a fresh decision computes "
                    f"{expected!r}; memo cleared",
                    degrade=False,
                )
                generator.forget_decisions()
                return [incident]
        return []
