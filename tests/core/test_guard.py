"""Tests for :mod:`repro.core.guard` (invariant guard + degradation)."""

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle, InvariantGuard
from repro.core.guard import COMPONENTS, Incident, _Cursor
from repro.errors import IntegrityError


def make_engine(dirty, clean, rules, **overrides):
    config = GDRConfig.gdr(**overrides)
    return GDREngine(
        dirty, rules, GroundTruthOracle(clean), config=config, clean_db=clean
    )


@pytest.fixture()
def guarded(figure1_dirty, figure1_clean, figure1_rules):
    engine = make_engine(
        figure1_dirty, figure1_clean, figure1_rules, guard=True, guard_interval=1
    )
    return engine


class TestIncident:
    def test_as_dict(self):
        incident = Incident(component="sim_cache", detail="x", tick=3)
        assert incident.as_dict() == {
            "component": "sim_cache",
            "detail": "x",
            "tick": 3,
            "recovered": True,
        }


class TestCursor:
    def test_rotates_with_wraparound(self):
        cursor = _Cursor()
        ids = [0, 1, 2, 3, 4]
        assert cursor.take(ids, 3) == [0, 1, 2]
        assert cursor.take(ids, 3) == [3, 4, 0]
        assert cursor.take(ids, 3) == [1, 2, 3]

    def test_count_capped_at_population(self):
        cursor = _Cursor()
        assert cursor.take([0, 1], 16) == [0, 1]
        assert cursor.take([], 16) == []


class TestAudits:
    def test_clean_engine_audits_clean(self, guarded):
        assert guarded.guard.audit() == []
        assert guarded.guard.incidents == []

    def test_group_index_corruption_detected_and_rebuilt(self, guarded):
        index = guarded.group_index
        key, bucket = next(iter(index._members.items()))
        bucket.pop(next(iter(bucket)))  # drop one member behind the index's back
        assert not index.verify()
        incidents = guarded.guard.audit()
        assert [i.component for i in incidents] == ["group_index"]
        assert index.verify()  # rebuilt
        assert guarded.guard.consume_degraded("group_index")
        assert not guarded.guard.consume_degraded("group_index")  # one-shot

    def test_benefit_cache_corruption_detected_and_invalidated(self, guarded):
        cache = guarded.benefit_cache
        cache.rank_all(guarded.probability)  # populate
        key = next(iter(cache._benefit))
        cache._benefit[key] += 1234.5
        incidents = guarded.guard.audit()
        assert [i.component for i in incidents] == ["benefit_cache"]
        assert "Eq. 6" in incidents[0].detail
        assert guarded.guard.audit() == []  # invalidation restored agreement

    def test_sim_cache_corruption_detected_and_cleared(self, guarded):
        guarded.sim_cache._strs[("Westville", "Westvile")] = 0.001
        incidents = guarded.guard.audit()
        assert [i.component for i in incidents] == ["sim_cache"]
        assert len(guarded.sim_cache) == 0

    def test_decision_memo_corruption_detected_and_cleared(self, guarded):
        from repro.repair.generator import _pack

        generator = guarded.generator
        update = guarded.state.updates()[0]
        tid, attribute = update.cell
        layout = generator._mask_layout(attribute, guarded.detector.violation_masks()[tid])
        codes = tuple(guarded.db.columns.gather_row(tid, layout.positions).tolist())
        key = _pack(codes)
        assert layout.decisions[key] == (update.value, update.score)
        layout.decisions[key] = ("CORRUPTED", 0.5)
        # unguarded, the corrupted entry is what the next selection reads
        assert generator.generate_for_cells([update.cell])[0].value == "CORRUPTED"
        guard = InvariantGuard(guarded, interval=1, sample=10**6)
        incidents = guard.audit()
        assert [i.component for i in incidents] == ["decision_memo"]
        assert "CORRUPTED" in incidents[0].detail
        assert generator.stats["decision_memo_size"] == 0
        assert not guard.consume_degraded("decision_memo")
        # the next selection decides afresh and restores the suggestion
        again = generator.generate_for_cells([update.cell])[0]
        assert (again.value, again.score) == (update.value, update.score)
        assert guard.audit() == []

    def test_in_place_recoveries_do_not_degrade(self, guarded):
        # sim_cache recovers fully in place (a clear); no consumer
        # exists for a degraded flag, so none is set and degraded_steps
        # stays honest
        guarded.sim_cache._strs[("Westville", "Westvile")] = 0.001
        incidents = guarded.guard.audit()
        assert {i.component for i in incidents} == {"sim_cache"}
        assert not guarded.guard.consume_degraded("sim_cache")
        assert guarded.guard.stats["degraded_steps"] == 0

    def test_tick_audits_on_interval(self, guarded):
        guard = InvariantGuard(guarded, interval=3)
        for _ in range(6):
            guard.tick()
        assert guard.stats["ticks"] == 6
        assert guard.stats["audits"] == 2

    def test_escalates_past_incident_budget(self, guarded):
        guard = InvariantGuard(guarded, interval=1, max_incidents=1)
        guarded.sim_cache._strs[("a", "b")] = 0.9
        guard.audit()  # first incident fits the budget
        bucket = next(iter(guarded.group_index._members.values()))
        bucket.pop(next(iter(bucket)))  # the second comes from the group index
        with pytest.raises(IntegrityError, match="incidents"):
            guard.audit()

    def test_components_registry_matches_audits(self):
        assert COMPONENTS == (
            "group_index",
            "benefit_cache",
            "sim_cache",
            "decision_memo",
        )


class TestGuardedRunParity:
    @pytest.mark.parametrize("preset", ["gdr", "s_learning", "no_learning"])
    def test_guard_on_equals_guard_off(
        self, preset, figure1_dirty, figure1_clean, figure1_rules
    ):
        plain_db = figure1_dirty.snapshot()
        plain = GDREngine(
            plain_db,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=getattr(GDRConfig, preset)(),
            clean_db=figure1_clean,
        )
        expected = plain.run()

        guarded_db = figure1_dirty.snapshot()
        engine = GDREngine(
            guarded_db,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=getattr(GDRConfig, preset)(guard=True, guard_interval=1),
            clean_db=figure1_clean,
        )
        result = engine.run()
        assert guarded_db.equals_data(plain_db)
        assert result.feedback_used == expected.feedback_used
        assert result.remaining_dirty == expected.remaining_dirty
        assert engine.guard.stats["audits"] > 0
        assert engine.guard.incidents == []
