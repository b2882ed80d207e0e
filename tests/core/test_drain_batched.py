"""Batch-safe learner drain: the shared batched decision engine,
byte-identical parity with the sequential reference, bounded VOI
caches, and per-rule staleness parity.

The acceptance contract of the batched drain is *byte-for-byte*
equality with the predict-one-apply-one reference
(``tests/oracles/drain.py``, patched in for ``decide_batched``): same
labels, same learner decisions in the same order, same trajectory, same
final instance — for every preset, both datasets, and randomized
multi-suggestion pools.
"""

import random
from types import SimpleNamespace

import pytest

from repro.constraints import RuleSet, ViolationDetector, parse_rules
from repro.core import GDRConfig, GDREngine, GroundTruthOracle, LearnerPrediction
from repro.core.session import decide_batched
from repro.datasets import load_dataset
from repro.db import Database, Schema
from repro.errors import ConfigError
from repro.repair import ConsistencyManager, Feedback, RepairState, UpdateGenerator
from repro.repair.candidate import CandidateUpdate
from tests.oracles.drain import decide_sequential, use_sequential_drain
from tests.oracles.pipeline import use_rebuild_pipeline


def _run(preset, dataset="hospital", n=120, budget=30, data_seed=7, config_seed=3, **overrides):
    ds = load_dataset(dataset, n=n, seed=data_seed)
    db = ds.fresh_dirty()
    config = preset(seed=config_seed, **overrides)
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    result = engine.run(feedback_limit=budget)
    return db, result, engine


def _run_sequential(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        use_sequential_drain(patch)
        return _run(*args, **kwargs)


def _signature(db, result):
    return (
        result.feedback_used,
        result.learner_decisions,
        result.iterations,
        result.final_loss,
        tuple((p.feedback, p.learner_decisions, p.loss) for p in result.trajectory),
        tuple(tuple(row.values) for row in db.rows()),
    )


class TestDrainConfig:
    def test_default_is_batched(self, monkeypatch):
        """Delegation and the drain both decide through ``decide_batched``."""
        import repro.core.gdr
        import repro.core.session

        callers = []

        def spy(module):
            def wrapped(*args):
                callers.append(module.__name__)
                return decide_batched(*args)

            monkeypatch.setattr(module, "decide_batched", wrapped)

        spy(repro.core.session)
        spy(repro.core.gdr)
        _run(GDRConfig.gdr, n=100, budget=25)
        assert set(callers) == {"repro.core.session", "repro.core.gdr"}

    def test_invalid_drain_rejected(self):
        """The sequential drain is test-side only; the knob is gone."""
        with pytest.raises(TypeError, match="drain"):
            GDRConfig(drain="sequential")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigError):
            GDRConfig(voi_cache_capacity=0)

    def test_session_rejects_invalid_drain(self):
        from repro.core.session import InteractiveSession

        with pytest.raises(TypeError, match="drain"):
            InteractiveSession(None, None, None, None, None, drain="sequential")


class _RecordingLearner:
    """Learner double: scripted feedback, records every row it saw."""

    def __init__(self, feedback=Feedback.CONFIRM):
        self.feedback = feedback
        self.batched: list[tuple[tuple[int, str], tuple]] = []
        self.scalar: list[tuple[tuple[int, str], tuple]] = []

    def _prediction(self):
        return LearnerPrediction(
            feedback=self.feedback,
            confirm_probability=1.0 if self.feedback is Feedback.CONFIRM else 0.0,
            uncertainty=0.0,
        )

    def predict(self, update, row):
        self.scalar.append((update.cell, tuple(row)))
        return self._prediction()

    def predict_many(self, updates, rows):
        for update, row in zip(updates, rows):
            self.batched.append((update.cell, tuple(row)))
        return [self._prediction() for __ in updates]


class _FakeState:
    def contains(self, update):
        return True


class _FakeManager:
    """Applies confirms as real writes; records the apply order."""

    def __init__(self, db):
        self.db = db
        self.applied: list[tuple[int, str]] = []

    def apply_feedback(self, update, feedback, source):
        self.applied.append(update.cell)
        wrote = feedback.kind is Feedback.CONFIRM
        if wrote:
            self.db.set_value(update.tid, update.attribute, update.value, source=source)
        return SimpleNamespace(wrote_database=wrote)


class TestDecideBatched:
    """The shared batch engine: one committee pass, in-order applies,
    re-prediction only after an actual same-tuple write."""

    def _substrate(self):
        db = Database(Schema("r", ["a", "b"]), [["a0", "b0"], ["a1", "b1"]])
        return db, _FakeState(), _FakeManager(db)

    def test_empty_batch(self):
        db, state, manager = self._substrate()
        learner = _RecordingLearner()
        assert decide_batched(db, learner, state, manager, [], lambda u, p: True, lambda: None) == 0
        assert learner.batched == [] and learner.scalar == []

    def test_applies_in_list_order(self):
        db, state, manager = self._substrate()
        learner = _RecordingLearner(feedback=Feedback.RETAIN)
        updates = [
            CandidateUpdate(1, "a", "x", 0.5),
            CandidateUpdate(0, "b", "y", 0.5),
            CandidateUpdate(0, "a", "z", 0.5),
        ]
        n = decide_batched(db, learner, state, manager, updates, lambda u, p: True, lambda: None)
        assert n == 3
        assert manager.applied == [(1, "a"), (0, "b"), (0, "a")]

    def test_no_writes_means_single_committee_pass(self):
        """Retains/rejects never write, so no re-predictions happen even
        for tuples carrying several suggestions."""
        db, state, manager = self._substrate()
        learner = _RecordingLearner(feedback=Feedback.RETAIN)
        updates = [CandidateUpdate(0, "a", "x", 0.5), CandidateUpdate(0, "b", "y", 0.5)]
        decide_batched(db, learner, state, manager, updates, lambda u, p: True, lambda: None)
        assert len(learner.batched) == 2
        assert learner.scalar == []

    def test_same_tuple_write_triggers_repredict_on_live_row(self):
        """A confirm earlier in the batch closes the wave for its tuple:
        the tuple's later suggestion is re-predicted against the
        post-write row, exactly as the sequential reference sees it."""
        db, state, manager = self._substrate()
        learner = _RecordingLearner(feedback=Feedback.CONFIRM)
        updates = [
            CandidateUpdate(0, "a", "A0'", 0.5),
            CandidateUpdate(0, "b", "B0'", 0.5),
            CandidateUpdate(1, "a", "A1'", 0.5),
        ]
        decide_batched(db, learner, state, manager, updates, lambda u, p: True, lambda: None)
        # the batch saw every row at snapshot state
        assert learner.batched == [
            ((0, "a"), ("a0", "b0")),
            ((0, "b"), ("a0", "b0")),
            ((1, "a"), ("a1", "b1")),
        ]
        # only (0, "b") was re-predicted, on the row as written by (0, "a")
        assert learner.scalar == [((0, "b"), ("A0'", "b0"))]
        # tuple 1 was never re-predicted: writes to tuple 0 cannot
        # invalidate its batched prediction
        assert manager.applied == [(0, "a"), (0, "b"), (1, "a")]
        assert db.value(0, "b") == "B0'"

    def test_gate_rejections_do_not_apply(self):
        db, state, manager = self._substrate()
        learner = _RecordingLearner()
        updates = [CandidateUpdate(0, "a", "x", 0.5)]
        n = decide_batched(db, learner, state, manager, updates, lambda u, p: False, lambda: None)
        assert n == 0
        assert manager.applied == []

    def test_callback_fired_per_apply(self):
        db, state, manager = self._substrate()
        learner = _RecordingLearner(feedback=Feedback.RETAIN)
        updates = [CandidateUpdate(0, "a", "x", 0.5), CandidateUpdate(1, "a", "y", 0.5)]
        fired = []
        decide_batched(
            db, learner, state, manager, updates, lambda u, p: True, lambda: fired.append(1)
        )
        assert len(fired) == 2

    def test_snapshot_view_released_after_batch(self):
        db, state, manager = self._substrate()
        learner = _RecordingLearner(feedback=Feedback.RETAIN)
        before = len(db._listeners)
        decide_batched(
            db,
            learner,
            state,
            manager,
            [CandidateUpdate(0, "a", "x", 0.5)],
            lambda u, p: True,
            lambda: None,
        )
        assert len(db._listeners) == before


class _CityGatedLearner:
    """Learner double over real rows: confirms a ``city`` suggestion
    outright, and a ``state`` suggestion with a confirm fraction of 1
    only when the row's city already reads 'Michigan City' (else 0)."""

    def __init__(self, schema):
        self.city = schema.position("city")

    def predict(self, update, row):
        if update.attribute == "city":
            fraction = 1.0
        else:
            fraction = 1.0 if row[self.city] == "Michigan City" else 0.0
        feedback = Feedback.CONFIRM if fraction >= 0.5 else Feedback.REJECT
        return LearnerPrediction(feedback=feedback, confirm_probability=fraction, uncertainty=0.0)

    def predict_many(self, updates, rows):
        return [self.predict(update, row) for update, row in zip(updates, rows)]


class TestWaveHazardOnRealSubstrate:
    """Two live suggestions on one tuple in one batch, where the first
    is a learner CONFIRM that rewrites the column the second's
    prediction reads: the batch must re-predict the second on the
    written row, as deciding one at a time does."""

    RULES = """
        (zip -> city, {46360 || 'Michigan City'})
        (zip -> state, {46360 || 'IN'})
    """

    def _substrate(self):
        db = Database(
            Schema("r", ["zip", "city", "state"]),
            [["46360", "Westville", "MI"], ["46360", "Michigan City", "IN"]],
        )
        rules = RuleSet(parse_rules(self.RULES))
        detector = ViolationDetector(db, rules)
        state = RepairState()
        generator = UpdateGenerator(db, rules, detector, state)
        manager = ConsistencyManager(db, rules, detector, state, generator)
        generator.generate_all()
        updates = sorted(state.updates_for_tuple(0), key=lambda u: u.attribute != "city")
        return db, state, manager, updates

    def _decide(self, decide):
        db, state, manager, updates = self._substrate()
        assert [(u.attribute, u.value) for u in updates] == [
            ("city", "Michigan City"),
            ("state", "IN"),
        ]
        applied = decide(
            db,
            _CityGatedLearner(db.schema),
            state,
            manager,
            updates,
            lambda update, prediction: prediction.is_decision,
            lambda: None,
        )
        rows = [tuple(row.values) for row in db.rows()]
        prevented = {cell: state.prevented(cell) for cell in ((0, "city"), (0, "state"))}
        return applied, rows, [(u.cell, u.value) for u in state.updates()], prevented

    def test_batched_matches_sequential_reference(self):
        batched = self._decide(decide_batched)
        sequential = self._decide(decide_sequential)
        assert batched == sequential
        # the second suggestion was confirmed on the rewritten row
        assert batched[0] == 2
        assert batched[1][0] == ("46360", "Michigan City", "IN")


class TestByteIdenticalDrain:
    @pytest.mark.parametrize(
        "preset",
        [GDRConfig.gdr, GDRConfig.s_learning, GDRConfig.active_learning],
        ids=["gdr", "s_learning", "active_learning"],
    )
    def test_batched_matches_sequential_hospital(self, preset, monkeypatch):
        db_b, result_b, __ = _run(preset)
        db_s, result_s, __ = _run_sequential(monkeypatch, preset)
        assert _signature(db_b, result_b) == _signature(db_s, result_s)

    def test_batched_matches_sequential_adult(self, monkeypatch):
        db_b, result_b, __ = _run(GDRConfig.gdr, dataset="adult")
        db_s, result_s, __ = _run_sequential(monkeypatch, GDRConfig.gdr, dataset="adult")
        assert _signature(db_b, result_b) == _signature(db_s, result_s)

    def test_batched_matches_sequential_rebuild_pipeline(self, monkeypatch):
        with monkeypatch.context() as patch:
            use_rebuild_pipeline(patch)
            db_b, result_b, __ = _run(GDRConfig.gdr, n=80, budget=20)
            use_sequential_drain(patch)
            db_s, result_s, __ = _run(GDRConfig.gdr, n=80, budget=20)
        assert _signature(db_b, result_b) == _signature(db_s, result_s)

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_property_randomized_multi_suggestion_pools(self, seed, monkeypatch):
        """Ungrouped pools put several suggestions on one tuple, forcing
        wave boundaries; randomized corruption seeds vary which tuples
        carry them. The decision stream must match regardless."""
        kwargs = dict(dataset="hospital", n=100, budget=25, data_seed=seed, config_seed=seed)
        db_b, result_b, engine_b = _run(GDRConfig.active_learning, **kwargs)
        db_s, result_s, __ = _run_sequential(monkeypatch, GDRConfig.active_learning, **kwargs)
        assert _signature(db_b, result_b) == _signature(db_s, result_s)

    def test_run_without_drain_plus_drain_remaining_equals_full_run(self):
        """``run(drain=False)`` followed by ``drain_remaining()`` is the
        full run, decision for decision — the seam that isolates the
        Figure 5 automatic phase."""

        def build():
            ds = load_dataset("hospital", n=100, seed=7)
            db = ds.fresh_dirty()
            engine = GDREngine(
                db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(seed=3),
                clean_db=ds.clean,
            )
            return db, engine

        db_full, engine_full = build()
        result_full = engine_full.run(feedback_limit=25)
        db_split, engine_split = build()
        result_split = engine_split.run(feedback_limit=25, drain=False)
        decided_after = engine_split.drain_remaining()
        assert result_split.learner_decisions + decided_after == result_full.learner_decisions
        assert db_split.equals_data(db_full)

    def test_drain_remaining_unrestricted_covers_whole_pool(self):
        ds = load_dataset("hospital", n=100, seed=7)
        db = ds.fresh_dirty()
        engine = GDREngine(
            db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(seed=3), clean_db=ds.clean
        )
        engine.run(feedback_limit=25, drain=False)
        restricted = engine.drain_remaining()  # honours grouping locality
        unrestricted = engine.drain_remaining(restrict=False)
        # once locality is lifted the learner may decide strictly more
        assert unrestricted >= 0 and restricted >= 0
        assert engine.learner is not None

    def test_drain_remaining_without_learner_is_zero(self):
        ds = load_dataset("hospital", n=60, seed=7)
        db = ds.fresh_dirty()
        engine = GDREngine(
            db,
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.no_learning(seed=3),
            clean_db=ds.clean,
        )
        assert engine.drain_remaining(restrict=False) == 0


class TestBoundedCaches:
    def test_forced_small_capacity_evicts_and_preserves_results(self):
        db_small, result_small, engine_small = _run(GDRConfig.gdr, voi_cache_capacity=8)
        db_big, result_big, engine_big = _run(GDRConfig.gdr)
        # stored p̃ vectors are bounded by the live pool, whatever the
        # capacity: after a refresh they hold exactly one value per
        # live suggestion, one vector per live group
        cache = engine_small.benefit_cache
        cache.refresh(engine_small.probability)
        stats = cache.stats
        assert stats["prob_vector_members"] == len(engine_small.state.updates())
        assert stats["prob_vectors"] == len(engine_small.group_index)
        assert stats["row_stamps_size"] <= 2 * (max(db_small.tids()) + 1)
        keys = engine_small.health()["voi"]
        assert keys["key_table_capacity"] == 8
        assert keys["key_table_clears"] >= 1
        assert keys["key_table_size"] <= 8
        assert engine_big.health()["voi"]["key_table_clears"] == 0
        # eviction is a memory policy, never a semantics change
        assert _signature(db_small, result_small) == _signature(db_big, result_big)

    def test_stats_counters_populated_on_default_run(self):
        __, __, engine = _run(GDRConfig.gdr)
        stats = engine.benefit_cache.stats
        assert stats["prob_memo_hits"] > 0
        assert stats["prob_memo_misses"] > 0
        causes = ("prob_predicted_model", "prob_predicted_row", "prob_predicted_new")
        assert sum(stats[c] for c in causes) == stats["prob_memo_misses"]
        assert all(stats[c] > 0 for c in causes)


class TestPerRuleStalenessParity:
    def test_cache_matches_rebuild_ranking_after_run(self):
        """The stamped cache (per-rule staleness, memoised p̃) must rank
        exactly like a from-scratch ``rank_groups`` over the live pool."""
        __, __, engine = _run(GDRConfig.gdr, budget=20)
        engine.manager.refresh_suggestions()
        cached = engine.benefit_cache.rank_all(engine.probability)
        rebuilt = engine.voi.rank_groups(engine.group_index.groups(), engine.probability)
        assert [(g.key, b) for g, b in cached] == [(g.key, b) for g, b in rebuilt]

    def test_cache_matches_rebuild_ranking_under_churn(self):
        ds = load_dataset("hospital", n=80, seed=5)
        db = ds.fresh_dirty()
        engine = GDREngine(
            db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(seed=1), clean_db=ds.clean
        )
        rng = random.Random(3)
        tids = db.tids()
        attrs = list(db.schema.attributes)
        for step in range(25):
            engine.manager.refresh_suggestions()
            cached = engine.benefit_cache.rank_all(engine.probability)
            rebuilt = engine.voi.rank_groups(engine.group_index.groups(), engine.probability)
            assert [(g.key, b) for g, b in cached] == [
                (g.key, b) for g, b in rebuilt
            ], f"diverged at step {step}"
            tid = tids[rng.randrange(len(tids))]
            attr = rng.choice(attrs)
            db.set_value(tid, attr, str(db.value(tid, attr)) + "x")
        engine.detach()
