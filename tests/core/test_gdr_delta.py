"""Engine-loop tests: rebuild parity and the learner drain.

The engine drives each iteration from incremental structures (O(delta)
refresh, the event-maintained group index, the benefit cache). It must
reproduce, byte-for-byte for fixed seeds, the :class:`GDRResult` of the
test-side rebuild reference (``tests/oracles/pipeline.py``), which
re-scans, re-groups and re-ranks everything per iteration — same
labels, same learner decisions, same trajectory, same final instance.
"""

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle, LearnerPrediction
from repro.datasets import load_dataset
from repro.repair import Feedback, UserFeedback
from tests.oracles.pipeline import use_rebuild_pipeline


def _run(preset, n=150, budget=40, data_seed=7, config_seed=3, **overrides):
    ds = load_dataset("hospital", n=n, seed=data_seed)
    db = ds.fresh_dirty()
    config = preset(seed=config_seed, **overrides)
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    result = engine.run(feedback_limit=budget)
    return db, result, engine


def _run_rebuild(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        use_rebuild_pipeline(patch)
        return _run(*args, **kwargs)


def _trajectory(result):
    return [(p.feedback, p.learner_decisions, p.loss) for p in result.trajectory]


class TestPipelineConfig:
    def test_default_is_delta(self):
        """Every ranking runs on the event-maintained group index; VOI
        adds the benefit cache."""
        ds = load_dataset("hospital", n=60, seed=0)
        for ranking in ("voi", "greedy", "random"):
            engine = GDREngine(
                ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean),
                GDRConfig(ranking=ranking),
            )
            assert engine.group_index.verify()
            assert (engine.benefit_cache is not None) == (ranking == "voi")
            engine.detach()

    def test_invalid_pipeline_rejected(self):
        """The rebuild pipeline is test-side only; the knob is gone."""
        with pytest.raises(TypeError, match="pipeline"):
            GDRConfig(pipeline="rebuild")

    def test_delta_engine_builds_index_and_cache(self):
        ds = load_dataset("hospital", n=60, seed=0)
        engine = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert engine.group_index is not None
        assert engine.benefit_cache is not None
        assert engine.group_index.verify()


class TestByteIdenticalParity:
    @pytest.mark.parametrize(
        "preset",
        [GDRConfig.gdr, GDRConfig.s_learning, GDRConfig.active_learning, GDRConfig.no_learning],
        ids=["gdr", "s_learning", "active_learning", "no_learning"],
    )
    def test_delta_matches_rebuild(self, preset, monkeypatch):
        db_delta, result_delta, __ = _run(preset)
        db_rebuild, result_rebuild, __ = _run_rebuild(monkeypatch, preset)
        assert db_delta.equals_data(db_rebuild)
        assert result_delta.feedback_used == result_rebuild.feedback_used
        assert result_delta.learner_decisions == result_rebuild.learner_decisions
        assert result_delta.iterations == result_rebuild.iterations
        assert result_delta.initial_loss == result_rebuild.initial_loss
        assert result_delta.final_loss == result_rebuild.final_loss
        assert _trajectory(result_delta) == _trajectory(result_rebuild)
        assert result_delta.remaining_dirty == result_rebuild.remaining_dirty

    @pytest.mark.parametrize("ranking", ["greedy", "random"])
    def test_baseline_rankings_match(self, ranking, monkeypatch):
        kwargs = dict(ranking=ranking, learning="none", use_benefit_quota=False)
        db_delta, result_delta, __ = _run(GDRConfig, **kwargs)
        db_rebuild, result_rebuild, __ = _run_rebuild(monkeypatch, GDRConfig, **kwargs)
        assert db_delta.equals_data(db_rebuild)
        assert _trajectory(result_delta) == _trajectory(result_rebuild)

    def test_adult_dataset_parity(self, monkeypatch):
        def run():
            ds = load_dataset("adult", n=120, seed=2)
            db = ds.fresh_dirty()
            engine = GDREngine(
                db,
                ds.rules,
                GroundTruthOracle(ds.clean),
                GDRConfig.gdr(seed=1),
                clean_db=ds.clean,
            )
            return db, engine.run(feedback_limit=30)

        db_delta, result_delta = run()
        with monkeypatch.context() as patch:
            use_rebuild_pipeline(patch)
            db_rebuild, result_rebuild = run()
        assert db_delta.equals_data(db_rebuild)
        assert _trajectory(result_delta) == _trajectory(result_rebuild)

    def test_greedy_pick_matches_rebuild_ranking(self):
        """The delta greedy pick reads sizes off the index's cached key
        order; it must select exactly what the rebuild path's
        ``GreedyRanking`` puts first over fresh groups, at every
        iteration state."""
        from repro.core.grouping import group_updates
        from repro.core.ranking import GreedyRanking

        ds = load_dataset("hospital", n=120, seed=4)
        db = ds.fresh_dirty()
        engine = GDREngine(
            db,
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig(ranking="greedy", learning="none", use_benefit_quota=False, seed=2),
            clean_db=ds.clean,
        )
        strategy = GreedyRanking()
        checked = 0
        for __ in range(12):
            engine.manager.refresh_suggestions()
            if len(engine.state) == 0:
                break
            group, benefit, max_benefit, count = engine._pick_top_group()
            groups = group_updates(engine.state.updates())
            ranked = strategy.rank(groups, engine.probability)
            assert group.key == ranked[0][0].key
            assert group.updates == ranked[0][0].updates
            assert benefit == max_benefit == ranked[0][1]
            assert count == len(groups)
            checked += 1
            # consume the picked group so the next iteration differs
            for update in list(group.updates):
                if engine.state.contains(update):
                    engine.manager.apply_feedback(
                        update, UserFeedback(Feedback.CONFIRM), source="user"
                    )
        assert checked > 3
        engine.detach()

    def test_substrate_stays_verified_after_run(self):
        __, __, engine = _run(GDRConfig.gdr)
        assert engine.detector.verify()
        assert engine.group_index.verify()

    def test_detach_releases_all_listeners(self):
        ds = load_dataset("hospital", n=60, seed=0)
        db = ds.fresh_dirty()
        first = GDREngine(
            db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        first.detach()
        # a detached engine no longer observes writes...
        db.set_value(db.tids()[0], "city", "Nowhere")
        assert len(db._listeners) == 0
        # ...and a second engine over the same instance runs normally
        second = GDREngine(
            db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(), clean_db=ds.clean
        )
        result = second.run(feedback_limit=10)
        assert result.feedback_used > 0


class _ScriptedLearner:
    """Minimal learner double: always decides, always trusted."""

    def __init__(self, feedback=Feedback.CONFIRM, uncertainty=0.0, trusted=True):
        self.feedback = feedback
        self.uncertainty = uncertainty
        self.trusted = trusted
        self.predictions = 0

    def predict(self, update, row):
        self.predictions += 1
        return LearnerPrediction(
            feedback=self.feedback,
            confirm_probability=1.0 if self.feedback is Feedback.CONFIRM else 0.0,
            uncertainty=self.uncertainty,
        )

    def predict_many(self, updates, rows):
        return [self.predict(u, r) for u, r in zip(updates, rows)]

    def is_trusted(self, attribute):
        return self.trusted

    def model_version(self, attribute):
        return 0


def _drain_engine(grouping=True):
    ds = load_dataset("hospital", n=80, seed=4)
    db = ds.fresh_dirty()
    config = GDRConfig(
        ranking="voi", learning="none", grouping=grouping, use_benefit_quota=False
    )
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    return engine


class TestDrainWithLearner:
    def test_zero_passes_decides_nothing(self):
        engine = _drain_engine()
        engine.learner = _ScriptedLearner()
        decided = engine._drain_with_learner(lambda: None, max_passes=0)
        assert decided == 0

    def test_locality_restriction_blocks_unvisited_groups(self):
        engine = _drain_engine(grouping=True)
        engine.learner = _ScriptedLearner()
        assert len(engine.state) > 0
        decided = engine._drain_with_learner(lambda: None)
        assert decided == 0  # no group was ever visited by the user
        assert engine.learner.predictions == 0

    def test_locality_allows_visited_groups_only(self):
        engine = _drain_engine(grouping=True)
        engine.learner = _ScriptedLearner(feedback=Feedback.RETAIN)
        key = engine.group_index.keys()[0]
        visited_size = engine.group_index.size(key)
        engine._visited_groups.add(key)
        decided = engine._drain_with_learner(lambda: None, max_passes=1)
        assert decided == visited_size  # retained every member, nothing else

    def test_no_grouping_drains_whole_pool(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(feedback=Feedback.RETAIN)
        pool = len(engine.state)
        decided = engine._drain_with_learner(lambda: None, max_passes=1)
        assert decided == pool

    def test_fixpoint_termination_and_idempotence(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
        counter = [0]
        decided = engine._drain_with_learner(lambda: counter.__setitem__(0, counter[0] + 1))
        assert decided > 0
        assert counter[0] == decided
        # a second drain finds a fixpoint immediately
        assert engine._drain_with_learner(lambda: None) == 0

    def test_max_passes_caps_multi_pass_drains(self):
        capped = _drain_engine(grouping=False)
        capped.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
        decided_capped = capped._drain_with_learner(lambda: None, max_passes=1)

        free = _drain_engine(grouping=False)
        free.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
        decided_free = free._drain_with_learner(lambda: None, max_passes=25)
        # confirms regenerate suggestions, so the uncapped drain keeps
        # going past the first pass
        assert decided_free > decided_capped > 0

    def test_uncertain_predictions_not_decided(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(uncertainty=0.9)
        assert engine._drain_with_learner(lambda: None) == 0

    def test_untrusted_confirms_not_applied(self):
        engine = _drain_engine(grouping=False)
        engine.learner = _ScriptedLearner(feedback=Feedback.CONFIRM, trusted=False)
        assert engine._drain_with_learner(lambda: None) == 0

    def test_drain_parity_across_pipelines(self, monkeypatch):
        def drain():
            engine = _drain_engine(grouping=True)
            engine.learner = _ScriptedLearner(feedback=Feedback.CONFIRM)
            engine._visited_groups.update(engine.group_index.keys()[:2])
            decided = engine._drain_with_learner(lambda: None, max_passes=3)
            return decided, engine.db.snapshot()

        outcomes = {"delta": drain()}
        with monkeypatch.context() as patch:
            use_rebuild_pipeline(patch)
            outcomes["rebuild"] = drain()
        decided_delta, db_delta = outcomes["delta"]
        decided_rebuild, db_rebuild = outcomes["rebuild"]
        assert decided_delta == decided_rebuild
        assert db_delta.equals_data(db_rebuild)
