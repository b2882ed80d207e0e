"""Parity tests for the cached VOI ranking (:class:`GroupBenefitCache`).

The acceptance property of the delta pipeline: at any point in an
interactive scenario, the cache must reproduce the rebuild-from-scratch
ranking — same groups, same order, byte-identical benefits.
"""

import random

import pytest

from repro.constraints import ViolationDetector
from repro.core import (
    GDRConfig,
    GDREngine,
    GroundTruthOracle,
    GroupBenefitCache,
    GroupIndex,
    VOIEstimator,
    group_updates,
)
from repro.datasets import load_dataset
from repro.repair import (
    CandidateUpdate,
    ConsistencyManager,
    Feedback,
    RepairState,
    UpdateGenerator,
    UserFeedback,
)


@pytest.fixture()
def substrate():
    ds = load_dataset("hospital", n=120, seed=5)
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    state = RepairState()
    index = GroupIndex(state)
    generator = UpdateGenerator(db, ds.rules, detector, state)
    manager = ConsistencyManager(db, ds.rules, detector, state, generator)
    estimator = VOIEstimator(detector)
    generator.generate_all()
    return ds, db, detector, state, index, generator, manager, estimator


def _score_probability(update):
    """p̃ = the update score (the engine's cold-start prior)."""
    return update.score


class TestCacheParity:
    def test_initial_ranking_matches_rebuild(self, substrate):
        __, db, detector, state, index, __, __, estimator = substrate
        cache = GroupBenefitCache(estimator, index, detector, db)
        cached = cache.rank_all(_score_probability)
        reference = estimator.rank_groups(group_updates(state.updates()), _score_probability)
        assert [(g.key, b) for g, b in cached] == [(g.key, b) for g, b in reference]
        top = cache.top(_score_probability)
        assert top is not None
        assert top[0].key == reference[0][0].key
        assert top[1] == reference[0][1]

    def test_parity_through_interactive_scenario(self, substrate):
        ds, db, detector, state, index, __, manager, estimator = substrate
        cache = GroupBenefitCache(estimator, index, detector, db)
        rng = random.Random(42)
        rounds = 0
        while rounds < 25 and len(state):
            updates = state.updates()
            update = updates[rng.randrange(len(updates))]
            clean_value = ds.clean.value(update.tid, update.attribute)
            roll = rng.random()
            if roll < 0.5:
                feedback = UserFeedback(Feedback.CONFIRM)
            elif roll < 0.75:
                feedback = UserFeedback(Feedback.REJECT, correction=clean_value)
            elif roll < 0.9:
                feedback = UserFeedback(Feedback.REJECT)
            else:
                feedback = UserFeedback(Feedback.RETAIN)
            manager.apply_feedback(update, feedback)
            manager.refresh_suggestions()
            assert index.verify()
            cached = cache.rank_all(_score_probability)
            reference = estimator.rank_groups(
                group_updates(state.updates()), _score_probability
            )
            assert [(g.key, b) for g, b in cached] == [
                (g.key, b) for g, b in reference
            ], f"diverged at round {rounds}"
            if reference:
                top = cache.top(_score_probability)
                assert top[0].key == reference[0][0].key
                assert top[1] == reference[0][1]
            rounds += 1
        assert rounds > 5  # the scenario actually exercised the cache

    def test_row_dependent_probability_invalidates_on_write(self, substrate):
        __, db, detector, state, index, __, manager, estimator = substrate
        cache = GroupBenefitCache(estimator, index, detector, db)

        def row_probability(update):
            # depends on the tuple's current zip value: exercises the
            # written-row staleness path
            zip_value = str(db.value(update.tid, "zip"))
            return min(1.0, 0.1 + (len(zip_value) % 7) / 10 + update.score / 2)

        first = cache.rank_all(row_probability)
        assert first
        # out-of-band write through the manager's trigger path
        update = state.updates()[0]
        db.set_value(update.tid, "zip", "00000")
        manager.refresh_suggestions()
        cached = cache.rank_all(row_probability)
        reference = estimator.rank_groups(group_updates(state.updates()), row_probability)
        assert [(g.key, b) for g, b in cached] == [(g.key, b) for g, b in reference]

    def test_rescored_suggestion_takes_its_new_prior(self, substrate):
        """A suggestion replaced by the same value at another score keeps
        its tuple in the group, but its score prior is a new p̃."""
        __, db, detector, state, index, __, __, estimator = substrate
        cache = GroupBenefitCache(estimator, index, detector, db)
        cache.rank_all(_score_probability)
        update = next(g for g in index.groups() if g.size > 1).updates[0]
        state.put(CandidateUpdate(update.tid, update.attribute, update.value, update.score / 2))
        cached = cache.rank_all(_score_probability)
        reference = estimator.rank_groups(group_updates(state.updates()), _score_probability)
        assert [(g.key, b) for g, b in cached] == [(g.key, b) for g, b in reference]

    def test_external_write_parity(self, substrate):
        ds, db, detector, state, index, __, manager, estimator = substrate
        cache = GroupBenefitCache(estimator, index, detector, db)
        cache.rank_all(_score_probability)
        rng = random.Random(9)
        tids = db.tids()
        for __round in range(10):
            tid = tids[rng.randrange(len(tids))]
            db.set_value(tid, "city", rng.choice(["Ax", "Bx", "Cx"]))
            manager.refresh_suggestions()
            cached = cache.rank_all(_score_probability)
            reference = estimator.rank_groups(
                group_updates(state.updates()), _score_probability
            )
            assert [(g.key, b) for g, b in cached] == [(g.key, b) for g, b in reference]

    def test_refresh_rescored_count_shrinks(self, substrate):
        """The whole point: after one touch, most groups stay cached."""
        __, db, detector, state, index, __, manager, estimator = substrate
        cache = GroupBenefitCache(estimator, index, detector, db)
        first = cache.refresh(_score_probability)
        assert first == len(index)
        assert cache.refresh(_score_probability) == 0  # nothing moved
        update = state.updates()[0]
        manager.apply_feedback(update, UserFeedback(Feedback.CONFIRM))
        manager.refresh_suggestions()
        rescored = cache.refresh(_score_probability)
        assert 0 < rescored < len(index)


class TestRefreshCounters:
    """``stats`` reports what each refresh re-scored and reused, and the
    estimator's key table reports hits, clears and re-probes by cause."""

    def test_counts_follow_what_moved(self, substrate):
        __, db, detector, state, index, __, __, estimator = substrate
        cache = GroupBenefitCache(estimator, index, detector, db)
        rescored = cache.refresh(_score_probability)
        stats = cache.stats
        assert stats["refreshes"] == 1
        assert stats["last_groups_rescored"] == rescored == len(index)
        assert stats["last_updates_rescored"] == len(state.updates())
        assert stats["last_prob_vectors_reused"] == 0
        keys = estimator.stats
        assert keys["key_reprobes_new"] == keys["key_table_size"] > 0
        assert keys["key_reprobes_moved"] == keys["key_reprobes_rebuild"] == 0
        # a rebuild moves every rule's statistics version but no
        # member, row or committee: every group is re-scored from its
        # stored p̃ vector and every key is retired by the rebuild
        detector.recompute()
        rescored = cache.refresh(_score_probability)
        stats = cache.stats
        assert stats["refreshes"] == 2
        assert rescored == len(index)
        assert stats["last_prob_vectors_reused"] == rescored
        assert stats["prob_vectors_reused"] == rescored
        assert stats["groups_rescored"] == 2 * len(index)
        after = estimator.stats
        assert after["key_reprobes_rebuild"] == keys["key_table_size"]
        assert after["key_reprobes_new"] == keys["key_reprobes_new"]
        # a third pass over unchanged inputs touches nothing
        assert cache.refresh(_score_probability) == 0
        assert cache.stats["refreshes"] == 2

    def test_engine_health_reports_the_key_table(self):
        ds = load_dataset("hospital", n=80, seed=5)
        engine = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(seed=2)
        )
        engine.run(feedback_limit=15)
        voi = engine.health()["voi"]
        assert set(voi) == {
            "key_table_size",
            "key_table_capacity",
            "key_table_hits",
            "key_table_clears",
            "key_reprobes_new",
            "key_reprobes_moved",
            "key_reprobes_rebuild",
        }
        assert voi["key_table_hits"] > 0
        assert voi["key_reprobes_new"] == voi["key_table_size"] > 0
        assert voi["key_table_clears"] == 0
        cache = engine.health()["cache"]
        assert cache["prob_memo_hits"] + cache["prob_memo_misses"] > 0
        assert cache["prob_vectors_reused"] > 0
        assert cache["updates_rescored"] >= cache["groups_rescored"] >= cache["refreshes"] > 0


class TestProbVectorCauses:
    """Stored p̃ vectors are re-predicted only where an input moved, and
    ``stats`` counts each predicted value by its cause."""

    @staticmethod
    def _delta(before, after):
        causes = ("prob_predicted_model", "prob_predicted_row", "prob_predicted_new")
        return {c[len("prob_predicted_"):]: after[c] - before[c] for c in causes}

    def test_a_write_or_a_refit_predicts_only_what_moved(self):
        ds = load_dataset("hospital", n=80, seed=5)
        engine = GDREngine(
            ds.fresh_dirty(),
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.gdr(seed=2, min_examples=2),
        )
        engine.run(feedback_limit=15, drain=False)
        cache, index, learner = engine.benefit_cache, engine.group_index, engine.learner
        cache.refresh(engine.probability)
        assert cache.refresh(engine.probability) == 0

        # a written row: only that tuple's suggestions are predicted
        tid = index.group(index.keys()[0]).updates[0].tid
        attribute = engine.db.schema.attributes[0]
        current = engine.db.values_snapshot(tid)[0]
        other = next(v for v in sorted(engine.db.domain(attribute), key=str) if v != current)
        before = cache.stats
        engine.db.set_value(tid, attribute, other)
        cache.refresh(engine.probability)
        after = cache.stats
        assert self._delta(before, after) == {
            "model": 0, "row": len(index.keys_for_tid(tid)), "new": 0
        }

        # a refit: every member of that attribute's groups is predicted
        fitted = next(k[0] for k in index.keys() if learner.model_version(k[0]) > 0)
        update = index.group(next(k for k in index.keys() if k[0] == fitted)).updates[0]
        learner.add_example(update, engine.db.values_snapshot(update.tid), Feedback.CONFIRM)
        assert learner.retrain(fitted)
        members = sum(index.size(k) for k in index.keys() if k[0] == fitted)
        before = after
        cache.refresh(engine.probability)
        after = cache.stats
        assert self._delta(before, after) == {"model": members, "row": 0, "new": 0}
        assert after["prob_memo_hits"] == before["prob_memo_hits"]


def test_refits_vote_stored_encodings_on_the_golden_hospital_instance():
    """Run to completion on the golden hospital instance, a committee
    re-predicts most values after a refit of its own: at least 85% of
    the model-cause predictions vote a stored encoding instead of
    re-encoding the member. (At the goldens' 40-label budget first
    fits dominate, whose members were only ever scored from the prior
    and must be encoded.)"""
    from tests.golden.test_trajectories import CONFIG_SEED, DATA_SEED, N

    ds = load_dataset("hospital", n=N, seed=DATA_SEED)
    engine = GDREngine(
        ds.fresh_dirty(),
        ds.rules,
        GroundTruthOracle(ds.clean),
        GDRConfig.gdr(seed=CONFIG_SEED),
        clean_db=ds.clean,
    )
    try:
        engine.run()
        cache = engine.health()["cache"]
    finally:
        engine.detach()
    predicted = cache["prob_rows_encoded"] + cache["prob_rows_reused"]
    assert 0 < predicted <= cache["prob_memo_misses"]
    assert cache["prob_rows_encoded"] > 0
    assert cache["prob_rows_reused"] >= 0.85 * cache["prob_predicted_model"] > 0
