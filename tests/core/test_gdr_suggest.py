"""Suggestion-engine tests: batched generation vs the per-cell reference.

The batched engine (code-space similarity, witness-signature sharing,
kernel-scored pools, the decision memo) must reproduce the
``GDRResult`` of a session generating cell by cell through
``UpdateGenerator.generate_for_cell`` (``tests/oracles/suggest.py``)
byte-for-byte for fixed seeds — same labels, same learner decisions,
same trajectory, same final instance.
"""

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.errors import ConfigError
from tests.oracles.pipeline import use_rebuild_pipeline
from tests.oracles.suggest import use_scalar_suggestions


def _run(preset, dataset="hospital", n=150, budget=40, data_seed=7, config_seed=3, **overrides):
    ds = load_dataset(dataset, n=n, seed=data_seed)
    db = ds.fresh_dirty()
    config = preset(seed=config_seed, **overrides)
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    result = engine.run(feedback_limit=budget)
    return db, result, engine


def _run_scalar(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        use_scalar_suggestions(patch)
        return _run(*args, **kwargs)


def _trajectory(result):
    return [(p.feedback, p.learner_decisions, p.loss) for p in result.trajectory]


class TestSuggestConfig:
    def test_default_is_batched(self):
        """Engine generation goes through the decision memo (the
        per-cell reference never touches it)."""
        ds = load_dataset("hospital", n=60, seed=0)
        engine = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert engine.generator.stats["decision_memo_misses"] > 0

    def test_invalid_suggest_rejected(self):
        """The per-cell path is test-side only; the knob is gone."""
        with pytest.raises(TypeError, match="suggest"):
            GDRConfig(suggest="scalar")

    def test_invalid_sim_cache_capacity_rejected(self):
        with pytest.raises(ConfigError):
            GDRConfig(sim_cache_capacity=0)

    def test_engine_owns_one_similarity_cache(self):
        ds = load_dataset("hospital", n=60, seed=0)
        engine = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert engine.generator.sim is engine.sim_cache
        assert engine.learner.encoder.sim is engine.sim_cache

    def test_two_engines_do_not_share_cache_state(self):
        """The old module-global ``lru_cache`` leaked across engines;
        engine-owned caches must be independent."""
        ds = load_dataset("hospital", n=60, seed=0)
        first = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        first.detach()
        second = GDREngine(
            ds.fresh_dirty(), ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr()
        )
        assert first.sim_cache is not second.sim_cache
        assert second.sim_cache.stats["hits"] <= first.sim_cache.stats["hits"]

    def test_cache_capacity_honoured(self):
        ds = load_dataset("hospital", n=80, seed=1)
        engine = GDREngine(
            ds.fresh_dirty(),
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.gdr(sim_cache_capacity=8),
            clean_db=ds.clean,
        )
        engine.run(feedback_limit=10)
        assert len(engine.sim_cache) <= 8 + 64  # one batch may overshoot, then purge
        assert engine.sim_cache.stats["evictions"] > 0


class TestByteIdenticalSuggestParity:
    @pytest.mark.parametrize(
        "preset",
        [GDRConfig.gdr, GDRConfig.s_learning, GDRConfig.active_learning, GDRConfig.no_learning],
        ids=["gdr", "s_learning", "active_learning", "no_learning"],
    )
    def test_batched_matches_scalar(self, preset, monkeypatch):
        db_b, result_b, __ = _run(preset)
        db_s, result_s, __ = _run_scalar(monkeypatch, preset)
        assert db_b.equals_data(db_s)
        assert result_b.feedback_used == result_s.feedback_used
        assert result_b.learner_decisions == result_s.learner_decisions
        assert result_b.iterations == result_s.iterations
        assert result_b.initial_loss == result_s.initial_loss
        assert result_b.final_loss == result_s.final_loss
        assert _trajectory(result_b) == _trajectory(result_s)
        assert result_b.remaining_dirty == result_s.remaining_dirty

    def test_adult_dataset_parity(self, monkeypatch):
        kwargs = dict(dataset="adult", n=120, budget=30, data_seed=2, config_seed=1)
        db_b, result_b, __ = _run(GDRConfig.gdr, **kwargs)
        db_s, result_s, __ = _run_scalar(monkeypatch, GDRConfig.gdr, **kwargs)
        assert db_b.equals_data(db_s)
        assert _trajectory(result_b) == _trajectory(result_s)

    def test_batched_on_rebuild_pipeline_parity(self, monkeypatch):
        with monkeypatch.context() as patch:
            use_rebuild_pipeline(patch)
            db_b, result_b, __ = _run(GDRConfig.gdr)
            use_scalar_suggestions(patch)
            db_s, result_s, __ = _run(GDRConfig.gdr)
        assert db_b.equals_data(db_s)
        assert _trajectory(result_b) == _trajectory(result_s)

    def test_cache_sees_traffic_during_run(self):
        __, __, engine = _run(GDRConfig.gdr)
        stats = engine.sim_cache.stats
        assert stats["misses"] > 0
        assert stats["hits"] > 0
