"""Learner tests: histogram committees vs the exact-sort reference.

The histogram committees (fused split search, batched inference, warm
binned refits) must reproduce the ``GDRResult`` of a session whose
committees are the exact-sort CART reference (``tests/oracles/learner.py``)
byte-for-byte for fixed seeds — same labels, same learner decisions,
same trajectory, same final instance.
"""

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.ml.forest import HistogramForestClassifier
from tests.oracles.learner import use_exact_learner


def _run(preset, dataset="hospital", n=150, budget=40, data_seed=7, config_seed=3, **overrides):
    ds = load_dataset(dataset, n=n, seed=data_seed)
    db = ds.fresh_dirty()
    config = preset(seed=config_seed, **overrides)
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    result = engine.run(feedback_limit=budget)
    return db, result, engine


def _run_exact(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        use_exact_learner(patch)
        return _run(*args, **kwargs)


def _trajectory(result):
    return [(p.feedback, p.learner_decisions, p.loss) for p in result.trajectory]


class TestLearnerConfig:
    def test_default_is_hist(self):
        """A default-config engine grows histogram committees."""
        __, __, engine = _run(GDRConfig, n=120, budget=30)
        fitted = [m for m in engine.learner._models.values() if m is not None]
        assert fitted
        assert all(type(m) is HistogramForestClassifier for m in fitted)

    def test_invalid_learner_rejected(self):
        """The exact-sort committees are test-side only; the knob is gone."""
        with pytest.raises(TypeError, match="learner"):
            GDRConfig(learner="exact")


class TestByteIdenticalLearnerParity:
    @pytest.mark.parametrize(
        "preset",
        [GDRConfig.gdr, GDRConfig.s_learning, GDRConfig.active_learning, GDRConfig.no_learning],
        ids=["gdr", "s_learning", "active_learning", "no_learning"],
    )
    def test_hist_matches_exact(self, preset, monkeypatch):
        db_h, result_h, __ = _run(preset)
        db_e, result_e, __ = _run_exact(monkeypatch, preset)
        assert db_h.equals_data(db_e)
        assert result_h.feedback_used == result_e.feedback_used
        assert result_h.learner_decisions == result_e.learner_decisions
        assert result_h.iterations == result_e.iterations
        assert result_h.initial_loss == result_e.initial_loss
        assert result_h.final_loss == result_e.final_loss
        assert _trajectory(result_h) == _trajectory(result_e)
        assert result_h.remaining_dirty == result_e.remaining_dirty

    def test_adult_dataset_parity(self, monkeypatch):
        kwargs = dict(dataset="adult", n=120, budget=30, data_seed=2, config_seed=1)
        db_h, result_h, __ = _run(GDRConfig.gdr, **kwargs)
        db_e, result_e, __ = _run_exact(monkeypatch, GDRConfig.gdr, **kwargs)
        assert db_h.equals_data(db_e)
        assert _trajectory(result_h) == _trajectory(result_e)

    def test_hist_committees_actually_used(self):
        __, __, engine = _run(GDRConfig.gdr)
        fitted = [m for m in engine.learner._models.values() if m is not None]
        assert fitted
        assert all(isinstance(m, HistogramForestClassifier) for m in fitted)


class TestCheckpointRoundTrip:
    def test_checkpoint_restores_hist_models(self, tmp_path):
        """A checkpointed session with fitted histogram committees must
        restore and resume to the uncheckpointed run's end state."""
        ds = load_dataset("hospital", n=120, seed=7)
        clean_db = ds.fresh_dirty()
        clean_engine = GDREngine(
            clean_db, ds.rules, GroundTruthOracle(ds.clean),
            GDRConfig.gdr(seed=3), clean_db=ds.clean,
        )
        clean_result = clean_engine.run(feedback_limit=30)
        clean_engine.detach()

        db = ds.fresh_dirty()
        engine = GDREngine(
            db,
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.gdr(
                seed=3,
                journal_path=str(tmp_path / "journal.jsonl"),
                checkpoint_path=str(tmp_path / "session.cp"),
                checkpoint_every=1,
            ),
            clean_db=ds.clean,
        )
        engine.run(feedback_limit=30)
        engine.detach()

        restored = GDREngine.restore(
            tmp_path / "session.cp", ds.rules, GroundTruthOracle(ds.clean), ds.clean
        )
        fitted = [m for m in restored.learner._models.values() if m is not None]
        assert fitted
        assert all(isinstance(m, HistogramForestClassifier) for m in fitted)
        result = restored.resume()
        restored.detach()
        assert restored.db.equals_data(clean_db)
        assert result.remaining_dirty == clean_result.remaining_dirty
