"""Chaos suite: deterministic fault injection against the full engine.

Every test follows the same shape — run a clean reference session, run
the same session again with a fault armed (a kill, an eviction storm, a
journal I/O failure), recover, and assert the end state is *identical*
to the reference. Set ``REPRO_CHAOS_LOG_DIR`` to dump each test's
``engine.health()`` snapshot as JSON.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.errors import JournalError
from repro.testing import SessionKilled, arm, fault_scope

pytestmark = pytest.mark.chaos

#: Presets of the kill-restore matrix.
KILL_PRESETS = ("active_learning", "gdr", "no_learning", "s_learning")

FEEDBACK_LIMIT = 25


@pytest.fixture(scope="module")
def chaos_datasets():
    return {name: load_dataset(name, n=120, seed=7) for name in ("hospital", "adult")}


def dump_chaos_log(name: str, payload: dict) -> None:
    """Write one health snapshot when the CI log dir is set."""
    log_dir = os.environ.get("REPRO_CHAOS_LOG_DIR")
    if not log_dir:
        return
    path = Path(log_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str)
    )


def run_clean(ds, preset: str):
    """Reference run: same session, no journal, no faults."""
    db = ds.fresh_dirty()
    engine = GDREngine(
        db,
        ds.rules,
        GroundTruthOracle(ds.clean),
        config=getattr(GDRConfig, preset)(),
        clean_db=ds.clean,
    )
    result = engine.run(feedback_limit=FEEDBACK_LIMIT)
    engine.detach()
    return db, result


def arm_kill(preset: str, kill) -> None:
    """Arm *kill* where the kill-restore run of *preset* dies.

    Learner presets die at the top of the first drain pass (guaranteed to
    be reached); the learner-free preset dies mid-interactive-loop.
    """
    if preset == "no_learning":
        arm("engine.iteration", action=kill, at=4)
    else:
        arm("engine.drain_pass", action=kill, at=1)


def make_durable_engine(ds, preset: str, tmp_path, **overrides):
    config = getattr(GDRConfig, preset)(
        journal_path=str(tmp_path / "journal.jsonl"),
        checkpoint_path=str(tmp_path / "session.cp"),
        checkpoint_every=1,
        **overrides,
    )
    db = ds.fresh_dirty()
    return GDREngine(
        db,
        ds.rules,
        GroundTruthOracle(ds.clean),
        config=config,
        clean_db=ds.clean,
    )


class TestKillAndRestore:
    @pytest.mark.parametrize("dataset_name", ["hospital", "adult"])
    @pytest.mark.parametrize("preset", KILL_PRESETS)
    def test_killed_session_resumes_to_identical_end_state(
        self, preset, dataset_name, chaos_datasets, tmp_path
    ):
        ds = chaos_datasets[dataset_name]
        clean_db, clean_result = run_clean(ds, preset)

        engine = make_durable_engine(ds, preset, tmp_path)

        def kill(ctx):
            raise SessionKilled(f"injected kill at {ctx['point']} hit {ctx['hit']}")

        with fault_scope():
            arm_kill(preset, kill)
            with pytest.raises(SessionKilled):
                engine.run(feedback_limit=FEEDBACK_LIMIT)
        engine.detach()

        restored = GDREngine.restore(
            tmp_path / "session.cp", ds.rules, GroundTruthOracle(ds.clean), ds.clean
        )
        # the decision memo is not checkpointed: a restored engine
        # decides afresh
        assert restored.health()["generator"]["decision_memo_size"] == 0
        result = restored.resume()
        dump_chaos_log(
            f"kill_restore_{preset}_{dataset_name}", restored.health()
        )
        restored.detach()
        assert restored.db.equals_data(clean_db)
        assert result.feedback_used == clean_result.feedback_used
        assert result.remaining_dirty == clean_result.remaining_dirty
        assert result.improvement == pytest.approx(clean_result.improvement)


class TestSimCacheFaults:
    def test_sim_cache_eviction_storm_keeps_parity(self, chaos_datasets, tmp_path):
        ds = chaos_datasets["adult"]
        clean_db, clean_result = run_clean(ds, "gdr")

        engine = make_durable_engine(ds, "gdr", tmp_path)

        def storm(ctx):
            engine.sim_cache.clear()

        with fault_scope():
            arm("engine.iteration", action=storm, every=2)
            result = engine.run(feedback_limit=FEEDBACK_LIMIT)
        dump_chaos_log("sim_eviction_storm", engine.health())
        engine.detach()

        assert engine.db.equals_data(clean_db)
        assert result.feedback_used == clean_result.feedback_used
        assert result.remaining_dirty == clean_result.remaining_dirty


class TestLearnerRefitKill:
    @pytest.mark.parametrize("dataset_name", ["hospital", "adult"])
    def test_kill_mid_retrain_resumes_to_identical_end_state(
        self, dataset_name, chaos_datasets, tmp_path
    ):
        """Dying inside a committee refit must be invisible after
        recovery: the refit is atomic (no partial model ever becomes
        the attribute's committee), so the restored session re-runs it
        and finishes byte-identical to the clean reference."""
        ds = chaos_datasets[dataset_name]
        clean_db, clean_result = run_clean(ds, "gdr")

        engine = make_durable_engine(ds, "gdr", tmp_path)

        def kill(ctx):
            assert ctx["examples"] > 0
            raise SessionKilled(
                f"injected kill refitting {ctx['attribute']!r} at hit {ctx['hit']}"
            )

        with fault_scope():
            arm("learner.refit", action=kill, at=2)
            with pytest.raises(SessionKilled):
                engine.run(feedback_limit=FEEDBACK_LIMIT)
        engine.detach()

        restored = GDREngine.restore(
            tmp_path / "session.cp", ds.rules, GroundTruthOracle(ds.clean), ds.clean
        )
        result = restored.resume()
        dump_chaos_log(f"learner_refit_kill_{dataset_name}", restored.health())
        restored.detach()
        assert restored.db.equals_data(clean_db)
        assert result.feedback_used == clean_result.feedback_used
        assert result.learner_decisions == clean_result.learner_decisions
        assert result.remaining_dirty == clean_result.remaining_dirty
        assert result.improvement == pytest.approx(clean_result.improvement)


class TestJournalFailures:
    def test_failed_append_aborts_the_write(self, chaos_datasets, tmp_path):
        ds = chaos_datasets["hospital"]
        engine = make_durable_engine(ds, "no_learning", tmp_path)
        tid = engine.db.tids()[0]
        attribute = engine.db.schema.attributes[0]
        before = engine.db.value(tid, attribute)
        seq_before = engine.journal.seq

        def disk_failure(ctx):
            raise JournalError("injected disk failure")

        with fault_scope():
            arm("journal.append", action=disk_failure)
            with pytest.raises(JournalError, match="injected"):
                engine.db.set_value(tid, attribute, "NEW-VALUE", source="test")
        engine.detach()
        # WAL contract: the append failed, so the write never applied
        assert engine.db.value(tid, attribute) == before
        assert engine.journal.seq == seq_before

    def test_journal_failure_mid_run_is_recoverable(self, chaos_datasets, tmp_path):
        ds = chaos_datasets["hospital"]
        clean_db, clean_result = run_clean(ds, "no_learning")

        engine = make_durable_engine(ds, "no_learning", tmp_path)

        def disk_failure(ctx):
            raise JournalError("injected disk failure")

        with fault_scope():
            arm("journal.append", action=disk_failure, at=30)
            with pytest.raises(JournalError):
                engine.run(feedback_limit=FEEDBACK_LIMIT)
        engine.detach()

        restored = GDREngine.restore(
            tmp_path / "session.cp", ds.rules, GroundTruthOracle(ds.clean), ds.clean
        )
        result = restored.resume()
        dump_chaos_log("journal_failure_recovery", restored.health())
        restored.detach()
        assert restored.db.equals_data(clean_db)
        assert result.feedback_used == clean_result.feedback_used
        assert result.remaining_dirty == clean_result.remaining_dirty

