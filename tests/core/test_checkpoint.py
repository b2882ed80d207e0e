"""Tests for GDREngine.checkpoint / restore / resume (durable sessions)."""

import pickle
import re
from dataclasses import asdict

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.db import FeedbackJournal
from repro.errors import ConfigError, JournalError


def make_engine(dirty, clean, rules, tmp_path, preset="no_learning", **overrides):
    config = getattr(GDRConfig, preset)(
        journal_path=str(tmp_path / "journal.jsonl"), **overrides
    )
    return GDREngine(
        dirty, rules, GroundTruthOracle(clean), config=config, clean_db=clean
    )


class TestCheckpointRestore:
    def test_fresh_checkpoint_restores_identical_state(
        self, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        cp = tmp_path / "session.cp"
        engine.checkpoint(cp)
        restored = GDREngine.restore(
            cp, figure1_rules, GroundTruthOracle(figure1_clean), figure1_clean
        )
        assert restored.db.equals_data(engine.db)
        assert restored.initial_db.equals_data(engine.initial_db)
        assert restored.initial_dirty == engine.initial_dirty
        assert {u for u in restored.state.updates()} == {
            u for u in engine.state.updates()
        }
        assert restored.state.frozen_cells() == engine.state.frozen_cells()
        assert restored.config == engine.config

    def test_restore_resume_matches_clean_run(
        self, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        baseline_db = figure1_dirty.snapshot()
        baseline = GDREngine(
            baseline_db,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        expected = baseline.run()

        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        engine.checkpoint(tmp_path / "session.cp")
        engine.detach()
        restored = GDREngine.restore(
            tmp_path / "session.cp",
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            figure1_clean,
        )
        result = restored.resume()
        assert restored.db.equals_data(baseline_db)
        assert result.remaining_dirty == expected.remaining_dirty
        assert result.feedback_used == expected.feedback_used

    def test_resumed_journal_replays_linearly(
        self, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        cp = tmp_path / "auto.cp"
        engine = make_engine(
            figure1_dirty,
            figure1_clean,
            figure1_rules,
            tmp_path,
            preset="gdr",
            checkpoint_path=str(cp),
            checkpoint_every=1,
        )
        engine.run()
        engine.detach()
        final = engine.db.snapshot()
        # restore from the drain-start checkpoint and re-run the drain:
        # the re-execution appends its records under a resumed marker
        restored = GDREngine.restore(
            cp, figure1_rules, GroundTruthOracle(figure1_clean), figure1_clean
        )
        restored.resume()
        assert restored.db.equals_data(final)
        # the audit path survives the resume: the effective WAL replays
        # onto a fresh copy of the initial instance and lands on the
        # same final state, duplicates from the re-execution dropped
        copy = restored.initial_db.snapshot()
        FeedbackJournal.replay_writes(tmp_path / "journal.jsonl", copy)
        assert copy.equals_data(restored.db)
        restored.detach()

    def test_resume_rejects_foreign_journal(
        self, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        cp = tmp_path / "session.cp"
        engine.checkpoint(cp)
        engine.detach()
        # swap in a journal recorded for a different instance
        other_db = figure1_clean.snapshot()
        journal_path = tmp_path / "journal.jsonl"
        journal_path.unlink()
        foreign = FeedbackJournal(journal_path)
        foreign.log_meta(other_db, {"seed": 0})
        foreign.close()
        restored = GDREngine.restore(
            cp, figure1_rules, GroundTruthOracle(figure1_clean), figure1_clean
        )
        with pytest.raises(JournalError, match="different instance"):
            restored.resume()
        restored.detach()

    def test_checkpoint_is_atomic(self, figure1_dirty, figure1_clean, figure1_rules, tmp_path):
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        cp = tmp_path / "session.cp"
        engine.checkpoint(cp)
        assert cp.exists()
        assert not cp.with_name(cp.name + ".tmp").exists()

    def test_checkpoint_logged_in_journal(
        self, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        engine.checkpoint(tmp_path / "session.cp")
        records = FeedbackJournal.read(tmp_path / "journal.jsonl")
        assert records[-1]["kind"] == "checkpoint"
        assert records[-1]["phase"] == "interactive"

    def test_auto_checkpoint_during_run(
        self, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        cp = tmp_path / "auto.cp"
        engine = make_engine(
            figure1_dirty,
            figure1_clean,
            figure1_rules,
            tmp_path,
            checkpoint_path=str(cp),
            checkpoint_every=1,
        )
        engine.run()
        assert cp.exists()
        kinds = [r["kind"] for r in FeedbackJournal.read(tmp_path / "journal.jsonl")]
        assert kinds.count("checkpoint") >= 2  # per-iteration + drain start


class TestRestoreErrors:
    def test_missing_file(self, figure1_rules, figure1_clean, tmp_path):
        with pytest.raises(ConfigError, match="cannot read checkpoint"):
            GDREngine.restore(
                tmp_path / "absent.cp", figure1_rules, GroundTruthOracle(figure1_clean)
            )

    def test_bad_format(self, figure1_rules, figure1_clean, tmp_path):
        bad = tmp_path / "bad.cp"
        bad.write_bytes(pickle.dumps({"format": 99}))
        with pytest.raises(ConfigError, match="format"):
            GDREngine.restore(bad, figure1_rules, GroundTruthOracle(figure1_clean))

    def test_resume_without_restore(
        self, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        with pytest.raises(ConfigError, match="restore"):
            engine.resume()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p: p.update(next_tid=max(p["rows"])), "next tid"),
            (lambda p: p["initial_rows"][0].pop(), "row for tuple 0 has"),
        ],
        ids=["next-tid-not-past-rows", "short-row"],
    )
    def test_invalid_instance_fails_with_config_error(
        self, corrupt, message, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        cp = tmp_path / "session.cp"
        engine.checkpoint(cp)
        payload = pickle.loads(cp.read_bytes())
        corrupt(payload)
        cp.write_bytes(pickle.dumps(payload))
        expected = re.escape(f"checkpoint {cp} holds an invalid instance: {message}")
        with pytest.raises(ConfigError, match=expected):
            GDREngine.restore(cp, figure1_rules, GroundTruthOracle(figure1_clean))


#: Knobs a checkpoint of each old format carries that ``GDRConfig`` no
#: longer accepts (format 2 differs in how committees pickle: per-tree
#: objects a restored learner cannot predict with).
_REMOVED_KNOBS = {
    1: {"shards": 0},
    2: {},
    3: {"pipeline": "delta", "drain": "batched", "suggest": "batched", "learner": "hist"},
    4: {"guard": False, "guard_interval": 4, "guard_max_incidents": 25},
}


class TestOldSessionFiles:
    """Session files of older formats: before the ``shards`` knob was
    removed (format 1), before committees became node arrays (2), before
    the reference-path knobs were removed (3) and before the guard knobs
    were removed (4)."""

    @pytest.mark.parametrize("fmt", sorted(_REMOVED_KNOBS))
    def test_old_format_checkpoint_fails_with_config_error(
        self, fmt, figure1_dirty, figure1_clean, figure1_rules, tmp_path
    ):
        """The config of an old file may carry knobs ``GDRConfig`` no
        longer accepts; the format check must refuse the file first."""
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        cp = tmp_path / "session.cp"
        engine.checkpoint(cp)
        engine.detach()
        payload = pickle.loads(cp.read_bytes())
        payload["format"] = fmt
        payload["config"].update(_REMOVED_KNOBS[fmt])
        cp.write_bytes(pickle.dumps(payload))
        with pytest.raises(ConfigError, match=f"has format {fmt}, expected 5"):
            GDREngine.restore(
                cp, figure1_rules, GroundTruthOracle(figure1_clean), figure1_clean
            )

    def test_old_journal_names_the_removed_knob(self, figure1_dirty, tmp_path):
        config = asdict(GDRConfig.no_learning())
        for knob, value in (("shards", 0), ("guard", False)):
            path = tmp_path / f"journal-{knob}.jsonl"
            journal = FeedbackJournal(path)
            journal.log_meta(figure1_dirty, {**config, knob: value})
            journal.close()
            with pytest.raises(JournalError, match=f"different config: {knob} differ"):
                FeedbackJournal.verify_meta(path, figure1_dirty, config)


class TestHealth:
    def test_health_sections(self, figure1_dirty, figure1_clean, figure1_rules, tmp_path):
        engine = make_engine(figure1_dirty, figure1_clean, figure1_rules, tmp_path)
        engine.run()
        health = engine.health()
        assert set(health) == {"sim", "cache", "voi", "generator", "journal", "faults"}
        assert health["journal"]["seq"] > 0
        assert health["voi"]["key_table_size"] >= 0
        # the faults section mirrors the machine-readable registry
        from repro.testing.faults import FAULT_POINT_REGISTRY

        assert set(health["faults"]["registered"]) == {
            p.name for p in FAULT_POINT_REGISTRY
        }
        assert health["faults"]["registered"]["journal.append"] == "repro.db.journal"
        assert health["faults"]["armed"] == []

    def test_health_without_robustness_layer(
        self, figure1_dirty, figure1_clean, figure1_rules
    ):
        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        health = engine.health()
        assert health["journal"] == {}
