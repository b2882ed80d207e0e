"""Tests for the exception hierarchy and the public package surface."""

import pytest

import repro
from repro.errors import (
    ConfigError,
    DatasetError,
    JournalError,
    JournalReplayError,
    NotFittedError,
    RepairError,
    ReproError,
    RuleError,
    RuleParseError,
    SchemaError,
    UnknownAttributeError,
    UnknownTupleError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError,
            RuleError,
            RuleParseError,
            RepairError,
            NotFittedError,
            ConfigError,
            UnknownTupleError,
            DatasetError,
            JournalError,
            JournalReplayError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_dataset_error_is_config_error(self):
        assert issubclass(DatasetError, ConfigError)

    def test_dataset_error_message(self):
        err = DatasetError("hospital", "unknown override", field="bogus")
        assert err.dataset == "hospital"
        assert err.field == "bogus"
        assert "hospital" in str(err)
        assert "bogus" in str(err)

    def test_journal_replay_error_is_journal_error(self):
        assert issubclass(JournalReplayError, JournalError)

    def test_unknown_attribute_is_keyerror_too(self):
        assert issubclass(UnknownAttributeError, KeyError)
        assert issubclass(UnknownAttributeError, SchemaError)

    def test_unknown_tuple_is_keyerror(self):
        assert issubclass(UnknownTupleError, KeyError)

    def test_rule_parse_error_message(self):
        err = RuleParseError("bad text", "because reasons")
        assert "bad text" in str(err)
        assert "because reasons" in str(err)
        assert err.text == "bad text"

    def test_unknown_attribute_message(self):
        err = UnknownAttributeError("city", "customer")
        assert "city" in str(err)
        assert "customer" in str(err)


class TestErrorPaths:
    """The failure modes a robust session must report, not mask."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"voi_cache_capacity": 0},
            {"sim_cache_capacity": 0},
            {"journal_fsync": "yes"},
            {"checkpoint_every": -1},
            {"journal_path": ""},
            {"journal_fsync": 1},
            {"checkpoint_path": ""},
            {"checkpoint_every": 0},
        ],
    )
    def test_robustness_knobs_validated(self, kwargs):
        from repro.core import GDRConfig

        with pytest.raises(ConfigError):
            GDRConfig(**kwargs)

    def test_feedback_against_unknown_tuple(
        self, figure1_dirty, figure1_clean, figure1_rules
    ):
        from repro.core import GDRConfig, GDREngine, GroundTruthOracle
        from repro.repair.candidate import CandidateUpdate
        from repro.repair.feedback import Feedback, UserFeedback

        engine = GDREngine(
            figure1_dirty,
            figure1_rules,
            GroundTruthOracle(figure1_clean),
            config=GDRConfig.no_learning(),
            clean_db=figure1_clean,
        )
        with pytest.raises(UnknownTupleError):
            engine.manager.apply_feedback(
                CandidateUpdate(9999, "city", "Nowhere", 0.5),
                UserFeedback(Feedback.CONFIRM),
            )

    def test_journal_replay_onto_mismatched_db(self, figure1_dirty, tmp_path):
        from repro.db import FeedbackJournal

        path = tmp_path / "journal.jsonl"
        journal = FeedbackJournal(path)
        journal.log_write(0, "city", "NOT-THE-PREIMAGE", "X", source="user")
        journal.close()
        with pytest.raises(JournalReplayError):
            FeedbackJournal.replay_writes(path, figure1_dirty)

    @pytest.mark.parametrize("name", ["hospital", "adult"])
    def test_unknown_dataset_override(self, name):
        from repro.datasets import load_dataset

        with pytest.raises(DatasetError) as info:
            load_dataset(name, n=20, seed=0, bogus_knob=1)
        assert info.value.dataset == name
        assert info.value.field == "bogus_knob"

    def test_unknown_dataset_name(self):
        from repro.datasets import load_dataset

        with pytest.raises(DatasetError):
            load_dataset("no-such-dataset", n=20)

    def test_invalid_dataset_size(self):
        from repro.datasets import load_dataset

        with pytest.raises(DatasetError):
            load_dataset("hospital", n=0)


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_key_classes_exported(self):
        for name in (
            "Database",
            "Schema",
            "RuleSet",
            "CFD",
            "ViolationDetector",
            "GDREngine",
            "GDRConfig",
            "GroundTruthOracle",
            "batch_repair",
            "discover_rules",
            "parse_rules",
        ):
            assert name in repro.__all__

    def test_quickstart_docstring_example(self):
        """The module docstring example must actually work."""
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
