"""Findings, suppressions, the registry and the baseline ratchet."""

from __future__ import annotations

import json

import pytest

from repro.analysis.baseline import Baseline, diff_findings
from repro.analysis.core import RULES, Finding, Rule, Suppressions, register
from repro.analysis.project import Project, run_rules


def _finding(**overrides) -> Finding:
    base = dict(
        rule="determinism",
        path="src/repro/core/x.py",
        line=10,
        message="time.time() in a core path",
        symbol="f",
    )
    base.update(overrides)
    return Finding(**base)


class TestFingerprint:
    def test_line_independent(self):
        assert _finding(line=10).fingerprint() == _finding(line=99).fingerprint()

    def test_sensitive_to_everything_else(self):
        base = _finding().fingerprint()
        assert _finding(rule="fault-registry").fingerprint() != base
        assert _finding(path="src/repro/core/y.py").fingerprint() != base
        assert _finding(message="other").fingerprint() != base
        assert _finding(symbol="g").fingerprint() != base


class TestRegistry:
    def test_all_three_rules_registered(self):
        assert set(RULES) == {
            "determinism",
            "cache-discipline",
            "fault-registry",
        }

    def test_register_rejects_missing_id(self):
        class NoId(Rule):
            pass

        with pytest.raises(ValueError, match="no rule id"):
            register(NoId)

    def test_register_rejects_duplicate_id(self):
        class Dup(Rule):
            id = "determinism"

        with pytest.raises(ValueError, match="duplicate"):
            register(Dup)


class TestSuppressions:
    def test_line_suppression(self):
        sup = Suppressions.parse("x = 1\ny = f()  # repolint: disable=determinism\n")
        assert sup.suppresses(_finding(line=2))
        assert not sup.suppresses(_finding(line=1))

    def test_rule_list_and_trailing_justification(self):
        sup = Suppressions.parse(
            "f()  # repolint: disable=determinism,cache-discipline — pure\n"
        )
        assert sup.suppresses(_finding(line=1))
        assert sup.suppresses(_finding(line=1, rule="cache-discipline"))
        assert not sup.suppresses(_finding(line=1, rule="fault-registry"))

    def test_file_wide_and_all(self):
        sup = Suppressions.parse("# repolint: disable-file=determinism\n")
        assert sup.suppresses(_finding(line=77))
        sup = Suppressions.parse("f()  # repolint: disable=all\n")
        assert sup.suppresses(_finding(line=1, rule="fault-registry"))

    def test_run_rules_drops_suppressed(self, tmp_path):
        bad = "import time\n\n\ndef f():\n    return time.time()  # repolint: disable=determinism\n"
        project = Project(tmp_path, overrides={"src/repro/core/bad.py": bad})
        assert run_rules(project, [RULES["determinism"]]) == []


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = [_finding(), _finding(rule="cache-discipline", message="unbounded")]
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 2
        outcome = diff_findings(findings, loaded)
        assert outcome.ok
        assert outcome.new == []
        assert len(outcome.baselined) == 2
        assert outcome.stale == []

    def test_new_finding_fails_stale_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([_finding()]).save(path)
        loaded = Baseline.load(path)
        fresh = _finding(message="a brand new breach")
        outcome = diff_findings([fresh], loaded)
        assert not outcome.ok
        assert outcome.new == [fresh]
        # the old entry was fixed: it comes back as stale, not as a pass
        assert len(outcome.stale) == 1
        assert outcome.stale[0]["fingerprint"] == _finding().fingerprint()

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_line_drift_does_not_create_new_findings(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([_finding(line=10)]).save(path)
        outcome = diff_findings([_finding(line=500)], Baseline.load(path))
        assert outcome.ok
