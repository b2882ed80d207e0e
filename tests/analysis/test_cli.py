"""``python -m repro.analysis``: exit codes, reports, baseline ratchet."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis.cli import main

BAD_CORE = "import time\n\n\ndef f():\n    return time.time()\n"


def _mini_repo(tmp_path: Path) -> Path:
    root = tmp_path / "repo"
    (root / "src" / "repro" / "core").mkdir(parents=True)
    (root / "src" / "repro" / "core" / "clock.py").write_text(BAD_CORE)
    return root


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_new_finding_exits_1(self, tmp_path):
        root = _mini_repo(tmp_path)
        code, text = _run("--root", str(root), "--rules", "determinism")
        assert code == 1
        assert "[determinism]" in text
        assert "repolint FAIL" in text

    def test_unknown_rule_exits_2(self, tmp_path):
        code, text = _run("--root", str(tmp_path), "--rules", "nope")
        assert code == 2
        assert "unknown rule id" in text

    def test_empty_tree_exits_0(self, tmp_path):
        code, text = _run("--root", str(tmp_path), "--rules", "determinism")
        assert code == 0
        assert "repolint OK" in text

    def test_missing_modules_fail_project_rules(self, tmp_path):
        # a tree without faults.py breaches the cross-file contract
        root = _mini_repo(tmp_path)
        code, text = _run("--root", str(root))
        assert code == 1
        assert "[fault-registry]" in text


class TestBaselineRatchet:
    def test_write_then_pass_then_stale(self, tmp_path):
        root = _mini_repo(tmp_path)
        # grandfather the finding
        code, text = _run("--root", str(root), "--rules", "determinism", "--write-baseline")
        assert code == 0
        assert "wrote 1 finding(s)" in text
        baseline = json.loads((root / "repolint-baseline.json").read_text())
        assert len(baseline["findings"]) == 1
        # baselined finding no longer fails the gate
        code, text = _run("--root", str(root), "--rules", "determinism")
        assert code == 0
        assert "1 baselined" in text
        # fixing it leaves a stale entry, reported but still passing
        (root / "src" / "repro" / "core" / "clock.py").write_text(
            "def f():\n    return 0\n"
        )
        code, text = _run("--root", str(root), "--rules", "determinism")
        assert code == 0
        assert "stale" in text
        # --no-baseline reopens every finding
        (root / "src" / "repro" / "core" / "clock.py").write_text(BAD_CORE)
        code, __ = _run("--root", str(root), "--rules", "determinism", "--no-baseline")
        assert code == 1


class TestReports:
    def test_json_report_and_artifact(self, tmp_path):
        root = _mini_repo(tmp_path)
        artifact = tmp_path / "repolint.json"
        code, text = _run(
            "--root", str(root), "--rules", "determinism", "--json", "-o", str(artifact)
        )
        assert code == 1
        payload = json.loads(text)
        assert payload["summary"]["ok"] is False
        assert payload["summary"]["new"] == 1
        assert payload["new_findings"][0]["rule"] == "determinism"
        assert payload["new_findings"][0]["fingerprint"]
        assert json.loads(artifact.read_text()) == payload

    def test_list_rules(self, tmp_path):
        code, text = _run("--list-rules")
        assert code == 0
        for rule_id in (
            "determinism",
            "cache-discipline",
            "fault-registry",
        ):
            assert rule_id in text

    def test_rule_subset_runs_only_selected(self, tmp_path):
        root = _mini_repo(tmp_path)
        code, __ = _run("--root", str(root), "--rules", "cache-discipline")
        assert code == 0  # the determinism breach is out of the subset


class TestRepoIsClean:
    def test_head_lints_clean_against_committed_baseline(self, repo_root):
        """The gate CI enforces: the tree at HEAD has no new findings."""
        code, text = _run("--root", str(repo_root))
        assert code == 0, text

    def test_committed_baseline_is_tight(self, repo_root):
        """The ratchet stays honest: at most 10 grandfathered entries."""
        data = json.loads((repo_root / "repolint-baseline.json").read_text())
        assert len(data["findings"]) <= 10
