"""parity-coverage: every mode knob keeps a pinned reference test."""

from __future__ import annotations

import textwrap

GDR_REL = "src/repro/core/gdr.py"

GDR_CONFIG = textwrap.dedent(
    """
    class GDRConfig:
        pipeline: str = "delta"
        drain: str = "batched"
        suggest: str = "kernel"
        learner: str = "hashed"
        seed: int = 0
    """
)

PINNING_TESTS = textwrap.dedent(
    """
    def test_pipeline_parity():
        run(GDRConfig(pipeline="rebuild"))


    def test_drain_parity():
        run(GDRConfig(drain="sequential"))


    def test_suggest_parity():
        run(GDRConfig(suggest="scalar"))


    def test_learner_parity():
        run(GDRConfig(learner="exact"))

    """
)


def _tree() -> dict[str, str]:
    return {GDR_REL: GDR_CONFIG, "tests/core/test_parity.py": PINNING_TESTS}


class TestPositive:
    def test_losing_the_last_pin_fails(self, lint):
        files = _tree()
        files["tests/core/test_parity.py"] = PINNING_TESTS.replace(
            'run(GDRConfig(drain="sequential"))', "pass"
        )
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == "drain"
        assert "drain='sequential'" in findings[0].message

    def test_dropping_the_knob_from_config_fails(self, lint):
        files = _tree()
        files[GDR_REL] = GDR_CONFIG.replace('    suggest: str = "kernel"\n', "")
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == "suggest"
        assert "not a GDRConfig field" in findings[0].message

    def test_wrong_reference_value_does_not_count(self, lint):
        files = _tree()
        files["tests/core/test_parity.py"] = PINNING_TESTS.replace(
            'run(GDRConfig(learner="exact"))', 'run(GDRConfig(learner="hist"))'
        )
        findings = lint(files, "parity-coverage")
        assert len(findings) == 1
        assert findings[0].symbol == "learner"

    def test_missing_config_module(self, lint):
        findings = lint(
            {"tests/core/test_parity.py": PINNING_TESTS}, "parity-coverage"
        )
        assert any("missing or unparseable" in f.message for f in findings)


class TestNegative:
    def test_fully_pinned_tree_passes(self, lint):
        assert lint(_tree(), "parity-coverage") == []

    def test_positional_pin_through_local_helper(self, lint):
        # tests/core/test_drain_batched.py threads the reference through
        # a local `_run(drain, ...)` helper positionally; that counts
        files = _tree()
        files["tests/core/test_parity.py"] = PINNING_TESTS.replace(
            'run(GDRConfig(drain="sequential"))', "pass"
        ) + textwrap.dedent(
            """

            def _run(drain, preset):
                return run(GDRConfig(drain=drain))


            def test_drain_parity_positional():
                _run("sequential", "figure1")
            """
        )
        assert lint(files, "parity-coverage") == []


class TestRealRepo:
    def test_repo_pins_every_reference(self, repo_root):
        from repro.analysis.core import RULES
        from repro.analysis.project import Project, run_rules

        project = Project(repo_root)
        assert run_rules(project, [RULES["parity-coverage"]]) == []

    def test_removing_a_parity_test_fails_lint(self, repo_root):
        """The ISSUE acceptance demo: delete the suggest parity test."""
        from repro.analysis.core import RULES
        from repro.analysis.project import Project, run_rules

        project = Project(
            repo_root, excludes=("tests/core/test_gdr_suggest.py",)
        )
        findings = run_rules(project, [RULES["parity-coverage"]])
        assert any(f.symbol == "suggest" for f in findings)
