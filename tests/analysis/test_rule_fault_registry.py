"""fault-registry: registered ⟺ instrumented ⟺ chaos-tested."""

from __future__ import annotations

import textwrap

FAULTS_REL = "src/repro/testing/faults.py"


def _registry(*points: tuple[str, str]) -> str:
    entries = "".join(
        f'    FaultPoint("{name}", "desc", "{module}"),\n' for name, module in points
    )
    return textwrap.dedent(
        """
        class FaultPoint:
            def __init__(self, name, description, module):
                self.name = name
                self.description = description
                self.module = module


        FAULT_POINT_REGISTRY = (
        {entries})
        """
    ).format(entries=entries)


def _consistent_tree() -> dict[str, str]:
    return {
        FAULTS_REL: _registry(("engine.tick", "repro.core.gdr")),
        "src/repro/core/gdr.py": 'def step():\n    fault_hit("engine.tick", seq=1)\n',
        "tests/core/test_chaos.py": 'def test_kill():\n    arm("engine.tick", at=3)\n',
    }


class TestPositive:
    def test_registered_but_never_fired(self, lint):
        files = _consistent_tree()
        files["src/repro/core/gdr.py"] = "def step():\n    pass\n"
        findings = lint(files, "fault-registry")
        assert any("can never fire" in f.message for f in findings)
        assert any(f.symbol == "engine.tick" for f in findings)

    def test_registered_but_never_armed(self, lint):
        files = _consistent_tree()
        files["tests/core/test_chaos.py"] = "def test_kill():\n    pass\n"
        findings = lint(files, "fault-registry")
        assert len(findings) == 1
        assert "no test arms it" in findings[0].message

    def test_unregistered_hit_and_arm(self, lint):
        files = _consistent_tree()
        files["src/repro/core/gdr.py"] += 'def extra():\n    fault_hit("rogue.point")\n'
        files["tests/core/test_chaos.py"] += 'def test_x():\n    arm("ghost.point")\n'
        findings = lint(files, "fault-registry")
        messages = "\n".join(f.message for f in findings)
        assert "fault_hit('rogue.point'" in messages
        assert "arm('ghost.point'" in messages
        # unregistered call sites anchor at the offending file, not faults.py
        assert any(f.path == "src/repro/core/gdr.py" for f in findings)
        assert any(f.path == "tests/core/test_chaos.py" for f in findings)

    def test_wrong_owning_module(self, lint):
        files = _consistent_tree()
        files[FAULTS_REL] = _registry(("engine.tick", "repro.db.journal"))
        findings = lint(files, "fault-registry")
        assert len(findings) == 1
        assert "owning module" in findings[0].message

    def test_missing_registry(self, lint):
        files = _consistent_tree()
        files[FAULTS_REL] = "FAULT_POINTS = ()\n"
        findings = lint(files, "fault-registry")
        assert any("FAULT_POINT_REGISTRY not found" in f.message for f in findings)


class TestNegative:
    def test_consistent_tree_passes(self, lint):
        assert lint(_consistent_tree(), "fault-registry") == []


class TestRealRepo:
    def test_repo_registry_is_consistent(self, lint, repo_root):
        from repro.analysis.core import RULES
        from repro.analysis.project import Project, run_rules

        project = Project(repo_root)
        assert run_rules(project, [RULES["fault-registry"]]) == []

    def test_deleting_a_registry_entry_fails_lint(self, lint, repo_root):
        """The ISSUE acceptance demo: drop one FaultPoint, lint breaks."""
        from repro.analysis.core import RULES
        from repro.analysis.project import Project, run_rules

        original = (repo_root / FAULTS_REL).read_text(encoding="utf-8")
        start = original.index('    FaultPoint(\n        "learner.refit"')
        end = original.index("),", start) + len("),\n")
        edited = original[:start] + original[end:]
        assert edited != original
        project = Project(repo_root, overrides={FAULTS_REL: edited})
        findings = run_rules(project, [RULES["fault-registry"]])
        assert findings, "removing a registry entry must produce findings"
        assert any(
            "learner.refit" in f.message and "unregistered" in f.message
            for f in findings
        )
