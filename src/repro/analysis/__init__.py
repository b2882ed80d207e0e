"""repolint — AST-based contract checks for this repository.

Eight PRs of growth made the system fast and durable by convention:
batched paths must stay byte-identical to retained references,
memos must be version-stamped and bounded, fault points must be
registered and chaos-tested, core paths must be deterministic so
kill-and-restore replay works. This package checks those conventions
mechanically — per-file AST passes plus cross-file project passes over
``src/`` and ``tests/`` — with line suppressions, a committed baseline
of grandfathered findings, JSON/human reporters and a CLI
(``python -m repro.analysis``) that exits non-zero on new findings.

See ``docs/repolint.md`` for the rule catalog.
"""

from repro.analysis.baseline import Baseline, diff_findings
from repro.analysis.cli import main
from repro.analysis.core import RULES, Finding, Rule, all_rules, register
from repro.analysis.project import Project, SourceFile, find_repo_root, run_rules

__all__ = [
    "Baseline",
    "Finding",
    "Project",
    "RULES",
    "Rule",
    "SourceFile",
    "all_rules",
    "diff_findings",
    "find_repo_root",
    "main",
    "register",
    "run_rules",
]
