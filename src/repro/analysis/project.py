"""Project model: the parsed source tree repolint passes over.

A :class:`Project` owns the file set (``src/repro/`` + ``tests/`` by
default), hands out lazily parsed :class:`SourceFile`\\ s and runs the
registered rules. Tests construct projects over synthetic trees (or
over the real repo with *overrides*/*excludes*) to prove each rule
fires and each contract-removal breaks the lint run.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

from repro.analysis.core import Finding, Rule, Suppressions, all_rules

__all__ = ["Project", "SourceFile", "find_repo_root", "run_rules"]

#: Directory prefixes (repo-relative, posix) scanned by default.
DEFAULT_PREFIXES = ("src/repro", "tests")

_SKIP_PARTS = {"__pycache__", ".git", ".pytest_cache"}


class SourceFile:
    """One Python file: text, lazily built AST, suppressions."""

    def __init__(self, rel: str, text: str) -> None:
        self.rel = rel  # repo-relative posix path
        self.text = text
        self._tree: ast.Module | None = None
        self._parse_error: SyntaxError | None = None
        self._parsed = False
        self._suppressions: Suppressions | None = None

    @property
    def tree(self) -> ast.Module | None:
        """Parsed module, or None when the file does not parse."""
        if not self._parsed:
            self._parsed = True
            try:
                self._tree = ast.parse(self.text, filename=self.rel)
            except SyntaxError as exc:
                self._parse_error = exc
        return self._tree

    @property
    def parse_error(self) -> SyntaxError | None:
        self.tree  # noqa: B018 - force the parse
        return self._parse_error

    @property
    def suppressions(self) -> Suppressions:
        if self._suppressions is None:
            self._suppressions = Suppressions.parse(self.text)
        return self._suppressions

    def is_test(self) -> bool:
        return self.rel.startswith("tests/")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SourceFile({self.rel!r})"


class Project:
    """The file set one repolint run passes over.

    Parameters
    ----------
    root:
        Repository root (the directory holding ``src/`` and ``tests/``).
    prefixes:
        Repo-relative directory prefixes to scan.
    overrides:
        ``{rel path: text}`` replacing (or adding) file contents —
        lets tests lint a hypothetical edit of the real tree without
        touching disk.
    excludes:
        Repo-relative paths to pretend do not exist — lets tests prove
        that *removing* a contract (a chaos test, a registry entry)
        makes the lint run fail.
    """

    def __init__(
        self,
        root: str | Path,
        prefixes: Iterable[str] = DEFAULT_PREFIXES,
        overrides: Mapping[str, str] | None = None,
        excludes: Iterable[str] = (),
    ) -> None:
        self.root = Path(root).resolve()
        self.prefixes = tuple(prefixes)
        self._files: dict[str, SourceFile] = {}
        excluded = set(excludes)
        for rel in self._discover():
            if rel in excluded:
                continue
            text = (self.root / rel).read_text(encoding="utf-8")
            self._files[rel] = SourceFile(rel, text)
        if overrides:
            for rel, text in overrides.items():
                if rel in excluded:
                    continue
                self._files[rel] = SourceFile(rel, text)

    def _discover(self) -> list[str]:
        out: list[str] = []
        for prefix in self.prefixes:
            base = self.root / prefix
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                if _SKIP_PARTS.intersection(path.parts):
                    continue
                out.append(path.relative_to(self.root).as_posix())
        return out

    # ------------------------------------------------------------------
    def files(self) -> list[SourceFile]:
        """Every file, sorted by repo-relative path."""
        return [self._files[rel] for rel in sorted(self._files)]

    def file(self, rel: str) -> SourceFile | None:
        """Lookup one file by repo-relative path (None when absent)."""
        return self._files.get(rel)

    def iter_prefix(self, prefix: str) -> Iterator[SourceFile]:
        """Files under one repo-relative directory prefix."""
        if not prefix.endswith("/"):
            prefix += "/"
        for rel in sorted(self._files):
            if rel.startswith(prefix):
                yield self._files[rel]

    def test_files(self) -> Iterator[SourceFile]:
        return self.iter_prefix("tests")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Project({self.root}, {len(self._files)} files)"


def run_rules(project: Project, rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Run rules over the project; suppressed findings are dropped.

    Per-file rules see every file; project rules run once. Findings
    come back sorted by ``(path, line, rule)`` so reports and baselines
    are deterministic.
    """
    active = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    for rule in active:
        if rule.scope == "project":
            findings.extend(rule.check_project(project))
        else:
            for source in project.files():
                findings.extend(rule.check_file(source, project))
    kept = []
    for finding in findings:
        source = project.file(finding.path)
        if source is not None and source.suppressions.suppresses(finding):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def find_repo_root(start: str | Path | None = None) -> Path:
    """Locate the repository root.

    Walks up from *start* (default: cwd) looking for a directory that
    holds ``src/repro``; falls back to the root this package is
    installed under (four parents up: ``src/repro/analysis/project.py``).
    """
    probe = Path(start) if start is not None else Path.cwd()
    probe = probe.resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    packaged = Path(__file__).resolve().parents[3]
    if (packaged / "src" / "repro").is_dir():
        return packaged
    raise FileNotFoundError(
        f"cannot locate a repository root (src/repro) from {probe}"
    )
