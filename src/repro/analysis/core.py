"""Findings, the rule protocol and the rule registry.

repolint enforces the *contracts* the codebase relies on — stamped and
bounded memos, registered and chaos-tested fault points, deterministic
core paths. Every contract is a
:class:`Rule`; every breach is a :class:`Finding`.

Findings carry a *fingerprint* that deliberately excludes the line
number: ``(rule, path, symbol, message)`` hashed. Unrelated edits that
shift a grandfathered finding up or down the file therefore do not
"create" a new finding against the committed baseline — only changing
the finding itself (or moving it to another symbol/file) does.

Suppression syntax (checked per finding line, and file-wide)::

    something_flagged()  # repolint: disable=determinism
    # repolint: disable-file=cache-discipline

Suppressions take a comma-separated rule list or ``all``. A suppressed
finding disappears entirely (it is not baselined, not reported, and
does not affect the exit code) — the comment in the code *is* the
audit trail, so suppressions should always ride with a justification.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: project.py imports this module
    from repro.analysis.project import Project, SourceFile

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "all_rules",
    "register",
]


@dataclass(frozen=True)
class Finding:
    """One contract breach at one location."""

    rule: str
    path: str  # repo-relative posix path
    line: int  # 1-based; 0 for project-level findings with no anchor
    message: str
    symbol: str = ""  # enclosing class/function, stabilises fingerprints

    def fingerprint(self) -> str:
        """Line-independent stable identity (baseline matching key)."""
        raw = "|".join((self.rule, self.path, self.symbol, self.message))
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


class Rule:
    """Base class: one named, documented contract checker.

    Subclasses set the class attributes and override one of the two
    ``check_*`` hooks. ``scope="file"`` rules get one call per source
    file; ``scope="project"`` rules get one call with the whole
    project (cross-file contracts: registries vs call sites, knob
    specs vs test coverage).
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    scope: str = "file"  # "file" | "project"

    def check_file(self, source: SourceFile, project: Project) -> list[Finding]:
        """Per-file pass; *source* is a ``SourceFile``."""
        return []

    def check_project(self, project: Project) -> list[Finding]:
        """Whole-project pass (cross-file contracts)."""
        return []

    # ------------------------------------------------------------------
    def finding(self, path: str, line: int, message: str, symbol: str = "") -> Finding:
        return Finding(rule=self.id, path=path, line=line, message=message, symbol=symbol)


#: rule id -> rule instance. Populated by :func:`register` at import of
#: :mod:`repro.analysis.rules`.
RULES: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to :data:`RULES`."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Registered rules, stable id order."""
    import repro.analysis.rules  # noqa: F401  - populates RULES on import

    return [RULES[rule_id] for rule_id in sorted(RULES)]


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

_LINE_RE = re.compile(r"#\s*repolint:\s*disable=([A-Za-z0-9_,\- ]+)")
_FILE_RE = re.compile(r"#\s*repolint:\s*disable-file=([A-Za-z0-9_,\- ]+)")


@dataclass
class Suppressions:
    """Parsed ``# repolint:`` comments of one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, text: str) -> "Suppressions":
        out = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "repolint" not in line:
                continue
            match = _FILE_RE.search(line)
            if match:
                out.file_wide.update(_split_rules(match.group(1)))
                continue
            match = _LINE_RE.search(line)
            if match:
                out.by_line.setdefault(lineno, set()).update(_split_rules(match.group(1)))
        return out

    def suppresses(self, finding: Finding) -> bool:
        for rules in (self.file_wide, self.by_line.get(finding.line, ())):
            if finding.rule in rules or "all" in rules:
                return True
        return False


def _split_rules(spec: str) -> list[str]:
    return [part.strip() for part in spec.split(",") if part.strip()]
