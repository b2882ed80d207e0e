"""Cache discipline: memos must be stamped, bounded and observable.

Every incremental structure in this repo is a bet that a cached value
still describes the live database. The conventions that keep the bet
safe (PRs 2–8):

* **stamped** — entries (or the whole memo) are validated against a
  version counter that moves when the underlying data moves
  (``db.version``, ``attr_stats_version``, ``stats_epoch``, arena
  generations);
* **bounded** — a capacity cap with a defined overflow policy, so a
  million-tuple session cannot grow a memo without limit;
* **observable** — a ``stats`` counter surface, so the benches and
  ``engine.health()`` can see hit rates and occupancy instead of
  guessing.

This rule finds cache-holding classes — any class assigning a
dict-valued ``self.*_memo`` / ``self.*_cache`` attribute, or any class
named ``*Cache`` / ``*Memo`` holding dict state — and reports each
missing aspect. It also bans ``functools.lru_cache`` / ``cache`` in
``src/repro``: process-global memos leak across engines and datasets
sharing one process (the PR 5 lesson that motivated the engine-owned
``SimilarityCache``).

A cache of a *pure* function (same inputs, same value, forever) has
nothing to stamp; suppress the stamp finding on the class line with a
justification comment.
"""

from __future__ import annotations

import ast
import re

from typing import TYPE_CHECKING

from repro.analysis.core import Finding, Rule, register
from repro.analysis.rules._ast import import_map, resolve_dotted

if TYPE_CHECKING:
    from repro.analysis.project import Project, SourceFile

_ATTR_RE = re.compile(r"(_memo|_cache)s?$")
_CLASS_RE = re.compile(r"(Cache|Memo)$")

_STAMP_TOKENS = ("version", "epoch", "stamp", "generation")
_BOUND_TOKENS = ("capacity", "maxsize")

_DICT_FACTORIES = {"dict", "OrderedDict", "defaultdict", "Counter"}

_GLOBAL_MEMO_DECORATORS = {"functools.lru_cache", "functools.cache"}


def _is_dict_valued(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in _DICT_FACTORIES
    return False


def _identifier_tokens(cls: ast.ClassDef) -> set[str]:
    """Every identifier mentioned anywhere in the class body, lowercased."""
    tokens: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Name):
            tokens.add(node.id.lower())
        elif isinstance(node, ast.Attribute):
            tokens.add(node.attr.lower())
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            tokens.add(node.name.lower())
        elif isinstance(node, ast.arg):
            tokens.add(node.arg.lower())
    return tokens


def _has_token(tokens: set[str], needles: tuple[str, ...]) -> bool:
    return any(any(needle in token for needle in needles) for token in tokens)


def _defines_stats(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "stats":
            return True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == "stats"
                ):
                    return True
    return False


def _cache_attrs(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """``(attribute name, line)`` of dict-valued self.*_memo/_cache assigns."""
    out: list[tuple[str, int]] = []
    seen: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if not _is_dict_valued(value):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _ATTR_RE.search(target.attr)
                and target.attr not in seen
            ):
                seen.add(target.attr)
                out.append((target.attr, node.lineno))
    return out


def _holds_dict_state(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if not _is_dict_valued(value):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return True
    return False


@register
class CacheDisciplineRule(Rule):
    id: str = "cache-discipline"
    title: str = "memos must be version-stamped, capacity-bounded and expose stats"
    rationale: str = (
        "an unstamped memo serves stale values after the database moves; an "
        "unbounded one grows without limit at scale; an unobservable one hides "
        "both failures from health() and the benches"
    )
    scope: str = "file"

    def check_file(self, source: SourceFile, project: Project) -> list[Finding]:
        if not source.rel.startswith("src/repro/"):
            return []
        tree = source.tree
        if tree is None:
            return []
        findings: list[Finding] = []
        findings.extend(self._check_global_memos(source, tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(source, node))
        return findings

    # ------------------------------------------------------------------
    def _check_global_memos(self, source: SourceFile, tree: ast.Module) -> list[Finding]:
        imports = import_map(tree)
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = resolve_dotted(target, imports)
                if name in _GLOBAL_MEMO_DECORATORS:
                    findings.append(
                        self.finding(
                            source.rel,
                            decorator.lineno,
                            f"{name} is a process-global memo: it leaks entries across "
                            "engines and datasets sharing one process; use an "
                            "engine-owned bounded cache instead",
                            symbol=node.name,
                        )
                    )
        return findings

    def _check_class(self, source: SourceFile, cls: ast.ClassDef) -> list[Finding]:
        attrs = _cache_attrs(cls)
        cache_like = bool(attrs) or (_CLASS_RE.search(cls.name) and _holds_dict_state(cls))
        if not cache_like:
            return []
        held = ", ".join(name for name, __ in attrs) or "dict state"
        tokens = _identifier_tokens(cls)
        findings: list[Finding] = []
        if not _has_token(tokens, _STAMP_TOKENS):
            findings.append(
                self.finding(
                    source.rel,
                    cls.lineno,
                    f"cache-holding class {cls.name} ({held}) references no "
                    "version/epoch/stamp/generation — entries cannot be validated "
                    "against the live database (suppress with a justification if "
                    "the cached function is pure)",
                    symbol=cls.name,
                )
            )
        if not _has_token(tokens, _BOUND_TOKENS):
            findings.append(
                self.finding(
                    source.rel,
                    cls.lineno,
                    f"cache-holding class {cls.name} ({held}) references no "
                    "capacity/maxsize bound — the memo can grow without limit",
                    symbol=cls.name,
                )
            )
        if not _defines_stats(cls):
            findings.append(
                self.finding(
                    source.rel,
                    cls.lineno,
                    f"cache-holding class {cls.name} ({held}) exposes no `stats` "
                    "counters — hit rates and occupancy are invisible to health() "
                    "and the benches",
                    symbol=cls.name,
                )
            )
        return findings
