"""Parity coverage: every mode knob keeps its reference pinned by tests.

Every performance path in this repo earned its keep by reproducing a
retained reference byte-for-byte: ``pipeline="rebuild"``,
``drain="sequential"``, ``suggest="scalar"``, ``learner="exact"``.
Those references only stay honest while tests keep *pinning* them —
constructing a run with the reference value and comparing it against
the optimised default. If the last test naming a
reference value disappears (or the knob itself is dropped from
``GDRConfig``), the byte-identity contract is unenforced and future
divergence lands silently. This rule fails the lint run in both cases.

The knob spec below is the contract; growing a new mode knob means
adding it here together with its parity test.
"""

from __future__ import annotations

import ast

from typing import TYPE_CHECKING

from repro.analysis.core import Finding, Rule, register
from repro.analysis.rules._ast import walk_calls

if TYPE_CHECKING:
    from repro.analysis.project import Project, SourceFile

GDR_MODULE = "src/repro/core/gdr.py"
CONFIG_CLASS = "GDRConfig"

#: knob -> the retained reference value a parity test must pin.
REFERENCE_KNOBS: dict[str, object] = {
    "pipeline": "rebuild",
    "drain": "sequential",
    "suggest": "scalar",
    "learner": "exact",
}


def config_fields(tree: ast.Module) -> set[str] | None:
    """Field names of the GDRConfig dataclass (None if class missing)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
            fields: set[str] = set()
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields.add(stmt.target.id)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            fields.add(target.id)
            return fields
    return None


def _matches(value: object, reference: object) -> bool:
    return type(value) is type(reference) and value == reference


@register
class ParityCoverageRule(Rule):
    id: str = "parity-coverage"
    title: str = "every GDRConfig mode knob keeps a test pinning its reference value"
    rationale: str = (
        "the optimised default of each mode knob is only trusted because a test "
        "runs the retained reference value against it; losing that test (or the "
        "knob) lets the byte-identity contract rot unenforced"
    )
    scope: str = "project"

    def check_project(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        gdr = project.file(GDR_MODULE)
        fields: set[str] | None = None
        if gdr is None or gdr.tree is None:
            findings.append(
                self.finding(GDR_MODULE, 0, "GDRConfig module missing or unparseable")
            )
        else:
            fields = config_fields(gdr.tree)
            if fields is None:
                findings.append(
                    self.finding(
                        GDR_MODULE, 0, f"class {CONFIG_CLASS} not found in {GDR_MODULE}"
                    )
                )

        pinned: dict[str, list[str]] = {knob: [] for knob in REFERENCE_KNOBS}
        for source in project.test_files():
            tree = source.tree
            if tree is None:
                continue
            # local helper signatures: parity tests often thread the knob
            # through a `_run(mode, ...)` helper positionally
            local_params: dict[str, list[str]] = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local_params[node.name] = [a.arg for a in node.args.args]
            for call in walk_calls(tree):
                for kw in call.keywords:
                    if kw.arg in REFERENCE_KNOBS and isinstance(kw.value, ast.Constant):
                        if _matches(kw.value.value, REFERENCE_KNOBS[kw.arg]):
                            pinned[kw.arg].append(source.rel)
                if isinstance(call.func, ast.Name) and call.func.id in local_params:
                    params = local_params[call.func.id]
                    for index, arg in enumerate(call.args):
                        if index >= len(params) or not isinstance(arg, ast.Constant):
                            continue
                        knob = params[index]
                        if knob in REFERENCE_KNOBS and _matches(
                            arg.value, REFERENCE_KNOBS[knob]
                        ):
                            pinned[knob].append(source.rel)

        for knob, reference in REFERENCE_KNOBS.items():
            if fields is not None and knob not in fields:
                findings.append(
                    self.finding(
                        GDR_MODULE,
                        0,
                        f"mode knob {knob!r} is in the parity spec but not a "
                        f"{CONFIG_CLASS} field — if the knob was retired on purpose, "
                        "retire it from REFERENCE_KNOBS in the same PR",
                        symbol=knob,
                    )
                )
                continue
            if not pinned[knob]:
                findings.append(
                    self.finding(
                        GDR_MODULE,
                        0,
                        f"no test pins the reference value {knob}={reference!r} — the "
                        "byte-identity contract for this knob is unenforced",
                        symbol=knob,
                    )
                )
        return findings
