"""Determinism: no wall clocks or unseeded randomness in core paths.

Kill-and-restore replay (PR 6) and the golden trajectories depend on the engine being a pure function of ``(instance,
rules, config, oracle answers)``. A single ``time.time()`` feeding a
decision, or a module-global RNG draw, silently breaks deterministic
re-execution — the failure only shows up later as a replay divergence
that is miserable to bisect. This rule bans the sources of
nondeterminism at their call sites in ``core/``, ``constraints/``,
``repair/`` and ``ml/``.

Allowed by design:

* ``time.perf_counter`` / ``time.monotonic`` — telemetry timing never
  feeds a decision; the benches and worker timing sections use them.
* ``numpy.random.default_rng(seed)`` / ``random.Random(seed)`` *with*
  a seed argument — explicitly seeded generators are the sanctioned
  randomness.
"""

from __future__ import annotations

import ast

from typing import TYPE_CHECKING

from repro.analysis.core import Finding, Rule, register
from repro.analysis.rules._ast import (
    build_parents,
    enclosing_symbol,
    import_map,
    resolve_dotted,
    walk_calls,
)

if TYPE_CHECKING:
    from repro.analysis.project import Project, SourceFile

#: src/repro subpackages under the byte-identical replay contract.
CORE_PREFIXES = (
    "src/repro/core/",
    "src/repro/constraints/",
    "src/repro/repair/",
    "src/repro/ml/",
)

#: Always-banned canonical callables.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "clock/MAC-derived id",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.randbelow": "OS entropy",
}

#: numpy.random members that construct (seedable) generators.
_NP_RANDOM_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "MT19937",
}

#: Constructors that must receive an explicit seed argument.
_SEED_REQUIRED = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "random.Random",
}


@register
class DeterminismRule(Rule):
    id: str = "determinism"
    title: str = "no wall clocks or unseeded RNG in replay-contract packages"
    rationale: str = (
        "core/, constraints/, repair/ and ml/ must stay deterministic so "
        "kill-and-restore replay and the golden trajectories hold byte-for-byte"
    )
    scope: str = "file"

    def check_file(self, source: SourceFile, project: Project) -> list[Finding]:
        if not source.rel.startswith(CORE_PREFIXES):
            return []
        tree = source.tree
        if tree is None:
            return []
        imports = import_map(tree)
        parents = build_parents(tree)
        findings: list[Finding] = []

        def add(node: ast.AST, message: str) -> None:
            findings.append(
                self.finding(
                    source.rel,
                    getattr(node, "lineno", 0),
                    message,
                    symbol=enclosing_symbol(node, parents),
                )
            )

        for call in walk_calls(tree):
            name = resolve_dotted(call.func, imports)
            if name is None:
                continue
            reason = BANNED_CALLS.get(name)
            if reason is not None:
                add(call, f"{name}() is nondeterministic ({reason}); core paths must replay byte-identically")
                continue
            if name in _SEED_REQUIRED:
                if not call.args and not call.keywords:
                    add(call, f"{name}() without a seed draws from OS entropy; pass the session seed")
                continue
            if name.startswith("numpy.random."):
                member = name[len("numpy.random.") :]
                if member not in _NP_RANDOM_CONSTRUCTORS:
                    add(
                        call,
                        f"{name}() uses the module-global numpy RNG; construct a "
                        "seeded numpy.random.default_rng(seed) instead",
                    )
                continue
            if name.startswith("random.") and name.count(".") == 1:
                member = name.split(".", 1)[1]
                if member not in {"Random"}:
                    add(
                        call,
                        f"{name}() uses the process-global stdlib RNG; construct a "
                        "seeded random.Random(seed) instead",
                    )
        return findings
