"""Conditional functional dependencies: patterns, parsing, violations, discovery."""

from repro.constraints.cfd import CFD, normalize
from repro.constraints.discovery import (
    discover_rules,
    discover_variable_cfds,
    fd_violation_rate,
    mine_constant_cfds,
)
from repro.constraints.explain import RuleViolation, TupleExplanation, explain_tuple
from repro.constraints.parser import (
    format_cfd,
    load_rules,
    parse_cfd,
    parse_rules,
    save_rules,
)
from repro.constraints.pattern import ANY, PatternTuple, Wildcard
from repro.constraints.repository import RuleSet
from repro.constraints.violations import DirtyDelta, ViolationDetector, WhatIfOutcome

__all__ = [
    "ANY",
    "CFD",
    "DirtyDelta",
    "PatternTuple",
    "RuleSet",
    "RuleViolation",
    "TupleExplanation",
    "ViolationDetector",
    "WhatIfOutcome",
    "Wildcard",
    "discover_rules",
    "discover_variable_cfds",
    "explain_tuple",
    "fd_violation_rate",
    "format_cfd",
    "load_rules",
    "mine_constant_cfds",
    "normalize",
    "parse_cfd",
    "parse_rules",
    "save_rules",
]
