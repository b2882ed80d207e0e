"""The repolint rule battery.

Importing this package registers every rule in
:data:`repro.analysis.core.RULES`. Each module is one contract; see
``docs/repolint.md`` for the catalog with rationale and the disable
syntax.
"""

from repro.analysis.rules import (  # noqa: F401  - import for registration
    cache_discipline,
    determinism,
    fault_points,
)

__all__ = [
    "cache_discipline",
    "determinism",
    "fault_points",
]
