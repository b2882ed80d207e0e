"""Per-cell reference for batched Algorithm 1 generation.

:func:`generate_for_cells` runs
:meth:`~repro.repair.generator.UpdateGenerator.generate_for_cell` (no
decision memo, one similarity call per candidate) on every cell in
order, with the batched method's signature and result.
"""

from __future__ import annotations

from repro.repair.generator import UpdateGenerator


def generate_for_cells(generator: UpdateGenerator, cells, revisited=None):
    """Algorithm 1 cell by cell (aligned result list)."""
    results = []
    for cell in cells:
        had = generator.state.get(cell) is not None
        update = generator.generate_for_cell(*cell)
        if revisited is not None and (had or update is not None):
            revisited.append(cell)
        results.append(update)
    return results


def scalar(generator: UpdateGenerator) -> UpdateGenerator:
    """Route one generator's batched entry point through the reference."""
    generator.generate_for_cells = lambda cells, revisited=None: generate_for_cells(
        generator, cells, revisited
    )
    return generator


def use_scalar_suggestions(monkeypatch) -> None:
    """Run every generator on the per-cell reference."""
    monkeypatch.setattr(UpdateGenerator, "generate_for_cells", generate_for_cells)
