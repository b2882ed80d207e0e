"""Deterministic scale-up of the benchmark datasets.

The paper's datasets top out at ~23k tuples; the scale benchmarks need
10^5–10^6 rows with the *same* violation structure.
:func:`load_synth_dataset` replicates a seeded base
instance block by block:

* **hospital** — every replica block re-keys the attributes that feed
  the variable CFDs (``hospital``, ``street``) plus ``patient_id`` with
  a pure ``value~block`` suffix.  Partitions of ``street, city -> zip``,
  ``hospital -> street`` and ``hospital -> zip`` therefore never merge
  across blocks, so each block reproduces the base instance's variable
  violations exactly; ``zip``/``city``/``state`` are shared, so the
  constant tableau applies globally and each replica of a corrupted
  cell violates the same rules the original did.
* **adult** — blocks are replicated verbatim.  Its rules are
  *discovered* constants over a tiny categorical domain; re-keying any
  attribute would orphan the tableau, while verbatim replication keeps
  every constant context valid (variable-rule partition sizes grow with
  the block count, which is representative of a larger census extract).

Everything is a pure function of ``(name, n, seed, base_n, ...)`` — no
RNG is consumed beyond the base generator's, so two calls with the same
arguments produce byte-identical instances, ground truth and
provenance.
"""

from __future__ import annotations

from repro.datasets.corruption import CorruptionResult
from repro.datasets.loader import GDRDataset, load_dataset
from repro.db.database import Database
from repro.errors import DatasetError

__all__ = ["REKEY_ATTRIBUTES", "load_synth_dataset", "scale_dataset"]

#: Attributes given a per-block suffix so variable-rule partitions stay
#: block-local (empty tuple: replicate verbatim).
REKEY_ATTRIBUTES: dict[str, tuple[str, ...]] = {
    "hospital": ("patient_id", "hospital", "street"),
    "adult": (),
}


def _rekeyed(value: object, block: int) -> str:
    """The block-``b`` alias of ``value`` (pure, collision-free)."""
    return f"{value}~{block}"


def scale_dataset(base: GDRDataset, n: int) -> GDRDataset:
    """Replicate ``base`` into an ``n``-tuple instance.

    Block 0 is the base instance verbatim (``scale_dataset(ds, len(ds
    .dirty))`` round-trips); later blocks re-key
    ``REKEY_ATTRIBUTES[base.name]`` and the final block is truncated to
    hit ``n`` exactly.  Corruption provenance is re-based onto the new
    tuple ids so oracles and evaluation work unchanged.
    """
    if n <= 0:
        raise DatasetError(base.name, f"synthetic size must be positive, got {n}")
    try:
        rekey = REKEY_ATTRIBUTES[base.name]
    except KeyError:
        raise DatasetError(
            base.name,
            f"no scale-up recipe; expected one of {sorted(REKEY_ATTRIBUTES)}",
        ) from None
    schema = base.dirty.schema
    rekey_pos = [schema.position(attr) for attr in rekey]
    base_tids = sorted(base.dirty.tids())
    if base_tids != sorted(base.clean.tids()):
        raise DatasetError(base.name, "dirty/clean tuple ids diverge; cannot replicate")
    block_size = len(base_tids)
    rank = {tid: i for i, tid in enumerate(base_tids)}

    dirty_rows: list[tuple[object, ...]] = []
    clean_rows: list[tuple[object, ...]] = []
    dirty_tuples: set[int] = set()
    corrupted_cells: list[tuple[int, str]] = []
    block = 0
    while len(dirty_rows) < n:
        take = min(block_size, n - len(dirty_rows))
        offset = block * block_size
        for tid in base_tids[:take]:
            for source, sink in ((base.dirty, dirty_rows), (base.clean, clean_rows)):
                values = list(source.values_snapshot(tid))
                if block:
                    for pos in rekey_pos:
                        values[pos] = _rekeyed(values[pos], block)
                sink.append(tuple(values))
        for tid in base.corruption.dirty_tuples:
            if rank[tid] < take:
                dirty_tuples.add(offset + rank[tid])
        for tid, attr in base.corruption.corrupted_cells:
            if rank[tid] < take:
                corrupted_cells.append((offset + rank[tid], attr))
        block += 1

    report = CorruptionResult(
        dirty_tuples=dirty_tuples,
        corrupted_cells=corrupted_cells,
        undetectable_dropped=base.corruption.undetectable_dropped * block,
    )
    return GDRDataset(
        name=f"{base.name}-synth",
        dirty=Database(schema, dirty_rows),
        clean=Database(schema, clean_rows),
        rules=base.rules,
        corruption=report,
    )


def load_synth_dataset(
    name: str = "hospital",
    n: int = 100_000,
    seed: int = 0,
    base_n: int = 2000,
    dirty_rate: float = 0.3,
    **overrides,
) -> GDRDataset:
    """Generate a scaled-up benchmark instance.

    Parameters
    ----------
    name:
        Base dataset (``"hospital"`` or ``"adult"``).
    n:
        Target tuple count (10^5–10^6 for the scale benchmarks).
    seed, dirty_rate, overrides:
        Forwarded to :func:`repro.datasets.load_dataset` for the base
        instance.
    base_n:
        Size of the seeded base block that gets replicated.

    Examples
    --------
    >>> ds = load_synth_dataset("hospital", n=5000, base_n=1000, seed=7)
    >>> len(ds.dirty)
    5000
    """
    base = load_dataset(name, n=base_n, seed=seed, dirty_rate=dirty_rate, **overrides)
    return scale_dataset(base, n)
