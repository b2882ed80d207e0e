"""Value-keyed equality matching: the reference for code-space matching.

The engine matches rows in code space
(:meth:`~repro.db.columnar.ColumnStore.match_mask_codes`,
:meth:`~repro.db.columnar.ColumnStore.codes_at`). These helpers take
decoded values instead, looking each one up in its column's vocabulary,
so a test can state a match by value and check the code-space result.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.db.columnar import ColumnStore


def match_mask(
    cols: ColumnStore, items: Iterable[tuple[int, object]], exclude_tid: int | None = None
) -> np.ndarray:
    """Boolean row mask for an equality conjunction.

    *items* is an iterable of ``(column position, value)`` pairs; the
    result marks rows agreeing with every pair. A value absent from a
    column's vocabulary short-circuits to the empty mask.
    """
    codes = []
    for pos, value in items:
        code = cols.code_for(pos, value)
        if code < 0:
            return np.zeros(len(cols), dtype=bool)
        codes.append((pos, code))
    mask = cols.match_mask_codes(codes)
    if exclude_tid is not None and exclude_tid in cols:
        mask[cols.position_of(exclude_tid)] = False
    return mask


def match_tids(
    cols: ColumnStore, items: Iterable[tuple[int, object]], exclude_tid: int | None = None
) -> list[int]:
    """Tuple ids satisfying an equality conjunction."""
    tids: list[int] = cols.tids()[match_mask(cols, items, exclude_tid)].tolist()
    return tids
