"""Eq. 7 memo check: every entry of a similarity cache against the
scalar kernel.

:class:`~repro.repair.similarity.SimilarityCache` memoises scores two
ways: code-space entries ``(column position, current code, candidate
code)`` written by the batched ``scores`` path, and string-space
entries ``(current, candidate)`` written by the scalar ``__call__``
(the learner's feature encoder). :func:`stale_entries` decodes every
entry and recomputes it with :func:`~repro.repair.similarity.similarity`.
"""

from __future__ import annotations

from repro.repair.similarity import similarity


def stale_entries(sim_cache, columns) -> list[tuple]:
    """``(a, b, cached, expected)`` for every entry whose memoised score
    differs from ``similarity(a, b)``; *columns* decodes the code-space
    entries."""
    out = []
    for entry in sim_cache.sample_entries(len(sim_cache)):
        if len(entry) == 4:
            pos, cur_code, cand_code, cached = entry
            vocab = columns.vocabulary(pos)
            a, b = vocab.decode(cur_code), vocab.decode(cand_code)
        else:
            a, b, cached = entry
        expected = similarity(a, b)
        if cached != expected:
            out.append((a, b, cached, expected))
    return out
