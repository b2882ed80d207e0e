"""String similarity for update evaluation (paper Eq. 7).

The repair-evaluation score of an update replacing ``v`` by ``v'`` is::

    s(r) = sim(v, v') = 1 - dist(v, v') / max(|v|, |v'|)

where ``dist`` is the edit (Levenshtein) distance. Any domain-specific
similarity can be plugged in; everything downstream only requires a
callable mapping two values into ``[0, 1]``.

Two evaluation paths are provided:

* the scalar :func:`levenshtein` / :func:`similarity` pair — the
  reference arithmetic, pure functions with no hidden state;
* the batched :func:`levenshtein_many` kernel — candidate strings are
  padded into a uint32 codepoint matrix and the DP row advances across
  the whole batch per query character, so scoring a candidate pool is
  a handful of NumPy passes instead of one Python DP per candidate.

:class:`SimilarityCache` wraps both behind an **engine-owned** memo:
one instance per :class:`~repro.core.gdr.GDREngine`, keyed in *code
space* (the database's dictionary codes) so a similarity is computed
once per distinct ``(current value, candidate value)`` pair and reused
across every tuple sharing those values. Earlier revisions cached
through a module-global ``functools.lru_cache``, which leaked entries
across engines and datasets sharing one process; the cache is now
explicitly owned, bounded, and exposes hit/miss counters.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "SimilarityCache",
    "SimilarityFunction",
    "best_candidate",
    "levenshtein",
    "levenshtein_many",
    "similarity",
    "similarity_many",
    "token_jaccard",
]

#: Signature of a pluggable similarity function.
SimilarityFunction = Callable[[object, object], float]


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings (insert/delete/substitute).

    Examples
    --------
    >>> levenshtein("kitten", "sitting")
    3
    >>> levenshtein("", "abc")
    3
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def _codepoints(s: str) -> np.ndarray:
    """Unicode codepoints of *s* as a uint32 array."""
    try:
        return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    except UnicodeEncodeError:  # lone surrogates: encode char by char
        return np.fromiter(map(ord, s), dtype=np.uint32, count=len(s))


def levenshtein_many(query: str, candidates: Sequence[str]) -> np.ndarray:
    """Edit distances from *query* to every candidate, batched.

    The candidates are padded into one ``(batch, width)`` uint32
    codepoint matrix and the standard DP advances one *query* character
    at a time across the whole batch: the substitution/deletion step is
    two elementwise minima, and the insertion closure
    ``D[j] = min_k<=j (E[k] + j - k)`` is one ``np.minimum.accumulate``
    over ``E[j] - j``. Padding cells can never influence a candidate's
    result because column ``j`` only depends on columns ``<= j`` and
    each distance is read at the candidate's own length.

    Agrees exactly with :func:`levenshtein` (both compute the same DP
    over the same codepoints); the scalar function remains the parity
    reference.
    """
    n = len(candidates)
    lens = np.fromiter((len(c) for c in candidates), dtype=np.int64, count=n)
    if n == 0:
        return lens
    if not query:
        return lens
    width = int(lens.max())
    if width == 0:
        return np.full(n, len(query), dtype=np.int64)
    chars = np.zeros((n, width), dtype=np.uint32)
    for i, cand in enumerate(candidates):
        if cand:
            chars[i, : len(cand)] = _codepoints(cand)
    offsets = np.arange(width + 1, dtype=np.int64)
    prev = np.broadcast_to(offsets, (n, width + 1)).copy()
    cur = np.empty((n, width + 1), dtype=np.int64)
    for i, qc in enumerate(_codepoints(query), start=1):
        cur[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (chars != qc), out=cur[:, 1:])
        np.subtract(cur, offsets, out=cur)
        np.minimum.accumulate(cur, axis=1, out=cur)
        np.add(cur, offsets, out=cur)
        prev, cur = cur, prev
    return prev[np.arange(n), lens]


def _eq7(a: str, b: str, dist: int) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - dist / longest


def similarity(original: object, suggested: object) -> float:
    """Eq. 7 similarity between the current and suggested values.

    Non-string values are compared on their string representation,
    which matches how mixed-type cells behave in the paper's datasets
    (zip codes, ages, hour counts). Pure and uncached — hot paths go
    through an engine-owned :class:`SimilarityCache` instead.

    Examples
    --------
    >>> similarity("Westville", "Westville")
    1.0
    >>> 0.0 <= similarity("FT Wayne", "Fort Wayne") < 1.0
    True
    """
    if original == suggested:
        return 1.0
    a, b = str(original), str(suggested)
    return _eq7(a, b, levenshtein(a, b))


def similarity_many(original: object, candidates: Sequence[object]) -> list[float]:
    """Eq. 7 similarity of *original* against many candidates at once.

    One :func:`levenshtein_many` kernel call; value-for-value equal to
    mapping :func:`similarity` over the candidates.
    """
    a = str(original)
    strs = [str(c) for c in candidates]
    dists = levenshtein_many(a, strs)
    # the equality shortcut must fire before stringification, exactly
    # like the scalar path (1 == True but "1" != "True")
    return [
        1.0 if original == candidate else _eq7(a, s, d)
        for candidate, s, d in zip(candidates, strs, dists.tolist())
    ]


class SimilarityCache:  # repolint: disable=cache-discipline
    # suppressed stamp finding: Eq. 7 similarity is a pure function of
    # the two values, and dictionary codes are append-only — an entry
    # can never go stale, so there is no version to stamp against
    """Engine-owned, bounded Eq. 7 cache with a code-space fast path.

    Parameters
    ----------
    columns:
        Optional :class:`~repro.db.columnar.ColumnStore`. When given,
        :meth:`scores` keys its memo on dictionary codes — one
        similarity per distinct ``(column, current code, candidate
        code)`` triple, shared by every tuple whose cells carry those
        values. Values outside the vocabulary (e.g. rule constants that
        never occur in the data) fall back to a string-keyed memo.
    capacity:
        Soft entry bound across both memos; overflowing it drops the
        whole memo (similarities are cheap to recompute and a purge
        keeps the bookkeeping trivially correct — no partially evicted
        code buckets). One miss batch is always admitted after the
        purge, so occupancy can transiently exceed the bound by up to
        one candidate-pool size until the next overflowing call.

    The instance is itself a :data:`SimilarityFunction` — calling it
    evaluates (and memoises) one scalar pair — so it plugs directly
    into :class:`~repro.repair.generator.UpdateGenerator` and
    :class:`~repro.core.learner.FeedbackLearner`.
    """

    def __init__(self, columns=None, capacity: int = 1 << 20) -> None:
        self._columns = columns
        self._capacity = max(1, int(capacity))
        # (column position, current code) -> {candidate code -> sim}
        self._pairs: dict[tuple[int, int], dict[int, float]] = {}
        self._pair_entries = 0
        # (str(current), str(candidate)) -> sim, for out-of-vocabulary values
        self._strs: dict[tuple[str, str], float] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters (surfaced in the benchmark reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pair_entries": self._pair_entries,
            "str_entries": len(self._strs),
        }

    def __len__(self) -> int:
        return self._pair_entries + len(self._strs)

    # ------------------------------------------------------------------
    def __call__(self, original: object, suggested: object) -> float:
        """Scalar Eq. 7, memoised by string forms."""
        if original == suggested:
            return 1.0
        key = (str(original), str(suggested))
        hit = self._strs.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        value = _eq7(key[0], key[1], levenshtein(key[0], key[1]))
        if len(self) >= self._capacity:
            self._purge()
        self._strs[key] = value
        return value

    def scores(self, pos: int, current: object, candidates: Sequence[object]) -> list[float]:
        """Eq. 7 scores of *current* against a candidate pool, batched.

        In-vocabulary candidates resolve through the code-space memo;
        all misses are evaluated in one :func:`levenshtein_many` kernel
        call. Value-for-value equal to calling the cache scalarly per
        candidate.
        """
        columns = self._columns
        if columns is None:
            return [self(current, value) for value in candidates]
        code_of = columns.vocabulary(pos).code_of
        cur_code = code_of(current)
        if cur_code < 0:
            return [self(current, value) for value in candidates]
        inner = self._pairs.get((pos, cur_code))
        if inner is None:
            inner = self._pairs[(pos, cur_code)] = {}
        out: list[float] = [0.0] * len(candidates)
        miss_slots: list[tuple[int, int]] = []
        miss_values: list[object] = []
        for i, value in enumerate(candidates):
            code = code_of(value)
            if code < 0:
                out[i] = self(current, value)
                continue
            if code == cur_code:
                self.hits += 1
                out[i] = 1.0
                continue
            hit = inner.get(code)
            if hit is not None:
                self.hits += 1
                out[i] = hit
            else:
                miss_slots.append((i, code))
                miss_values.append(value)
        if miss_values:
            self.misses += len(miss_values)
            fresh = similarity_many(current, miss_values)
            if len(self) + len(miss_values) > self._capacity:
                self._purge()
            # re-fetch: a purge (here or via a string-fallback call made
            # during the scan) may have dropped the bucket
            inner = self._pairs.get((pos, cur_code))
            if inner is None:
                inner = self._pairs[(pos, cur_code)] = {}
            before = len(inner)
            for (i, code), value in zip(miss_slots, fresh):
                inner[code] = value
                out[i] = value
            # duplicate candidates in one pool miss twice but store once
            self._pair_entries += len(inner) - before
        return out

    def _purge(self) -> None:
        """Drop the whole memo (counted as evictions)."""
        self.evictions += len(self)
        self._pairs.clear()
        self._strs.clear()
        self._pair_entries = 0

    def clear(self) -> None:
        """Drop every memoised entry (counters are kept)."""
        self._pairs.clear()
        self._strs.clear()
        self._pair_entries = 0

    def sample_entries(self, limit: int) -> list[tuple[int, int, int, float] | tuple[str, str, float]]:
        """Up to *limit* memoised entries, for auditing.

        Code-space entries come back as ``(pos, current code,
        candidate code, sim)``, string-space entries as ``(current,
        candidate, sim)``. Deterministic order (insertion order of the
        underlying dicts), so a sampling auditor with a fixed cursor
        sees a stable stream.
        """
        out: list = []
        for (pos, cur_code), inner in self._pairs.items():
            for code, value in inner.items():
                if len(out) >= limit:
                    return out
                out.append((pos, cur_code, code, value))
        for (a, b), value in self._strs.items():
            if len(out) >= limit:
                return out
            out.append((a, b, value))
        return out

    def __repr__(self) -> str:
        return (
            f"SimilarityCache({len(self)} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


def best_candidate(
    original: object,
    candidates,
    excluded=(),
    sim: SimilarityFunction = similarity,
) -> tuple[object | None, float]:
    """The admissible candidate maximising Eq. 7 similarity.

    Skips ``None``, the current value and anything in *excluded* (the
    cell's prevented list); ties break toward the lexicographically
    smaller string form, so the choice is order-independent. Returns
    ``(value, score)``, with ``(None, -1.0)`` when nothing is
    admissible. A zero-similarity value is still admissible (the
    paper's own example suggests 'Michigan City' for 'Westville'); it
    simply carries the lowest possible certainty score.
    """
    best_score = -1.0
    best_value: object | None = None
    for value in candidates:
        if value == original or value in excluded or value is None:
            continue
        score = sim(original, value)
        if (
            best_value is None
            or score > best_score
            or (score == best_score and str(value) < str(best_value))
        ):
            best_score = score
            best_value = value
    return best_value, best_score


def token_jaccard(original: object, suggested: object) -> float:
    """Alternative similarity: Jaccard overlap of whitespace tokens.

    Useful for multi-word address fields where word order matters less
    than shared words. Provided as a drop-in alternative to Eq. 7.
    """
    tokens_a = set(str(original).lower().split())
    tokens_b = set(str(suggested).lower().split())
    if not tokens_a and not tokens_b:
        return 1.0
    union = tokens_a | tokens_b
    if not union:
        return 1.0
    return len(tokens_a & tokens_b) / len(union)
