"""String similarity for update evaluation (paper Eq. 7).

The repair-evaluation score of an update replacing ``v`` by ``v'`` is::

    s(r) = sim(v, v') = 1 - dist(v, v') / max(|v|, |v'|)

where ``dist`` is the edit (Levenshtein) distance. Any domain-specific
similarity can be plugged in; everything downstream only requires a
callable mapping two values into ``[0, 1]``.

Two evaluation paths are provided:

* the scalar :func:`levenshtein` / :func:`similarity` pair — the
  reference arithmetic, pure functions with no hidden state;
* the batched :func:`levenshtein_many` pairs kernel — ``queries[i]``
  against ``candidates[i]``, the strings padded into uint32 codepoint
  matrices and the DP row advanced across every pair per query
  position, so scoring many candidate pools is a handful of NumPy
  passes instead of one Python DP per candidate.

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

#: The pending pairs of a code bucket no earlier request of a batch missed.
_NONE_PENDING: dict[int, int] = {}


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


#: Pairs per kernel chunk; :class:`~repro.repair.generator.UpdateGenerator`
#: queues Algorithm 1 decisions up to the same number of pairs.
KERNEL_BUDGET = 256


def _codepoint_matrix(strings: list[str], lens: np.ndarray) -> np.ndarray:
    """Zero-padded ``(len(strings), max length)`` codepoint matrix, from
    one encode of the joined strings."""
    width = int(lens.max())
    out = np.zeros((len(strings), width), dtype=np.uint32)
    if width:
        out[np.arange(width) < lens[:, None]] = _codepoints("".join(strings))
    return out


def levenshtein_many(queries: Sequence[str], candidates: Sequence[str]) -> np.ndarray:
    """Edit distance of every pair ``(queries[i], candidates[i])``, batched.

    The pairs are cut into chunks of :data:`KERNEL_BUDGET`. In a chunk
    the rows are sorted by query length (longest first), candidates are
    padded into one ``(rows, width)`` uint32 codepoint matrix and the
    standard DP advances one query position at a time across every row
    whose query is that long; shorter rows have finished and drop out.
    The DP row is kept as ``E[j] = D[j] - j`` (int32), so a step is the
    substitution/deletion minimum followed by one
    ``np.minimum.accumulate`` — the insertion closure ``D[j] = min_k<=j
    (X[k] + j - k)``. Padding cells never influence a result: column
    ``j`` depends only on columns ``<= j`` and each distance is read at
    its candidate's own length.

    Agrees exactly with :func:`levenshtein` (the same DP over the same
    codepoints); the scalar function remains the parity reference.
    """
    n = len(queries)
    if len(candidates) != n:
        raise ValueError(f"{n} queries but {len(candidates)} candidates")
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, KERNEL_BUDGET):
        hi = min(n, lo + KERNEL_BUDGET)
        out[lo:hi] = _levenshtein_chunk(list(queries[lo:hi]), list(candidates[lo:hi]))
    return out


def _levenshtein_chunk(queries: list[str], candidates: list[str]) -> np.ndarray:
    n = len(queries)
    qlen_list = [len(q) for q in queries]
    ranked = sorted(range(n), key=qlen_list.__getitem__, reverse=True)
    qlen_sorted = [qlen_list[i] for i in ranked]
    qlens = np.array(qlen_sorted, dtype=np.int64)
    cands = [candidates[i] for i in ranked]
    clens = np.fromiter(map(len, cands), dtype=np.int64, count=n)
    dist = clens.copy()  # the rows with an empty query
    longest = qlen_sorted[0]
    if longest:
        query_chars = _codepoint_matrix([queries[i] for i in ranked], qlens)
        chars = _codepoint_matrix(cands, clens)
        width = chars.shape[1]
        # active[i]: rows whose query has at least i characters
        active = [0] * (longest + 2)
        for length in qlen_sorted:
            active[length] += 1
        for i in range(longest - 1, -1, -1):
            active[i] += active[i + 1]
        prev = np.zeros((n, width + 1), dtype=np.int32)
        cur = np.empty_like(prev)
        equal = np.empty((n, width), dtype=bool)
        for i in range(1, longest + 1):
            k = active[i]
            e, c, eq = prev[:k], cur[:k], equal[:k]
            np.equal(chars[:k], query_chars[:k, i - 1 : i], out=eq)
            c[:, 0] = i
            np.add(e[:, 1:], 1, out=c[:, 1:])
            np.minimum(c[:, 1:], e[:, :-1] - eq, out=c[:, 1:])
            np.minimum.accumulate(c, axis=1, out=c)
            done = active[i + 1]
            if done < k:  # rows whose query ends here
                dist[done:k] = c[np.arange(done, k), clens[done:k]] + clens[done:k]
            prev, cur = cur, prev
    out = np.empty(n, dtype=np.int64)
    out[ranked] = dist
    return out


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
    dists = levenshtein_many([a] * len(strs), strs)
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
        # during a :meth:`scores` batch: (column position, current code)
        # -> {candidate code -> kernel slot} for the pairs missed so far
        self._pending: dict[tuple[int, int], dict[int, int]] = {}
        self._pending_entries = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.kernel_batches = 0
        self.kernel_pairs = 0

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters (surfaced in the benchmark reports).

        ``kernel_batches`` counts :func:`levenshtein_many` calls (one
        per :meth:`scores` batch that missed) and ``kernel_pairs`` the
        pairs they scored.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pair_entries": self._pair_entries,
            "str_entries": len(self._strs),
            "kernel_batches": self.kernel_batches,
            "kernel_pairs": self.kernel_pairs,
        }

    def __len__(self) -> int:
        return self._pair_entries + len(self._strs) + self._pending_entries

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

    def scores(self, requests: Sequence[tuple[int, object, Sequence[object]]]) -> list[list[float]]:
        """Eq. 7 scores of a batch of ``(column position, current value,
        candidates)`` requests, with one :func:`levenshtein_many` call.

        Each candidate's code and cached score are resolved once, in
        request order, against the memo and against the pairs earlier
        requests of the batch missed: such a *pending* pair counts as a
        hit, as it would once inserted. A request's misses are counted
        at its turn, the purge it would trigger fires at its turn (the
        size counts pending pairs), and its misses become pending. At
        the end every missed pair is scored in one kernel call and the
        pending pairs a purge did not drop are inserted. So results,
        counters and the memo's contents and order are exactly those of
        scoring the requests one after another.
        """
        columns = self._columns
        outs: list[list[float]] = []
        # per kernel slot (current, candidate, str(current), str(candidate));
        # and every output cell a slot fills
        slots: list[tuple[object, object, str, str]] = []
        fills: list[tuple[list[float], int, int]] = []
        for pos, current, candidates in requests:
            out: list[float] = [0.0] * len(candidates)
            outs.append(out)
            code_of = columns.vocabulary(pos).code_of if columns is not None else None
            cur_code = code_of(current) if code_of is not None else -1
            if cur_code < 0:
                out[:] = [self(current, value) for value in candidates]
                continue
            key = (pos, cur_code)
            inner = self._pairs.get(key)
            if inner is None:
                inner = self._pairs[key] = {}
            queued = self._pending.get(key, _NONE_PENDING)
            misses: list[tuple[int, int, object]] = []
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
                    continue
                slot = queued.get(code)
                if slot is not None:
                    self.hits += 1
                    fills.append((out, i, slot))
                else:
                    misses.append((i, code, value))
            if misses:
                self.misses += len(misses)
                if len(self) + len(misses) > self._capacity:
                    self._purge()
                if key not in self._pairs:
                    self._pairs[key] = {}
                bucket = self._pending.get(key)
                if bucket is None:
                    bucket = self._pending[key] = {}
                before = len(bucket)
                text = str(current)
                # a duplicate candidate misses twice and the memo keeps
                # its last score, as a one-request batch would
                for i, code, value in misses:
                    bucket[code] = len(slots)
                    fills.append((out, i, len(slots)))
                    slots.append((current, value, text, str(value)))
                self._pending_entries += len(bucket) - before
        if slots:
            self.kernel_batches += 1
            self.kernel_pairs += len(slots)
            dists = levenshtein_many([s[2] for s in slots], [s[3] for s in slots]).tolist()
            # the equality shortcut fires before stringification, as in
            # the scalar path (1 == True but "1" != "True")
            sims = [
                1.0 if current == value else _eq7(a, b, d)
                for (current, value, a, b), d in zip(slots, dists)
            ]
            for out, i, slot in fills:
                out[i] = sims[slot]
            for key, bucket in self._pending.items():
                inner = self._pairs[key]
                before = len(inner)
                for code, slot in bucket.items():
                    inner[code] = sims[slot]
                self._pair_entries += len(inner) - before
            self._pending = {}
            self._pending_entries = 0
        return outs

    def _purge(self) -> None:
        """Drop the whole memo, pending pairs included (counted as
        evictions); a batch still scores the dropped pending pairs."""
        self.evictions += len(self)
        self._pairs.clear()
        self._strs.clear()
        self._pair_entries = 0
        self._pending = {}
        self._pending_entries = 0

    def clear(self) -> None:
        """Drop every memoised entry (counters are kept)."""
        self._pairs.clear()
        self._strs.clear()
        self._pair_entries = 0

    def sample_entries(self, limit: int) -> list[tuple[int, int, int, float] | tuple[str, str, float]]:
        """Up to *limit* memoised entries, for the lockstep tests.

        Code-space entries come back as ``(pos, current code,
        candidate code, sim)``, string-space entries as ``(current,
        candidate, sim)``. Deterministic order (insertion order of the
        underlying dicts).
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
