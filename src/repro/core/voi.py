"""Value-of-information group benefit (paper Eq. 6).

The estimated data-quality gain of acquiring feedback for a group
``c = {r_1, ..., r_J}`` is::

    E[g(c)] = Σ_{φ_i} w_i Σ_{r_j ∈ c} p̃_j · (vio(D,{φ_i}) − vio(D^{r_j},{φ_i}))
                                        / |D^{r_j} ⊨ φ_i|

where ``p̃_j`` approximates the probability that the user confirms
``r_j`` (the learner's confirm probability once trained, the update
score ``s_j`` before that), ``vio`` is the Definition 1 violation count
and ``|D^{r_j} ⊨ φ_i|`` counts context tuples satisfying the rule after
hypothetically applying the update.

The estimator works against any *stats provider* exposing the
:class:`~repro.constraints.violations.ViolationDetector` what-if
interface, which keeps the arithmetic unit-testable against the paper's
worked example (§4.1, expected benefit 1.05). Providers additionally
exposing the batched ``what_if_many`` (the columnar detector does) get
all probes for one cell evaluated in a single pass over the partition
statistics; plain scalar providers fall back to per-update probes.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Mapping, Sequence
from typing import Protocol

from repro.constraints.cfd import CFD
from repro.constraints.violations import ViolationDetector, WhatIfOutcome
from repro.core.grouping import GroupIndex, UpdateGroup, group_sort_key
from repro.core.learner import FeedbackLearner
from repro.db.changelog import CellChange
from repro.db.database import Database
from repro.repair.candidate import CandidateUpdate

__all__ = ["GroupBenefitCache", "UpdateStatsProvider", "VOIEstimator"]

#: Maps an update to its confirm probability ``p̃``.
ProbabilityFn = Callable[[CandidateUpdate], float]

#: Entry bound of the estimator's persistent Eq. 6 term memo; cleared
#: wholesale on overflow (terms are one sparse probe to recompute).
_TERM_MEMO_CAPACITY = 1 << 20


class UpdateStatsProvider(Protocol):
    """What the VOI arithmetic needs from the violation machinery.

    ``what_if_many(tid, attribute, values)`` is an optional extension
    detected at runtime: when present it is used to batch all candidate
    probes for a cell.
    """

    def what_if(self, tid: int, attribute: str, value: object) -> Mapping[CFD, WhatIfOutcome]:
        """Hypothetical per-rule effect of one cell update."""
        ...  # pragma: no cover - protocol

    def weights(self) -> Mapping[CFD, float]:
        """Current rule weights ``w_i``."""
        ...  # pragma: no cover - protocol


def _benefit_from_outcomes(
    outcomes: Mapping[CFD, WhatIfOutcome],
    probability: float,
    weights: Mapping[CFD, float],
) -> float:
    """The inner Eq. 6 term given the per-rule what-if outcomes."""
    benefit = 0.0
    for rule, outcome in outcomes.items():
        weight = weights.get(rule, 0.0)
        if weight == 0.0:
            continue
        denominator = max(1, outcome.satisfying_after)
        benefit += weight * probability * outcome.vio_reduction / denominator
    return benefit


class VOIEstimator:
    """Computes Eq. 6 group benefits from what-if statistics.

    Parameters
    ----------
    stats:
        A :class:`UpdateStatsProvider` — in production the live
        :class:`~repro.constraints.violations.ViolationDetector`.
    weights:
        Optional fixed rule-weight override; when omitted, weights are
        read from ``stats.weights()`` at every evaluation (the paper's
        ``w_i = |D(φ_i)|/|D|`` on the current instance).

    Examples
    --------
    See ``tests/core/test_voi.py::test_paper_worked_example`` for the
    §4.1 reproduction yielding exactly 1.05.
    """

    def __init__(
        self,
        stats: UpdateStatsProvider,
        weights: Mapping[CFD, float] | None = None,
    ) -> None:
        self._stats = stats
        self._fixed_weights = dict(weights) if weights is not None else None
        # (attribute, probe signature, value) -> (attr stats version,
        # Eq. 6 term list); valid while the attribute's rule statistics
        # hold still — reject/retain feedback and learner refits leave
        # them untouched, so most re-rankings reuse every term
        self._term_memo: dict[tuple, tuple[int, list[tuple[float, int, int]]]] = {}
        self._term_memo_hits = 0
        self._term_memo_misses = 0
        self._term_memo_clears = 0

    def _weights(self) -> Mapping[CFD, float]:
        if self._fixed_weights is not None:
            return self._fixed_weights
        return self._stats.weights()

    @property
    def term_memo_size(self) -> int:
        """Current occupancy of the persistent Eq. 6 term memo."""
        return len(self._term_memo)

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters for the persistent Eq. 6 term memo."""
        return {
            "term_memo_size": len(self._term_memo),
            "term_memo_capacity": _TERM_MEMO_CAPACITY,
            "term_memo_hits": self._term_memo_hits,
            "term_memo_misses": self._term_memo_misses,
            "term_memo_clears": self._term_memo_clears,
        }

    def update_benefit(
        self,
        update: CandidateUpdate,
        probability: float,
        weights: Mapping[CFD, float] | None = None,
    ) -> float:
        """The inner Eq. 6 term for a single update ``r_j``."""
        if weights is None:
            weights = self._weights()
        outcomes = self._stats.what_if(update.tid, update.attribute, update.value)
        return _benefit_from_outcomes(outcomes, probability, weights)

    def update_benefits_many(
        self,
        updates: Sequence[CandidateUpdate],
        probabilities: Sequence[float],
        weights: Mapping[CFD, float] | None = None,
    ) -> list[float]:
        """Eq. 6 terms for many updates, batching probes per cell.

        Updates targeting the same ``(tid, attribute)`` cell share one
        ``what_if_many`` call, so evaluating a whole candidate pool
        costs one partition-statistics pass per distinct cell instead of
        one apply/revert cycle per update.
        """
        caller_weights = weights
        if weights is None:
            weights = self._weights()
        what_if_many = getattr(self._stats, "what_if_many", None)
        if what_if_many is None:
            return [
                self.update_benefit(update, probability, weights)
                for update, probability in zip(updates, probabilities)
            ]
        moved_many = getattr(self._stats, "what_if_moved_many", None)
        if moved_many is None:
            benefits = [0.0] * len(updates)
            by_cell: dict[tuple[int, str], list[int]] = {}
            for i, update in enumerate(updates):
                by_cell.setdefault(update.cell, []).append(i)
            for (tid, attribute), indices in by_cell.items():
                outcome_maps = what_if_many(
                    tid, attribute, [updates[i].value for i in indices]
                )
                for i, outcomes in zip(indices, outcome_maps):
                    benefits[i] = _benefit_from_outcomes(outcomes, probabilities[i], weights)
            return benefits
        # Sparse fast path: only rules whose violation count would move
        # are reported; every omitted rule's term is exactly zero, so
        # the sum (same term expression, same rule order) is
        # byte-identical to the dense loop. Term lists are additionally
        # shared through the probe signature — tuples whose rows carry
        # identical codes at every probed column are indistinguishable
        # to the what-if arithmetic, so one term computation serves them
        # all. With provider-owned weights the memo persists across
        # calls, stamped by the attribute's stats version (terms only
        # depend on row codes — the signature — and rule statistics);
        # caller-supplied weight mappings get a call-scoped memo, since
        # baked-in weights would outlive them.
        probe_signature = getattr(self._stats, "probe_signature", None)
        stats_version = getattr(self._stats, "attr_stats_version", None)
        persistent = caller_weights is None and stats_version is not None
        if persistent and len(self._term_memo) > _TERM_MEMO_CAPACITY:
            self._term_memo.clear()
            self._term_memo_clears += 1
        term_memo = self._term_memo if persistent else {}
        attr_versions: dict[str, int] = {}
        weights_get = weights.get
        benefits = [0.0] * len(updates)
        terms_of: list[list[tuple[float, int, int]] | None] = [None] * len(updates)
        memo_keys: list[tuple | None] = [None] * len(updates)
        # pass 1: memo lookups; schedule one computation per distinct
        # memo key (followers resolve from the memo after pass 2)
        miss_by_cell: dict[tuple[int, str], list[int]] = {}
        scheduled: set[tuple] = set()
        for i, update in enumerate(updates):
            tid, attribute = update.cell
            if probe_signature is not None:
                memo_key = (attribute, probe_signature(tid, attribute), update.value)
                memo_keys[i] = memo_key
                if persistent:
                    version = attr_versions.get(attribute)
                    if version is None:
                        version = attr_versions[attribute] = stats_version(attribute)
                    entry = term_memo.get(memo_key)
                    if entry is not None and entry[0] == version:
                        self._term_memo_hits += 1
                        terms_of[i] = entry[1]
                        continue
                    self._term_memo_misses += 1
                else:
                    terms = term_memo.get(memo_key)
                    if terms is not None:
                        terms_of[i] = terms
                        continue
                if memo_key in scheduled:
                    continue  # a leader already computes this key
                scheduled.add(memo_key)
            miss_by_cell.setdefault(update.cell, []).append(i)
        # pass 2: one sparse probe per missed cell — all of a cell's
        # candidate values share the probe's per-cell setup, exactly
        # like the dense path's per-cell what_if_many batching. Each
        # cell's outcomes become terms before the next cell is probed,
        # so only one cell's outcome pairs are alive at a time.
        for (tid, attribute), indices in miss_by_cell.items():
            rows = self._term_rows(
                moved_many,
                tid,
                attribute,
                [updates[i].value for i in indices],
                weights_get,
            )
            for i, terms in zip(indices, rows):
                terms_of[i] = terms
                memo_key = memo_keys[i]
                if memo_key is not None:
                    if persistent:
                        term_memo[memo_key] = (attr_versions[memo_key[0]], terms)
                    else:
                        term_memo[memo_key] = terms
        # pass 3: Eq. 6 accumulation (followers read their leader's terms)
        for i, terms in enumerate(terms_of):
            if terms is None:
                entry = term_memo[memo_keys[i]]
                terms = entry[1] if persistent else entry
            probability = probabilities[i]
            benefit = 0.0
            for weight, reduction, denominator in terms:
                benefit += weight * probability * reduction / denominator
            benefits[i] = benefit
        return benefits

    @staticmethod
    def _term_rows(
        moved_many, tid: int, attribute: str, values, weights_get
    ) -> list[list[tuple[float, int, int]]]:
        """Per candidate, the nonzero Eq. 6 terms ``(w, red, denom)``.

        Rules with zero weight are dropped exactly where the dense loop
        ``continue``s; term order matches the outcome-map rule order.
        """
        rows: list[list[tuple[float, int, int]]] = []
        for pairs in moved_many(tid, attribute, values):
            terms: list[tuple[float, int, int]] = []
            for rule, outcome in pairs:
                weight = weights_get(rule, 0.0)
                if weight == 0.0:
                    continue
                terms.append((weight, outcome[3], max(1, outcome[2])))
            rows.append(terms)
        return rows

    def group_benefit(self, group: UpdateGroup, probability: ProbabilityFn) -> float:
        """``E[g(c)]`` of Eq. 6 for one group.

        Parameters
        ----------
        group:
            The update group ``c``.
        probability:
            Callable producing ``p̃_j`` per update (learner confirm
            probability, falling back to the update score).
        """
        benefits = self.update_benefits_many(
            group.updates, [probability(update) for update in group.updates]
        )
        return sum(benefits)

    def rank_groups(
        self,
        groups: list[UpdateGroup],
        probability: ProbabilityFn,
    ) -> list[tuple[UpdateGroup, float]]:
        """All groups with their benefits, most beneficial first.

        Every update across every group is evaluated through one batched
        pass (:meth:`update_benefits_many`); ties break toward larger
        groups, then lexicographic key, so the ranking is deterministic.
        """
        flat_updates: list[CandidateUpdate] = []
        spans: list[tuple[int, int]] = []
        for group in groups:
            start = len(flat_updates)
            flat_updates.extend(group.updates)
            spans.append((start, len(flat_updates)))
        benefits = self.update_benefits_many(
            flat_updates, [probability(update) for update in flat_updates]
        )
        scored = [
            (group, sum(benefits[start:end])) for group, (start, end) in zip(groups, spans)
        ]
        scored.sort(key=lambda pair: (-pair[1], -pair[0].size, *group_sort_key(pair[0].key)))
        return scored


class GroupBenefitCache:
    """Cached Eq. 6 group benefits over an incremental group index.

    The interactive loop used to re-score *every* group through the
    estimator each iteration — every member update costing a committee
    prediction (``p̃``) plus a what-if probe — even though one labelling
    session only perturbs a handful of groups. The cache re-scores a
    group only when something its benefit depends on provably moved:

    * **membership** — the group index's per-key version (suggestions
      added/removed/replaced);
    * **partition statistics** — the detector's per-attribute stats
      version (a rule touching the group's attribute re-evaluated,
      which also covers the rule weights ``w_i``);
    * **the learner** — the attribute committee's fit counter;
    * **rows** — any member tuple written since the last scoring
      (committee features read the row);
    * **instance size** — ``len(db)`` (the weight denominator).

    ``p̃`` values are additionally memoised per ``(cell, value, score)``
    against row/model versions, so re-scoring a group whose partition
    stats moved but whose rows and model did not costs only what-if
    arithmetic, no forest predictions.

    The partition-statistics stamp is backed by the detector's
    *per-rule* statistics versions (aggregated per attribute): a rule's
    version moves only when its observable statistics actually changed,
    so a write that re-evaluated rules without moving them — the common
    case on wide constant rule sets — invalidates nothing.

    Both memo structures are **bounded** for million-tuple instances:

    * the p̃ memo is an LRU capped at *prob_memo_capacity* entries
      (least-recently-used entries evicted on overflow);
    * the per-tuple row-version map is capped at
      *row_version_capacity*; overflowing it bumps a *generation*
      baked into every memo stamp, lazily invalidating the whole memo
      instead of letting version counters reset ambiguously.

    Hit/miss/eviction counters are exposed through :attr:`stats` and
    surfaced by the drain benchmark.

    Selection is a lazy max-heap ordered exactly like
    :meth:`VOIEstimator.rank_groups` — entries are pushed on every
    (re)scoring and validated against a per-key token on pop — so
    picking the top group costs O(stale · log G) instead of a full
    sort.
    """

    def __init__(
        self,
        estimator: VOIEstimator,
        index: GroupIndex,
        detector: ViolationDetector,
        db: Database,
        learner: FeedbackLearner | None = None,
        probability_many: Callable[[list[CandidateUpdate]], list[float]] | None = None,
        prob_memo_capacity: int = 1 << 20,
        row_version_capacity: int = 1 << 20,
    ) -> None:
        self._estimator = estimator
        self._index = index
        self._detector = detector
        self._db = db
        self._learner = learner
        # optional batched p̃ evaluator for memo misses (must agree
        # value-for-value with the scalar probability function)
        self._probability_many = probability_many
        self._cursor = index.dirty_cursor()
        self._benefit: dict[tuple[str, object], float] = {}
        # key -> (member version, attr stats version, model version, db size)
        self._stamp: dict[tuple[str, object], tuple[int, int, int, int]] = {}
        # lazy-heap bookkeeping: entry valid iff its token is current
        self._token: dict[tuple[str, object], int] = {}
        self._token_counter = 0
        self._heap: list[tuple] = []
        # row staleness: tuples written since the last refresh, and a
        # per-tuple write stamp guarding the p̃ memo. Stamps are drawn
        # from one monotonic write sequence (never per-tid counters), so
        # evicting and re-creating an entry can never reproduce an old
        # stamp; the generation covers the remaining hazard of a map
        # prune making absent tids read as stamp 0 again.
        self._written: set[int] = set()
        self._row_versions: dict[int, int] = {}
        self._write_seq = 0
        self._row_generation = 0
        self._row_version_capacity = max(1, int(row_version_capacity))
        # (tid, attribute, value, score) ->
        #     (generation, row stamp, model version, p̃); LRU-ordered
        self._prob_memo: dict[tuple, tuple[int, int, int, float]] = {}
        self._prob_memo_capacity = max(1, int(prob_memo_capacity))
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._generation_bumps = 0
        db.add_listener(self._on_db_change)

    def detach(self) -> None:
        """Stop listening to database writes."""
        self._db.remove_listener(self._on_db_change)

    def _on_db_change(self, change: CellChange) -> None:
        self._written.add(change.tid)
        self._write_seq += 1
        rows = self._row_versions
        rows[change.tid] = self._write_seq
        if len(rows) > self._row_version_capacity:
            # generation eviction: absent tids read as stamp 0, which
            # must not collide with memo entries recorded before the
            # prune — bumping the generation retires them all lazily
            rows.clear()
            self._row_generation += 1
            self._generation_bumps += 1

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters (p̃ memo and row-version map).

        ``prob_memo_hits`` / ``prob_memo_misses`` count memo lookups,
        ``prob_memo_evictions`` LRU evictions, ``row_generation_bumps``
        whole-memo invalidations from row-version map overflow; the
        ``*_size`` entries are current occupancies.
        """
        return {
            "prob_memo_hits": self._hits,
            "prob_memo_misses": self._misses,
            "prob_memo_evictions": self._evictions,
            "prob_memo_size": len(self._prob_memo),
            "row_versions_size": len(self._row_versions),
            "row_generation_bumps": self._generation_bumps,
        }

    # ------------------------------------------------------------------
    def _model_version(self, attribute: str) -> int:
        if self._learner is None:
            return 0
        return self._learner.model_version(attribute)

    def _probabilities(
        self, updates: list[CandidateUpdate], probability: ProbabilityFn
    ) -> list[float]:
        """Memoised ``p̃`` per update; misses evaluated in one batch.

        Hits are refreshed to the LRU tail; misses are filled through
        the batched evaluator and inserted under the capacity bound
        (evicting the least recently used entries on overflow).
        """
        memo = self._prob_memo
        generation = self._row_generation
        values: list[float | None] = [None] * len(updates)
        misses: list[int] = []
        miss_stamps: list[tuple[int, int]] = []
        row_version_of = self._row_versions.get
        model_versions: dict[str, int] = {}
        for i, update in enumerate(updates):
            memo_key = (update.tid, update.attribute, update.value, update.score)
            row_version = row_version_of(update.tid, 0)
            model_version = model_versions.get(update.attribute)
            if model_version is None:
                model_version = model_versions[update.attribute] = self._model_version(
                    update.attribute
                )
            hit = memo.get(memo_key)
            if (
                hit is not None
                and hit[0] == generation
                and hit[1] == row_version
                and hit[2] == model_version
            ):
                self._hits += 1
                values[i] = hit[3]
                # LRU touch: re-insert at the tail of the dict order
                del memo[memo_key]
                memo[memo_key] = hit
            else:
                self._misses += 1
                misses.append(i)
                miss_stamps.append((row_version, model_version))
        if misses:
            missed_updates = [updates[i] for i in misses]
            if self._probability_many is not None:
                fresh = self._probability_many(missed_updates)
            else:
                fresh = [probability(update) for update in missed_updates]
            capacity = self._prob_memo_capacity
            for i, (row_version, model_version), value in zip(misses, miss_stamps, fresh):
                update = updates[i]
                memo_key = (update.tid, update.attribute, update.value, update.score)
                if memo_key in memo:
                    del memo[memo_key]  # re-insert at the LRU tail
                elif len(memo) >= capacity:
                    memo.pop(next(iter(memo)))
                    self._evictions += 1
                memo[memo_key] = (generation, row_version, model_version, value)
                values[i] = value
        return values

    def _current_stamp(self, key: tuple[str, object]) -> tuple[int, int, int, int]:
        attribute = key[0]
        return (
            self._index.version(key),
            self._detector.attr_stats_version(attribute),
            self._model_version(attribute),
            len(self._db),
        )

    def refresh(self, probability: ProbabilityFn) -> int:
        """Re-score every group whose benefit inputs moved.

        Returns the number of groups re-scored. All stale groups are
        evaluated through one batched
        :meth:`VOIEstimator.update_benefits_many` pass, preserving the
        per-cell probe batching of the full ranking.
        """
        index = self._index
        stale = index.poll_dirty_keys(self._cursor)
        if self._written:
            for tid in self._written:
                stale.update(index.keys_for_tid(tid))
            self._written.clear()
        live = index.keys()
        live_set = set(live)
        # drop cache rows for groups that emptied
        for key in [k for k in self._benefit if k not in live_set]:
            del self._benefit[key]
            del self._stamp[key]
            self._token.pop(key, None)
        stamps = {}
        for key in live:
            if key in stale:
                continue
            stamp = self._current_stamp(key)
            if self._stamp.get(key) != stamp:
                stale.add(key)
            else:
                continue
            stamps[key] = stamp
        stale &= live_set
        # the ungrouped pseudo-group spans attributes; its versions are
        # not meaningful, so it is always re-scored
        for key in live:
            if key[0] == "*":
                stale.add(key)
        if not stale:
            return 0
        groups = [index.group(key) for key in sorted(stale, key=group_sort_key)]
        flat: list[CandidateUpdate] = []
        spans: list[tuple[int, int]] = []
        for group in groups:
            start = len(flat)
            flat.extend(group.updates)
            spans.append((start, len(flat)))
        probabilities = self._probabilities(flat, probability)
        benefits = self._estimator.update_benefits_many(flat, probabilities)
        for group, (start, end) in zip(groups, spans):
            key = group.key
            benefit = sum(benefits[start:end])
            self._benefit[key] = benefit
            self._stamp[key] = stamps.get(key) or self._current_stamp(key)
            self._token_counter += 1
            self._token[key] = self._token_counter
            heapq.heappush(
                self._heap,
                (-benefit, -group.size, group_sort_key(key), self._token_counter, key),
            )
        # bound heap growth from repeated re-scorings
        if len(self._heap) > 4 * max(16, len(live)):
            self._heap = [
                entry for entry in self._heap if self._token.get(entry[4]) == entry[3]
            ]
            heapq.heapify(self._heap)
        return len(groups)

    def invalidate(self) -> None:
        """Drop every cached benefit, stamp and memoised ``p̃``.

        The recovery action when the invariant guard finds a cached
        benefit diverging from the Eq. 6 reference while its stamp
        still reads current: the next :meth:`refresh` re-scores every
        live group from scratch. Counters are kept.
        """
        self._benefit.clear()
        self._stamp.clear()
        self._token.clear()
        self._heap.clear()
        self._prob_memo.clear()
        self._written.clear()
        self._row_versions.clear()
        self._row_generation += 1
        # mark every live key dirty for the next refresh
        self._index.poll_dirty_keys(self._cursor)

    def top(self, probability: ProbabilityFn) -> tuple[UpdateGroup, float] | None:
        """The most beneficial group and its benefit (``None`` if empty).

        Ordered exactly like :meth:`VOIEstimator.rank_groups`[0]:
        highest benefit, ties toward larger groups, then the
        type-aware key order.
        """
        self.refresh(probability)
        heap = self._heap
        while heap:
            entry = heap[0]
            key = entry[4]
            if self._token.get(key) != entry[3]:
                heapq.heappop(heap)  # superseded or vanished
                continue
            return self._index.group(key), self._benefit[key]
        return None

    def rank_all(self, probability: ProbabilityFn) -> list[tuple[UpdateGroup, float]]:
        """All groups with benefits, ordered like ``rank_groups``.

        Primarily for parity testing the cache against the
        rebuild-from-scratch ranking.
        """
        self.refresh(probability)
        scored = [(self._index.group(key), self._benefit[key]) for key in self._index.keys()]
        scored.sort(key=lambda pair: (-pair[1], -pair[0].size, *group_sort_key(pair[0].key)))
        return scored
