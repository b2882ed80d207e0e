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

The interactive loop ranks through :class:`GroupBenefitCache`, which
re-scores only stale groups: per-key local what-if deltas live in a
:class:`DeltaKeyCache` and are recombined with the current rule weights
and satisfying counts in one NumPy pass; :meth:`VOIEstimator.rank_groups`
stays the cache-free reference.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Mapping, Sequence
from typing import Protocol

import numpy as np

from repro.constraints.cfd import CFD
from repro.constraints.violations import ViolationDetector, WhatIfOutcome
from repro.core.grouping import GroupIndex, UpdateGroup, group_sort_key
from repro.core.learner import FeedbackLearner
from repro.db.changelog import CellChange
from repro.db.database import Database
from repro.repair.candidate import CandidateUpdate

__all__ = ["DeltaKeyCache", "GroupBenefitCache", "UpdateStatsProvider", "VOIEstimator"]

#: Maps an update to its confirm probability ``p̃``.
ProbabilityFn = Callable[[CandidateUpdate], float]


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


#: Partition tick stored for keys whose outcome read no partition.
_NO_PARTITIONS = np.iinfo(np.int64).max


class DeltaKeyCache:
    """Local what-if deltas per probe key, recombined in one NumPy pass.

    A *probe key* is ``(attribute, probe signature, value)``: every
    update whose tuple carries the same codes at every column a probe
    on the attribute reads, proposing the same value, has the same
    what-if outcome. Each outcome splits into

    * a **local** part stored per key — per moved rule ``(rule index,
      vio_reduction, d)`` with ``satisfying_after = S_i + d``;
    * a **global** part read fresh at every scoring — the per-rule
      weights ``w_i`` and satisfying counts ``S_i = |D ⊨ φ_i|``.

    A key's local part only goes stale when what it read moved:
    constant-rule deltas are a pure function of the key; variable-rule
    deltas also read the tuple's own LHS partition and the candidate's
    destination partition, recorded at probe time and checked against
    the detector's per-partition versions; a detector rebuild
    (``rebuild_epoch``) retires every key.

    The table holds at most *capacity* keys and is cleared wholesale
    before an insert that would overflow it (``generation`` moves, so
    callers holding key ids learn they are void).
    """

    def __init__(self, detector: ViolationDetector, capacity: int = 1 << 20) -> None:
        self._detector = detector
        self._capacity = max(1, int(capacity))
        self.generation = 0
        self._ids: dict[tuple, int] = {}
        # per key id: the key, the rebuild epoch it was probed at (-1:
        # never), the partition tick it was last known current at, and
        # the variable-rule partitions its outcome read
        self._keys: list[tuple] = []
        self._epoch = np.empty(0, dtype=np.int64)
        self._tick = np.empty(0, dtype=np.int64)
        self._reads: list = []
        # per key id, padded term rows: rule index, vio_reduction, d
        # (padding reads rule 0 with reduction 0: an exact +0.0 term)
        self._count = np.empty(0, dtype=np.int64)
        self._rule = np.zeros((0, 1), dtype=np.int64)
        self._reduction = np.zeros((0, 1), dtype=np.int64)
        self._delta = np.zeros((0, 1), dtype=np.int64)
        self._rule_index = {rule: i for i, rule in enumerate(detector.rule_counts()[0])}
        self.hits = 0
        self.clears = 0
        self.reprobes = {"new": 0, "moved": 0, "rebuild": 0}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def stats(self) -> dict[str, int]:
        """Occupancy, current-key hits, clears and re-probes by cause."""
        return {
            "key_table_size": len(self._keys),
            "key_table_capacity": self._capacity,
            "key_table_hits": self.hits,
            "key_table_clears": self.clears,
            "key_reprobes_new": self.reprobes["new"],
            "key_reprobes_moved": self.reprobes["moved"],
            "key_reprobes_rebuild": self.reprobes["rebuild"],
        }

    def clear(self) -> None:
        """Drop every key; ids handed out before become void."""
        self._ids.clear()
        self._keys.clear()
        self._reads.clear()
        self.generation += 1
        self.clears += 1

    # ------------------------------------------------------------------
    def _keys_of(self, updates: list[CandidateUpdate]) -> list[tuple]:
        """Probe keys of *updates*, one signature gather per attribute."""
        by_attribute: dict[str, list[int]] = {}
        for i, update in enumerate(updates):
            by_attribute.setdefault(update.attribute, []).append(i)
        keys: list = [None] * len(updates)
        for attribute, indices in by_attribute.items():
            signatures = self._detector.probe_signatures(
                [updates[i].tid for i in indices], attribute
            )
            for i, signature in zip(indices, signatures):
                keys[i] = (attribute, signature, updates[i].value)
        return keys

    def resolve(
        self, batches: list[tuple[list[CandidateUpdate], np.ndarray | None]]
    ) -> list[np.ndarray] | None:
        """Key ids for every batch of updates.

        A batch arrives with the ids resolved for it earlier (valid only
        for the current :attr:`generation`) or ``None``. New keys are
        inserted; when they would overflow the capacity the table is
        cleared first and every batch resolved afresh. Returns ``None``
        when the batches alone hold more distinct keys than the
        capacity — the caller then scores them without the table.
        """
        keyed = [None if ids is not None else self._keys_of(updates) for updates, ids in batches]
        known = self._ids
        fresh = {k for keys in keyed if keys is not None for k in keys if k not in known}
        if len(known) + len(fresh) > self._capacity:
            self.clear()
            keyed = [
                keys if keys is not None else self._keys_of(updates)
                for keys, (updates, __) in zip(keyed, batches)
            ]
            fresh = {k for keys in keyed for k in keys}
            if len(fresh) > self._capacity:
                return None
        for key in fresh:
            self._insert(key)
        return [
            ids if keys is None else np.fromiter((known[k] for k in keys), np.int64, len(keys))
            for keys, (__, ids) in zip(keyed, batches)
        ]

    def _insert(self, key: tuple) -> None:
        key_id = len(self._keys)
        self._ids[key] = key_id
        self._keys.append(key)
        self._reads.append(())
        if key_id >= len(self._epoch):
            self._grow(max(64, 2 * key_id), self._rule.shape[1])
        self._epoch[key_id] = -1

    def _grow(self, rows: int, width: int) -> None:
        old = len(self._epoch)
        self._epoch = np.resize(self._epoch, rows)
        self._tick = np.resize(self._tick, rows)
        self._count = np.resize(self._count, rows)
        grown = []
        for table in (self._rule, self._reduction, self._delta):
            wider = np.zeros((rows, width), dtype=np.int64)
            wider[: min(old, rows), : table.shape[1]] = table[: min(old, rows)]
            grown.append(wider)
        self._rule, self._reduction, self._delta = grown

    # ------------------------------------------------------------------
    def benefits(
        self,
        ids: np.ndarray,
        updates: list[CandidateUpdate],
        probabilities: np.ndarray,
        weights: Mapping[CFD, float],
    ) -> list[float]:
        """Eq. 6 terms of *updates* (whose key ids are *ids*).

        Re-probes the stale keys among *ids* first, then evaluates
        ``w·p·red / max(1, S + d)`` elementwise in float64 and folds
        each update's terms left to right from ``0.0`` — bit for bit
        the arithmetic of the scalar loop, in the same rule order.
        """
        if not len(ids):
            return []
        rules, __, satisfying = self._detector.rule_counts()
        self._refresh_keys(ids, updates, satisfying.tolist())
        weight = np.array([weights.get(rule, 0.0) for rule in rules], dtype=np.float64)
        width = int(self._count[ids].max())
        total = np.zeros(len(ids), dtype=np.float64)
        for column in range(width):
            rule = self._rule[ids, column]
            total += (
                weight[rule]
                * probabilities
                * self._reduction[ids, column]
                / np.maximum(1, satisfying[rule] + self._delta[ids, column])
            )
        return total.tolist()

    def _refresh_keys(
        self, ids: np.ndarray, updates: list[CandidateUpdate], satisfying: list[int]
    ) -> None:
        """Re-probe every key in *ids* whose local part is stale."""
        detector = self._detector
        epoch = detector.rebuild_epoch
        tick = detector.partition_tick
        used, first = np.unique(ids, return_index=True)
        probed_at = self._epoch[used]
        current = probed_at == epoch
        # keys that read no partition stay current until a rebuild; the
        # others are checked once per partition movement
        check = used[current & (self._tick[used] < tick)]
        moved = []
        reads = self._reads
        ticks = self._tick
        for key_id in check.tolist():
            if detector.partitions_moved(reads[key_id], int(ticks[key_id])):
                moved.append(key_id)
            else:
                ticks[key_id] = tick
        self.hits += int(current.sum()) - len(moved)
        stale = used[~current]
        if not len(stale) and not moved:
            return
        new = int((probed_at < 0).sum())
        self.reprobes["new"] += new
        self.reprobes["rebuild"] += len(stale) - new
        self.reprobes["moved"] += len(moved)
        first_of = dict(zip(used.tolist(), first.tolist()))
        # one probe per (attribute, signature): every stale value of a
        # signature shares the probe's per-cell setup
        by_signature: dict[tuple, tuple[int, list[int]]] = {}
        for key_id in stale.tolist() + moved:
            attribute, signature, __ = self._keys[key_id]
            entry = by_signature.get((attribute, signature))
            if entry is None:
                tid = updates[first_of[key_id]].tid
                by_signature[(attribute, signature)] = (tid, [key_id])
            else:
                entry[1].append(key_id)
        rule_index = self._rule_index
        for (attribute, __), (tid, key_ids) in by_signature.items():
            probe_reads: list = []
            rows = detector.what_if_moved_many(
                tid, attribute, [self._keys[k][2] for k in key_ids], probe_reads
            )
            for key_id, pairs, read in zip(key_ids, rows, probe_reads):
                terms = [
                    (i, outcome[3], outcome[2] - satisfying[i])
                    for i, outcome in ((rule_index[rule], outcome) for rule, outcome in pairs)
                ]
                self._store(key_id, terms, read, epoch, tick)

    def _store(self, key_id: int, terms: list, read, epoch: int, tick: int) -> None:
        width = len(terms)
        if width > self._rule.shape[1]:
            self._grow(len(self._epoch), width)
        self._rule[key_id] = 0
        self._reduction[key_id] = 0
        self._delta[key_id] = 0
        for column, (rule, reduction, delta) in enumerate(terms):
            self._rule[key_id, column] = rule
            self._reduction[key_id, column] = reduction
            self._delta[key_id, column] = delta
        self._count[key_id] = width
        self._epoch[key_id] = epoch
        # a key reading no partition never needs a movement check
        self._tick[key_id] = tick if read else _NO_PARTITIONS
        self._reads[key_id] = tuple(read)


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
    key_capacity:
        Bound of the :class:`DeltaKeyCache` the cached ranking scores
        through (built when *stats* is a
        :class:`~repro.constraints.violations.ViolationDetector`).

    Examples
    --------
    See ``tests/core/test_voi.py::test_paper_worked_example`` for the
    §4.1 reproduction yielding exactly 1.05.
    """

    def __init__(
        self,
        stats: UpdateStatsProvider,
        weights: Mapping[CFD, float] | None = None,
        key_capacity: int = 1 << 20,
    ) -> None:
        self._stats = stats
        self._fixed_weights = dict(weights) if weights is not None else None
        self.deltas = (
            DeltaKeyCache(stats, key_capacity) if isinstance(stats, ViolationDetector) else None
        )

    def weights(self) -> Mapping[CFD, float]:
        """The rule weights ``w_i`` an evaluation uses now."""
        if self._fixed_weights is not None:
            return self._fixed_weights
        return self._stats.weights()

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters of the key table (empty without one)."""
        return self.deltas.stats if self.deltas is not None else {}

    def update_benefit(
        self,
        update: CandidateUpdate,
        probability: float,
        weights: Mapping[CFD, float] | None = None,
    ) -> float:
        """The inner Eq. 6 term for a single update ``r_j``."""
        if weights is None:
            weights = self.weights()
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
        one apply/revert cycle per update. Nothing is cached across
        calls: this is the reference the cached ranking is checked
        against.
        """
        if weights is None:
            weights = self.weights()
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
        # Sparse path: only rules whose violation count would move are
        # reported; every omitted rule's term is exactly zero, so the
        # sum (same term expression, same rule order) is byte-identical
        # to the dense loop. Within the call, updates sharing a probe
        # key (attribute, probe signature, value) share one term list.
        probe_signature = getattr(self._stats, "probe_signature", None)
        weights_get = weights.get
        terms_of: list[list[tuple[float, int, int]] | None] = [None] * len(updates)
        leaders: dict[tuple, int] = {}
        followers: list[tuple[int, int]] = []
        miss_by_cell: dict[tuple[int, str], list[int]] = {}
        for i, update in enumerate(updates):
            tid, attribute = update.cell
            if probe_signature is not None:
                key = (attribute, probe_signature(tid, attribute), update.value)
                leader = leaders.get(key)
                if leader is not None:
                    followers.append((i, leader))
                    continue
                leaders[key] = i
            miss_by_cell.setdefault(update.cell, []).append(i)
        # one sparse probe per cell: all of a cell's candidate values
        # share the probe's per-cell setup
        for (tid, attribute), indices in miss_by_cell.items():
            rows = moved_many(tid, attribute, [updates[i].value for i in indices])
            for i, pairs in zip(indices, rows):
                terms: list[tuple[float, int, int]] = []
                for rule, outcome in pairs:
                    weight = weights_get(rule, 0.0)
                    if weight == 0.0:
                        continue
                    terms.append((weight, outcome[3], max(1, outcome[2])))
                terms_of[i] = terms
        for i, leader in followers:
            terms_of[i] = terms_of[leader]
        benefits = [0.0] * len(updates)
        for i, terms in enumerate(terms_of):
            probability = probabilities[i]
            benefit = 0.0
            for weight, reduction, denominator in terms:
                benefit += weight * probability * reduction / denominator
            benefits[i] = benefit
        return benefits

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

    Re-scoring a stale group costs NumPy arithmetic, not per-update
    Python, wherever its inputs held still:

    * **key ids** — each member's probe key id in the estimator's
      :class:`DeltaKeyCache` is kept per group while its membership,
      its member rows and the key table's generation hold still; the
      table re-probes only keys whose local deltas went stale, and the
      Eq. 6 terms of all stale updates are recombined with the current
      weights in one vectorised pass;
    * **p̃ vectors** — a group whose membership version, committee
      version and row generation are unchanged, and none of whose
      member tuples was written, reuses its stored ``p̃`` vector
      without a single memo lookup (the common case: only the rule
      statistics moved). Every other group's updates go through the
      per-update ``(tid, attribute, value, score)`` memo in stale-group
      order, and the misses are filled by one batched evaluator call —
      the same calls, in the same order, as a memo lookup for every
      update would make, so the learner encoder meets never-seen values
      in an unchanged order.

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

    Hit/miss/eviction counters and per-refresh re-scoring counts are
    exposed through :attr:`stats`.

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
        # per group: ((member version, key-table generation), key ids)
        # and ((member version, model version, row generation), p̃)
        self._group_ids: dict[tuple[str, object], tuple[tuple[int, int], np.ndarray]] = {}
        self._group_probs: dict[
            tuple[str, object], tuple[tuple[int, int, int], np.ndarray]
        ] = {}
        self._refreshes = 0
        self._groups_rescored = 0
        self._updates_rescored = 0
        self._prob_vectors_reused = 0
        self._last = (0, 0, 0)
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
        """Cache-health counters (p̃ memo, row-version map, refreshes).

        ``prob_memo_hits`` / ``prob_memo_misses`` count memo lookups
        (groups reusing a stored p̃ vector make none),
        ``prob_memo_evictions`` LRU evictions, ``row_generation_bumps``
        whole-memo invalidations from row-version map overflow; the
        ``*_size`` entries are current occupancies. ``refreshes``,
        ``groups_rescored``, ``updates_rescored`` and
        ``prob_vectors_reused`` total the refreshes that re-scored
        anything; the ``last_*`` entries are the latest such refresh's.
        """
        return {
            "prob_memo_hits": self._hits,
            "prob_memo_misses": self._misses,
            "prob_memo_evictions": self._evictions,
            "prob_memo_size": len(self._prob_memo),
            "row_versions_size": len(self._row_versions),
            "row_generation_bumps": self._generation_bumps,
            "refreshes": self._refreshes,
            "groups_rescored": self._groups_rescored,
            "updates_rescored": self._updates_rescored,
            "prob_vectors_reused": self._prob_vectors_reused,
            "last_groups_rescored": self._last[0],
            "last_updates_rescored": self._last[1],
            "last_prob_vectors_reused": self._last[2],
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

        Returns the number of groups re-scored. The stale groups' Eq. 6
        terms come from one :meth:`DeltaKeyCache.benefits` pass (or,
        over a provider without probe keys, one
        :meth:`VOIEstimator.update_benefits_many` pass).
        """
        index = self._index
        stale = index.poll_dirty_keys(self._cursor)
        written: set[tuple[str, object]] = set()
        if self._written:
            for tid in self._written:
                written.update(index.keys_for_tid(tid))
            stale |= written
            self._written.clear()
        live = index.keys()
        live_set = set(live)
        # drop cache rows for groups that emptied
        for key in [k for k in self._benefit if k not in live_set]:
            del self._benefit[key]
            del self._stamp[key]
            self._token.pop(key, None)
            self._group_ids.pop(key, None)
            self._group_probs.pop(key, None)
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
        probabilities, reused = self._group_probabilities(groups, written, probability)
        deltas = self._estimator.deltas
        ids = None
        if deltas is not None:
            ids = self._key_ids(deltas, groups, written)
        if ids is None:
            benefits = self._estimator.update_benefits_many(flat, probabilities.tolist())
        else:
            benefits = deltas.benefits(ids, flat, probabilities, self._estimator.weights())
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
        self._refreshes += 1
        self._groups_rescored += len(groups)
        self._updates_rescored += len(flat)
        self._prob_vectors_reused += reused
        self._last = (len(groups), len(flat), reused)
        return len(groups)

    def _group_probabilities(
        self,
        groups: list[UpdateGroup],
        written: set[tuple[str, object]],
        probability: ProbabilityFn,
    ) -> tuple[np.ndarray, int]:
        """``p̃`` of every member of *groups*, flattened in group order,
        and the number of groups whose stored vector was reused.

        Reuses a group's stored vector when the reuse rule holds (see
        the class docstring); all other members go through the memo in
        one :meth:`_probabilities` call.
        """
        index = self._index
        generation = self._row_generation
        parts: list[np.ndarray | None] = []
        stamps: list[tuple[int, int, int] | None] = []
        pending: list[CandidateUpdate] = []
        reused = 0
        for group in groups:
            key = group.key
            stamp = None
            if key[0] != "*":
                stamp = (index.version(key), self._model_version(key[0]), generation)
                stored = self._group_probs.get(key)
                if stored is not None and stored[0] == stamp and key not in written:
                    parts.append(stored[1])
                    stamps.append(None)
                    reused += 1
                    continue
            parts.append(None)
            stamps.append(stamp)
            pending.extend(group.updates)
        fresh = np.array(self._probabilities(pending, probability), dtype=np.float64)
        offset = 0
        for i, group in enumerate(groups):
            if parts[i] is not None:
                continue
            size = len(group.updates)
            # a copy, so a stored vector never pins the whole batch
            part = parts[i] = fresh[offset : offset + size].copy()
            offset += size
            if stamps[i] is not None:
                self._group_probs[group.key] = (stamps[i], part)
        return np.concatenate(parts), reused

    def _key_ids(
        self,
        deltas: DeltaKeyCache,
        groups: list[UpdateGroup],
        written: set[tuple[str, object]],
    ) -> np.ndarray | None:
        """Probe key ids of every member of *groups*, flattened in order.

        A group's ids are kept while its membership and member rows
        (hence their probe signatures) and the table generation hold
        still. ``None`` when the stale updates hold more distinct keys
        than the table may.
        """
        index = self._index
        generation = deltas.generation
        batches = []
        for group in groups:
            key = group.key
            stored = self._group_ids.get(key)
            ids = None
            if (
                stored is not None
                and stored[0] == (index.version(key), generation)
                and key not in written
            ):
                ids = stored[1]
            batches.append((group.updates, ids))
        resolved = deltas.resolve(batches)
        if resolved is None:
            return None
        generation = deltas.generation
        for group, ids in zip(groups, resolved):
            self._group_ids[group.key] = ((index.version(group.key), generation), ids)
        return np.concatenate(resolved)

    def invalidate(self) -> None:
        """Drop every cached benefit, stamp, key and memoised ``p̃``.

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
        self._group_ids.clear()
        self._group_probs.clear()
        if self._estimator.deltas is not None:
            self._estimator.deltas.clear()
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
