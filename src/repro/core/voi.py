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
_NO_PARTITIONS = np.iinfo(np.int32).max

#: Partition id padding the read table: the detector's sentinel, whose
#: version never moves.
_NO_PARTITION_ID = 0


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each element of ragged rows *lengths* long,
    laid end to end."""
    row = np.repeat(np.arange(len(lengths)), lengths)
    return row, np.arange(len(row)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


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

    A key's local part only goes stale when what it read moved. Its
    constant-rule terms (the first ``head`` columns, in plan order) are
    a pure function of the key; its variable-rule terms (the tail) also
    read the tuple's own LHS partition and the candidate's destination
    partition. The ids of those partitions are stored per key in a
    padded table, and one NumPy pass compares them with the detector's
    :attr:`~repro.constraints.violations.ViolationDetector.partition_versions`:
    a key whose partition moved after its tick keeps its head and
    re-probes only its tail. A detector rebuild (``rebuild_epoch``)
    retires every key, head included. A refresh re-probes through at
    most two batched detector calls (signatures holding a stale key
    whole, the others tail only) and writes the terms back with one
    fancy-index store per table.

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
        # the ids of the variable-rule partitions its outcome read
        # (padded with the never-moving sentinel)
        self._keys: list[tuple] = []
        self._epoch = np.empty(0, dtype=np.int32)
        self._tick = np.empty(0, dtype=np.int32)
        self._pids = np.zeros((0, 1), dtype=np.int32)
        # per key id, padded term rows: rule index, vio_reduction, d
        # (padding reads rule 0 with reduction 0: an exact +0.0 term),
        # the term count and how many leading terms are constant-rule.
        # Every table is int32: a reduction or d is bounded by twice a
        # partition's size, and each term promotes to int64/float64
        # before any arithmetic, so the Eq. 6 sums are those of int64
        self._count = np.empty(0, dtype=np.int32)
        self._head = np.empty(0, dtype=np.int32)
        self._rule = np.zeros((0, 1), dtype=np.int32)
        self._reduction = np.zeros((0, 1), dtype=np.int32)
        self._delta = np.zeros((0, 1), dtype=np.int32)
        rules = detector.rule_counts()[0]
        self._rule_index = {rule: i for i, rule in enumerate(rules)}
        self._variable = np.array([not rule.is_constant for rule in rules], dtype=bool)
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
        self.generation += 1
        self.clears += 1

    # ------------------------------------------------------------------
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
        keyed: list = [None] * len(batches)
        self._fill_keys(keyed, batches, [i for i, (__, ids) in enumerate(batches) if ids is None])
        known = self._ids
        fresh = {k for keys in keyed if keys is not None for k in keys if k not in known}
        if len(known) + len(fresh) > self._capacity:
            self.clear()
            self._fill_keys(keyed, batches, [i for i, keys in enumerate(keyed) if keys is None])
            fresh = {k for keys in keyed for k in keys}
            if len(fresh) > self._capacity:
                return None
        for key in fresh:
            self._insert(key)
        return [
            ids if keys is None else np.fromiter((known[k] for k in keys), np.int64, len(keys))
            for keys, (__, ids) in zip(keyed, batches)
        ]

    def _fill_keys(self, keyed: list, batches: list, todo: list[int]) -> None:
        """Set ``keyed[i]`` to the probe keys of batch *i* for each *i*
        in *todo*, with one signature gather per attribute over all of
        them."""
        flat = [update for i in todo for update in batches[i][0]]
        by_attribute: dict[str, list[int]] = {}
        for k, update in enumerate(flat):
            by_attribute.setdefault(update.attribute, []).append(k)
        keys: list = [None] * len(flat)
        for attribute, indices in by_attribute.items():
            signatures = self._detector.probe_signatures([flat[k].tid for k in indices], attribute)
            for k, signature in zip(indices, signatures):
                keys[k] = (attribute, signature, flat[k].value)
        offset = 0
        for i in todo:
            size = len(batches[i][0])
            keyed[i] = keys[offset : offset + size]
            offset += size

    def _insert(self, key: tuple) -> None:
        key_id = len(self._keys)
        self._ids[key] = key_id
        self._keys.append(key)
        if key_id >= len(self._epoch):
            self._grow(max(64, 2 * key_id))
        self._epoch[key_id] = -1

    def _grow(self, rows: int, width: int = 0, read_width: int = 0) -> None:
        """Resize to *rows* key rows, widening the term tables to at
        least *width* columns and the read table to *read_width*."""
        old = len(self._epoch)
        keep = min(old, rows)
        for name in ("_epoch", "_tick", "_count", "_head"):
            setattr(self, name, np.resize(getattr(self, name), rows))
        for name, least in (
            ("_rule", width),
            ("_reduction", width),
            ("_delta", width),
            ("_pids", read_width),
        ):
            table = getattr(self, name)
            wider = np.zeros((rows, max(least, table.shape[1])), dtype=np.int32)
            wider[:keep, : table.shape[1]] = table[:keep]
            setattr(self, name, wider)

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
        self._refresh_keys(ids, updates, satisfying)
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

    def moved(self, key_ids: np.ndarray) -> np.ndarray:
        """Boolean mask over *key_ids*: a partition the key's outcome
        read changed after the key's tick (one pass over the read table)."""
        versions = self._detector.partition_versions
        return (versions[self._pids[key_ids]] > self._tick[key_ids, None]).any(axis=1)

    def _refresh_keys(
        self, ids: np.ndarray, updates: list[CandidateUpdate], satisfying: np.ndarray
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
        moved = check
        if len(check):
            hit = self.moved(check)
            self._tick[check[~hit]] = tick
            moved = check[hit]
        self.hits += int(current.sum()) - len(moved)
        stale = used[~current]
        if not len(stale) and not len(moved):
            return
        new = int((probed_at < 0).sum())
        self.reprobes["new"] += new
        self.reprobes["rebuild"] += len(stale) - new
        self.reprobes["moved"] += len(moved)
        # one probe per (attribute, signature): every value of a
        # signature shares the probe's per-cell setup
        reprobe = np.concatenate((stale, moved))
        leads = first[np.searchsorted(used, reprobe)].tolist()
        by_signature: dict[tuple, tuple[int, list[int], list]] = {}
        for key_id, lead in zip(reprobe.tolist(), leads):
            attribute, signature, value = self._keys[key_id]
            entry = by_signature.get((attribute, signature))
            if entry is None:
                entry = by_signature[(attribute, signature)] = (updates[lead].tid, [], [])
            entry[1].append(key_id)
            entry[2].append(value)
        # a signature with a stale key re-probes whole; one whose keys
        # all moved keeps their constant heads and re-probes only the
        # variable-rule tails (stale keys lead their entries)
        stale_ids = set(stale.tolist())
        whole, tails = [], []
        for entry in by_signature.values():
            (whole if entry[1][0] in stale_ids else tails).append(entry)
        probed: list[int] = []
        starts: list[int] = []
        lengths: list[int] = []
        terms: list[tuple] = []
        read_lengths: list[int] = []
        read_ids: list[int] = []
        rule_index = self._rule_index
        head = self._head
        for entries, variable_only in ((whole, False), (tails, True)):
            if not entries:
                continue
            reads: list = []
            rows = detector.what_if_moved_many_cells(
                [(tid, self._keys[key_ids[0]][0], values) for tid, key_ids, values in entries],
                reads,
                variable_only=variable_only,
            )
            for (__, key_ids, __), cell_rows, cell_reads in zip(entries, rows, reads):
                for key_id, pairs, pids in zip(key_ids, cell_rows, cell_reads):
                    probed.append(key_id)
                    starts.append(int(head[key_id]) if variable_only else 0)
                    lengths.append(len(pairs))
                    terms.extend((rule_index[rule], outcome[3], outcome[2]) for rule, outcome in pairs)
                    read_lengths.append(len(pids))
                    read_ids.extend(pids)
        self._write(probed, starts, lengths, terms, read_lengths, read_ids, satisfying, epoch, tick)

    def _write(
        self,
        probed: list[int],
        starts: list[int],
        lengths: list[int],
        terms: list[tuple],
        read_lengths: list[int],
        read_ids: list[int],
        satisfying: np.ndarray,
        epoch: int,
        tick: int,
    ) -> None:
        """Write the re-probed keys' terms (from each key's start
        column on) and partition reads with one fancy-index store per
        table."""
        keys = np.array(probed, dtype=np.int64)
        start = np.array(starts, dtype=np.int64)
        length = np.array(lengths, dtype=np.int64)
        n_reads = np.array(read_lengths, dtype=np.int64)
        count = start + length
        width, read_width = int(count.max()), int(n_reads.max())
        if width > self._rule.shape[1] or read_width > self._pids.shape[1]:
            self._grow(len(self._epoch), width, read_width)
        # padding from each key's start column on (a kept head stays)
        tail = np.arange(self._rule.shape[1]) >= start[:, None]
        for table in (self._rule, self._reduction, self._delta):
            table[keys] = np.where(tail, 0, table[keys])
        constant = np.zeros(len(keys), dtype=np.int64)
        if terms:
            rule, reduction, satisfying_after = np.array(terms, dtype=np.int64).T
            owner, column = _ragged(length)
            rows, column = keys[owner], column + start[owner]
            self._rule[rows, column] = rule
            self._reduction[rows, column] = reduction
            self._delta[rows, column] = satisfying_after - satisfying[rule]
            constant = np.bincount(owner[~self._variable[rule]], minlength=len(keys))
        # a tail re-probe starts at the kept head and reports no
        # constant-rule term, so the head stays
        self._head[keys] = start + constant
        self._count[keys] = count
        self._epoch[keys] = epoch
        self._pids[keys] = _NO_PARTITION_ID
        if read_ids:
            owner, column = _ragged(n_reads)
            self._pids[keys[owner], column] = read_ids
        # a key reading no partition never needs a movement check
        self._tick[keys] = np.where(n_reads > 0, tick, _NO_PARTITIONS)


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


class _GroupProbs:
    """One group's stored ``p̃`` vector and what it was computed from.

    Per member, in the group's order: tid, score and row write stamp
    at prediction time. ``models`` is the committee version the vector
    was predicted under; the ungrouped pseudo-group spans attributes, so
    there it is an array of per-member versions and ``scores`` is
    ``None``. ``version`` is the group's membership version.

    ``encodings`` (float64, one row per member) holds each member's
    encoding of its suggested value for the committee: the learner
    code, ``-1`` where the member has not been encoded (it was last
    scored from the prior), and the similarity feature — 16 bytes a
    member. An encoding stays exact for as long as the member's row
    stamp holds still, whatever the committee does.
    """

    __slots__ = (
        "version", "members", "tids", "scores", "models", "stamps", "probs", "encodings"
    )

    def __init__(
        self, version, members, tids, scores, models, stamps, probs, encodings
    ) -> None:
        self.version = version
        self.members = members
        self.tids = tids
        self.scores = scores
        self.models = models
        self.stamps = stamps
        self.probs = probs
        self.encodings = encodings

    def match(self, tids: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Stored position of each ``(tid, score)`` member, ``-1`` if absent.

        Both tid arrays are sorted (a keyed group holds one update per
        tuple, ordered by cell).
        """
        at = np.minimum(np.searchsorted(self.tids, tids), len(self.tids) - 1)
        found = (self.tids[at] == tids) & (self.scores[at] == scores)
        return np.where(found, at, -1)


class GroupBenefitCache:  # repolint: disable=cache-discipline
    # suppressed bound finding: every dict here is keyed by live group
    # (entries dropped when the group empties) and the row stamps by
    # tuple id, so the cache is bounded by the live pool and the
    # instance, with no separate capacity to set
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
    * **p̃ vectors** — each group keeps the ``p̃`` of its members
      beside their tids, scores, row write stamps, committee versions
      and committee encodings. A group whose membership, committee and
      member rows all held still reuses the vector whole (the common
      case: only the rule statistics moved). Otherwise a vectorised
      match on ``(tid, score)`` finds each member's stored entry; with
      an unmoved row stamp the entry's encoding is reused, and, while
      the committee held still too, its value. After a refit of the
      group's committee every member is predicted, but a member whose
      row held still costs one gather and one committee walk: only
      new members, written rows and members last scored from the
      prior are encoded. All predictions of a refresh go through one
      learner call per attribute, attributes in the order they first
      appear among the stale groups' members and members in
      stale-group order, so the encoder meets never-seen values in an
      unchanged order.

    The partition-statistics stamp is backed by the detector's
    *per-rule* statistics versions (aggregated per attribute): a rule's
    version moves only when its observable statistics actually changed,
    so a write that re-evaluated rules without moving them — the common
    case on wide constant rule sets — invalidates nothing.

    Memory stays bounded by the live pool: one stored vector per live
    group (dropped when the group empties, replaced whenever it is
    re-scored) and one write stamp per tuple id. Predicted-by-cause,
    reuse and per-refresh re-scoring counters are exposed through
    :attr:`stats`.

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
    ) -> None:
        self._estimator = estimator
        self._index = index
        self._detector = detector
        self._db = db
        # committees predict p̃ from stored encodings; a member whose
        # committee abstains (or every member, without a learner) is
        # scored by the probability function given to refresh
        self._learner = learner
        self._cursor = index.dirty_cursor()
        self._benefit: dict[tuple[str, object], float] = {}
        # key -> (member version, attr stats version, model version, db size)
        self._stamp: dict[tuple[str, object], tuple[int, int, int, int]] = {}
        # lazy-heap bookkeeping: entry valid iff its token is current
        self._token: dict[tuple[str, object], int] = {}
        self._token_counter = 0
        self._heap: list[tuple] = []
        # row staleness: tuples written since the last refresh, and per
        # tuple id the write sequence number of its latest write (0:
        # never written) — one monotonic sequence, so a stamp never
        # repeats
        self._written: set[int] = set()
        self._row_stamps = np.zeros(0, dtype=np.int64)
        self._write_seq = 0
        # per group: ((member version, key-table generation), key ids)
        self._group_ids: dict[tuple[str, object], tuple[tuple[int, int], np.ndarray]] = {}
        self._group_probs: dict[tuple[str, object], _GroupProbs] = {}
        self._reused_values = 0
        self._predicted = {"model": 0, "row": 0, "new": 0}
        self._rows_encoded = 0
        self._rows_reused = 0
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
        tid = change.tid
        self._written.add(tid)
        self._write_seq += 1
        if tid >= len(self._row_stamps):
            self._cover_tid(tid)
        self._row_stamps[tid] = self._write_seq

    def _cover_tid(self, tid: int) -> None:
        stamps = np.zeros(max(tid + 1, 2 * len(self._row_stamps)), dtype=np.int64)
        stamps[: len(self._row_stamps)] = self._row_stamps
        self._row_stamps = stamps

    def _row_stamps_of(self, tids: np.ndarray) -> np.ndarray:
        """Current write stamps of *tids* (sorted ascending)."""
        if len(tids) and tids[-1] >= len(self._row_stamps):
            self._cover_tid(int(tids.max()))
        return self._row_stamps[tids]

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters (p̃ vectors, row stamps, refreshes).

        ``prob_memo_hits`` / ``prob_memo_misses`` count ``p̃`` values
        reused from stored vectors and values predicted; the
        ``prob_predicted_*`` entries split the predictions by cause
        (the group's committee moved, a member row was written, a new
        member or group). Of the values a committee predicted,
        ``prob_rows_encoded`` were encoded afresh and ``prob_rows_reused``
        voted a stored encoding. ``prob_vectors`` / ``prob_vector_members``
        and ``row_stamps_size`` are current occupancies.
        ``refreshes``, ``groups_rescored``, ``updates_rescored`` and
        ``prob_vectors_reused`` total the refreshes that re-scored
        anything; the ``last_*`` entries are the latest such refresh's.
        """
        return {
            "prob_memo_hits": self._reused_values,
            "prob_memo_misses": sum(self._predicted.values()),
            "prob_predicted_model": self._predicted["model"],
            "prob_predicted_row": self._predicted["row"],
            "prob_predicted_new": self._predicted["new"],
            "prob_rows_encoded": self._rows_encoded,
            "prob_rows_reused": self._rows_reused,
            "prob_vectors": len(self._group_probs),
            "prob_vector_members": sum(len(v.probs) for v in self._group_probs.values()),
            "row_stamps_size": len(self._row_stamps),
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
        # the attribute and instance parts of a stamp, read once per
        # attribute for the whole scan
        per_attribute: dict[str, tuple[int, int]] = {}
        size = len(self._db)
        for key in live:
            if key in stale:
                continue
            parts = per_attribute.get(key[0])
            if parts is None:
                parts = per_attribute[key[0]] = (
                    self._detector.attr_stats_version(key[0]),
                    self._model_version(key[0]),
                )
            stamp = (index.version(key), parts[0], parts[1], size)
            if self._stamp.get(key) != stamp:
                stale.add(key)
                stamps[key] = stamp
        stale &= live_set
        # the ungrouped pseudo-group spans attributes; its versions are
        # not meaningful, so it is always re-scored
        for key in live:
            if key[0] == "*":
                stale.add(key)
        if not stale:
            return 0
        # live keys come sorted by group_sort_key
        groups = [index.group(key) for key in live if key in stale]
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
        and the number of groups whose stored vector was reused whole.

        Applies the reuse rule of the class docstring group by group,
        then predicts every remaining member in one call per attribute.
        """
        index = self._index
        versions: dict[str, int] = {}

        def committee(attribute: str) -> int:
            version = versions.get(attribute)
            if version is None:
                version = versions[attribute] = self._model_version(attribute)
            return version

        parts: list[np.ndarray] = []
        records: list[tuple[tuple[str, object], _GroupProbs]] = []
        # members to predict per attribute, in first-appearance order:
        # (record, member positions, their common suggested value or
        # None where it varies)
        pending: dict[str, list[tuple[_GroupProbs, np.ndarray, object]]] = {}
        reused = 0
        for group in groups:
            key = group.key
            members = group.updates
            n = len(members)
            version = index.version(key)
            stored = self._group_probs.get(key)
            # per member its stored position (None: the same members in
            # the same order), and whether its committee held still
            at = current = None
            if key[0] == "*":
                # the pseudo-group spans attributes and values: match
                # members by the whole update, committees per member
                tids = np.fromiter((u.tid for u in members), np.int64, n)
                scores = None
                models = np.array([committee(u.attribute) for u in members], dtype=np.int64)
                if stored is not None:
                    where = {u: j for j, u in enumerate(stored.members)}
                    at = np.fromiter((where.get(u, -1) for u in members), np.int64, n)
                    current = at >= 0
                    current[current] = stored.models[at[current]] == models[current]
            else:
                models = committee(key[0])
                same_members = stored is not None and stored.version == version
                if same_members and stored.models == models and key not in written:
                    parts.append(stored.probs)
                    reused += 1
                    self._reused_values += n
                    continue
                if same_members:
                    tids, scores = stored.tids, stored.scores
                else:
                    tids = np.fromiter((u.tid for u in members), np.int64, n)
                    scores = np.fromiter((u.score for u in members), np.float64, n)
                    if stored is not None:
                        at = stored.match(tids, scores)
                if stored is not None and stored.models == models:
                    current = np.ones(n, dtype=bool) if at is None else at >= 0
            stamps = self._row_stamps_of(tids)
            if stored is None:
                probs = np.empty(n, dtype=np.float64)
                encodings = np.full((n, 2), -1.0)
                todo = np.arange(n)
                self._predicted["new"] += n
            else:
                # a member whose row held still keeps its encoding, and
                # its value too while its committee held still
                if at is None:
                    known = None
                    still = stored.stamps == stamps
                    probs, encodings = stored.probs.copy(), stored.encodings.copy()
                else:
                    known = at >= 0
                    at = np.where(known, at, 0)
                    still = known & (stored.stamps[at] == stamps)
                    probs, encodings = stored.probs[at], stored.encodings[at]
                encodings[~still, 0] = -1.0
                if current is None:
                    # a keyed group's refit: every member counts as a
                    # model-cause prediction
                    todo = np.arange(n)
                    self._predicted["model"] += n
                else:
                    keep = current & still
                    todo = np.flatnonzero(~keep)
                    n_known = n if known is None else int(known.sum())
                    n_current, n_keep = int(current.sum()), n - len(todo)
                    self._reused_values += n_keep
                    self._predicted["new"] += n - n_known
                    self._predicted["model"] += n_known - n_current
                    self._predicted["row"] += n_current - n_keep
            record = _GroupProbs(version, members, tids, scores, models, stamps, probs, encodings)
            if len(todo):
                if key[0] != "*":
                    pending.setdefault(key[0], []).append((record, todo, key[1]))
                else:
                    by_attribute: dict[str, list[int]] = {}
                    for i in todo.tolist():
                        by_attribute.setdefault(members[i].attribute, []).append(i)
                    for attribute, positions in by_attribute.items():
                        pending.setdefault(attribute, []).append(
                            (record, np.array(positions, dtype=np.int64), None)
                        )
            records.append((key, record))
            parts.append(record.probs)
        for attribute, segments in pending.items():
            self._predict(attribute, segments, probability)
        for key, record in records:
            self._group_probs[key] = record
        return np.concatenate(parts), reused

    def _predict(
        self,
        attribute: str,
        segments: list[tuple[_GroupProbs, np.ndarray, object]],
        probability: ProbabilityFn,
    ) -> None:
        """Fill ``p̃`` (and the encodings) of the pending members of one
        attribute: one committee walk over their stored encodings, or
        *probability* per member while the committee abstains."""
        fractions = None
        if self._learner is not None and self._learner.has_model(attribute):
            values: list[object] = []
            for record, todo, value in segments:
                if value is None:
                    values.extend(record.members[i].value for i in todo.tolist())
                else:
                    values.extend([value] * len(todo))
            encodings = np.concatenate([record.encodings[todo] for record, todo, __ in segments])
            stored = int((encodings[:, 0] >= 0).sum())
            fractions = self._learner.confirm_probabilities(
                attribute,
                self._db.columns,
                np.concatenate([record.tids[todo] for record, todo, __ in segments]),
                values,
                encodings,
            )
            self._rows_reused += stored
            self._rows_encoded += len(encodings) - stored
        offset = 0
        for record, todo, __ in segments:
            end = offset + len(todo)
            if fractions is None:
                record.probs[todo] = [probability(record.members[i]) for i in todo.tolist()]
            else:
                record.probs[todo] = fractions[offset:end]
                record.encodings[todo] = encodings[offset:end]
            offset = end

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
        self._group_ids.clear()
        self._group_probs.clear()
        if self._estimator.deltas is not None:
            self._estimator.deltas.clear()
        self._written.clear()
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
