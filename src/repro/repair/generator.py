"""On-demand candidate-update generation (paper Algorithm 1).

``UpdateAttributeTuple(t, B)`` searches the best replacement value for
cell ``t[B]`` across three scenarios:

1. ``B`` is the RHS of a violated *constant* CFD — suggest the pattern
   constant ``tp[A]``;
2. ``B`` is the RHS of a violated *variable* CFD — suggest a partner
   tuple's RHS value (``getValueForRHS``);
3. ``B`` appears on the LHS of a violated CFD — suggest the value
   maximising Eq. 7 similarity, searching first the constants that the
   rules assign to ``B`` and then the values of ``B`` among tuples that
   agree with ``t`` on the rule's remaining attributes
   (``getValueForLHS``).

Scenario enumeration runs on the database's dictionary-encoded columns:
witness agreement is one vectorized equality mask, candidate values
come straight from the column vocabulary, and scenario-2 partner
histograms are memoised per ``(rule, partition, stats version)``.

The engine drives generation through the **batched** path
(:meth:`UpdateGenerator.generate_for_cells`): cells are bucketed by
``(attribute, violated rules)``, each bucket's witness signatures are
gathered in one code-matrix slice, and each distinct signature is
decided once — carried *across* batches while ``(db.version,
detector.stats_epoch)`` holds still — with candidate pools scored
through the batched Eq. 7 kernel
(:meth:`~repro.repair.similarity.SimilarityCache.scores`). A decision
equal to a cell's live suggestion leaves the pool untouched. The
per-cell scalar path (:meth:`UpdateGenerator.generate_for_cell` with
``batched=False``) is retained as the byte-identical reference behind
``GDRConfig(suggest="scalar")``.

The best-scoring value that is neither the current value nor in the
cell's prevented list becomes the cell's live suggestion.
"""

from __future__ import annotations

from itertools import chain

from repro.constraints.repository import RuleSet
from repro.constraints.violations import ViolationDetector
from repro.db.database import Database
from repro.repair.candidate import CandidateUpdate
from repro.repair.similarity import SimilarityFunction, best_candidate, similarity
from repro.repair.state import RepairState

__all__ = ["UpdateGenerator"]

#: Scenario-2 histogram memo bound; the memo is cleared wholesale when
#: it fills (entries for dead partitions would otherwise accumulate).
_RHS_MEMO_CAPACITY = 4096

#: Cross-batch decision memo bound (cleared wholesale when full).
_DECISION_MEMO_CAPACITY = 8192

#: Witness-group value-pool memo bound; within one database version the
#: memo holds one entry per distinct witness signature, which is
#: unbounded in the number of partitions at scale.
_WITNESS_MEMO_CAPACITY = 1 << 16

#: The outcome of a cell with no admissible value (or a clean tuple).
_NO_DECISION: tuple[object | None, float] = (None, -1.0)


class UpdateGenerator:
    """Generates candidate updates for dirty cells on demand.

    Parameters
    ----------
    db, rules, detector, state:
        The shared repair substrate. The generator writes its
        suggestions into *state* (one live suggestion per cell).
    sim:
        Update-evaluation function (defaults to Eq. 7 edit-distance
        similarity). A :class:`~repro.repair.similarity.SimilarityCache`
        additionally enables code-space batched scoring.
    batched:
        When True (default) :meth:`generate_for_cells` shares witness
        signatures and batch-scores pools; when False it degrades to
        the scalar per-cell reference path.

    Examples
    --------
    >>> from repro.db import Database, Schema
    >>> from repro.constraints import RuleSet, ViolationDetector, parse_rules
    >>> from repro.repair import RepairState
    >>> db = Database(Schema("r", ["zip", "city"]), [["46360", "Westvile"]])
    >>> rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
    >>> det = ViolationDetector(db, rules)
    >>> gen = UpdateGenerator(db, rules, det, RepairState())
    >>> update = gen.generate_for_cell(0, "city")
    >>> update.value
    'Michigan City'
    """

    def __init__(
        self,
        db: Database,
        rules: RuleSet,
        detector: ViolationDetector,
        state: RepairState,
        sim: SimilarityFunction = similarity,
        batched: bool = True,
    ) -> None:
        self.db = db
        self.rules = rules
        self.detector = detector
        self.state = state
        self.sim = sim
        self.batched = batched
        # (witness positions, witness codes, target column) -> candidate
        # values; shared by every tuple in the same witness group and
        # invalidated wholesale when the database version moves
        self._witness_memo: dict[tuple, list[object]] = {}
        self._witness_memo_version = -1
        # (rule, partition key) -> (rule stats version, histogram values
        # ordered most-frequent-first); the scenario-2 pool minus the
        # tuple's own current value
        self._rhs_memo: dict[tuple, tuple[int, list[object]]] = {}
        # (rule, attribute) -> witness column positions, fixed per rule
        self._witness_positions: dict[tuple, tuple[tuple[str, ...], tuple[int, ...]]] = {}
        # ((attribute, rules), signature codes) -> shared selection outcome,
        # carried across generate_for_cells batches while (db version,
        # detector stats epoch) hold still; a signature pins every pool
        # input, so the stamp is the only remaining variable
        self._decision_memo: dict[tuple, tuple[object | None, float]] = {}
        self._decision_stamp: tuple[int, int] = (-1, -1)
        self._memo_hits = {"witness": 0, "rhs": 0, "decision": 0}
        self._memo_misses = {"witness": 0, "rhs": 0, "decision": 0}
        self._memo_clears = {"witness": 0, "rhs": 0, "decision": 0}

    # ------------------------------------------------------------------
    def generate_all(self) -> list[CandidateUpdate]:
        """Initial pass: suggest updates for every dirty tuple's cells.

        Following the paper, every attribute of a dirty tuple is
        initially assumed potentially incorrect; attributes not involved
        in any violated rule simply yield no suggestion. Iterates the
        detector's incrementally ordered dirty view — no per-pass sort —
        and (on the batched path) generates every cell through one
        :meth:`generate_for_cells` call, sharing witness signatures
        across the whole dirty set.
        """
        return self.generate_for_tuples(self.detector.dirty_tuples_ordered())

    def generate_for_tuples(self, tids) -> list[CandidateUpdate]:
        """Run ``UpdateAttributeTuple`` over every cell of many tuples.

        Cells are visited in the same order as per-tuple generation
        (tuples in the given order, each tuple's attributes in violated
        rule order), so the state-event stream is identical to the
        scalar path's.
        """
        violated_by_tid: dict[int, list] = {}
        cells: list[tuple[int, str]] = []
        for tid in tids:
            violated = self.detector.violated_rules(tid)
            violated_by_tid[tid] = violated
            cells.extend((tid, attr) for attr in self._tuple_attrs(violated))
        produced = self.generate_for_cells(cells, violated_by_tid)
        return [update for update in produced if update is not None]

    def generate_for_tuple(self, tid: int) -> list[CandidateUpdate]:
        """Run ``UpdateAttributeTuple`` for every attribute of tuple *tid*."""
        return self.generate_for_tuples((tid,))

    @staticmethod
    def _tuple_attrs(violated) -> list[str]:
        """Attributes of a tuple's violated rules, first-seen order."""
        attrs: list[str] = []
        seen: set[str] = set()
        for rule in violated:
            for attr in rule.attributes:
                if attr not in seen:
                    seen.add(attr)
                    attrs.append(attr)
        return attrs

    # ------------------------------------------------------------------
    def generate_for_cells(
        self,
        cells,
        violated_by_tid: dict[int, list] | None = None,
        revisited: list[tuple[int, str]] | None = None,
    ) -> list[CandidateUpdate | None]:
        """Algorithm 1 batched over many cells (aligned result list).

        Byte-identical to running :meth:`generate_for_cell` per cell in
        order. Cell decisions are independent (each depends only on the
        database, the detector and the cell's own prevented/changeable
        flags), so the batch runs in three phases:

        1. **classify** (read-only, cell order): frozen cells are
           skipped, each tuple's violated-rule list is resolved once,
           prevented cells are decided on their own (their admissible
           set is cell-specific) and every other cell joins the bucket
           of its ``(attribute, violated rules)``;
        2. **decide** (per bucket): a cell's decision is fixed by the
           codes at the bucket's signature columns (see
           :meth:`_signature_columns`), gathered for the whole bucket in
           one code-matrix slice; each distinct code row is decided
           once through the decision memo, which survives between
           calls stamped by ``(db.version, detector.stats_epoch)``;
        3. **apply** (cell order): a decision equal to the cell's live
           suggestion keeps the live object and emits no state event;
           anything else replaces or removes it.

        So the cost per call scales with the number of distinct
        decisions, not with the number of cells. When *revisited* is
        given, every cell that carried a live suggestion before or
        after the call is appended to it, in cell order.
        """
        if not self.batched:
            results = []
            for cell in cells:
                had = self.state.get(cell) is not None
                update = self.generate_for_cell(*cell)
                if revisited is not None and (had or update is not None):
                    revisited.append(cell)
                results.append(update)
            return results
        state = self.state
        db = self.db
        stamp = (db.version, self.detector.stats_epoch)
        if stamp != self._decision_stamp:
            self._decision_memo.clear()
            self._decision_stamp = stamp
        outcome, buckets = self._classify(cells, violated_by_tid)
        for violated, per_attr in buckets.items():
            for attribute, (indexes, rows) in per_attr.items():
                self._decide_bucket(cells, outcome, attribute, violated, indexes, rows)

        results: list[CandidateUpdate | None] = []
        for cell, decision in zip(cells, outcome):
            if decision is None:  # frozen
                results.append(None)
                continue
            live = state.get(cell)
            best_value, best_score = decision
            if best_value is None:
                update = None
                if live is not None:
                    state.remove(cell)
            elif live is not None and (live.value, live.score) == decision:
                update = live
            else:
                update = CandidateUpdate(cell[0], cell[1], best_value, best_score)
                state.put(update)
            if revisited is not None and (live is not None or update is not None):
                revisited.append(cell)
            results.append(update)
        return results

    def _classify(self, cells, violated_by_tid):
        """Phase 1: per-cell decisions for the unshareable cells, and the
        buckets (cell indexes, storage rows) of the rest, keyed by
        violated rules, then attribute."""
        state = self.state
        detector = self.detector
        db = self.db
        columns = db.columns
        if violated_by_tid is None:
            violated_by_tid = {}
        is_changeable = state.is_changeable
        prevented_view = state.prevented_view
        outcome: list[tuple[object | None, float] | None] = [None] * len(cells)
        # violated rules -> attribute -> (cell indexes, storage rows);
        # nested so a cell's lookup hashes only its attribute. A tuple's
        # cells are usually adjacent, so its rule list and row are
        # resolved once per run of cells
        by_violated: dict[tuple, dict[str, tuple[list[int], list[int]]]] = {}
        last_tid = None
        for index, cell in enumerate(cells):
            if not is_changeable(cell):
                continue
            tid, attribute = cell
            if tid != last_tid:
                last_tid = tid
                violated = violated_by_tid.get(tid)
                if violated is None:
                    violated = violated_by_tid[tid] = detector.violated_rules(tid)
                if violated:
                    violated = tuple(violated)
                    per_attr = by_violated.get(violated)
                    if per_attr is None:
                        per_attr = by_violated[violated] = {}
                    row = columns.position_of(tid)
            if not violated:
                outcome[index] = _NO_DECISION
                continue
            prevented = prevented_view(cell)
            if prevented:
                pools = self._pools_for(tid, attribute, violated)
                outcome[index] = self._select_best(
                    attribute, db.value(tid, attribute), pools, prevented
                )
                continue
            bucket = per_attr.get(attribute)
            if bucket is None:
                bucket = per_attr[attribute] = ([], [])
            bucket[0].append(index)
            bucket[1].append(row)
        return outcome, by_violated

    def _decide_bucket(self, cells, outcome, attribute, violated, indexes, rows) -> None:
        """Phase 2: one Algorithm 1 decision per distinct signature row.

        The bucket's signature codes arrive as one column per signature
        position; ``zip`` turns them into one code row per cell. Hit/miss
        counters stay per cell: a row's first cell is a miss unless the
        memo already holds the row, every other cell a hit.
        """
        memo_key_prefix, positions = self._signature_columns(attribute, violated)
        block = self.db.columns.gather(positions, rows)
        decisions = self._decision_memo
        # this bucket's rows: repeats skip hashing the memo key's rules
        decided: dict[tuple, tuple[object | None, float]] = {}
        hits = 0
        for index, codes in zip(indexes, zip(*block.tolist())):
            decision = decided.get(codes)
            if decision is None:
                memo_key = (memo_key_prefix, codes)
                decision = decisions.get(memo_key)
                if decision is None:
                    tid = cells[index][0]
                    current = self.db.value(tid, attribute)
                    pools = self._pools_for(tid, attribute, violated)
                    decision = self._select_best(attribute, current, pools, ())
                    self._memo_misses["decision"] += 1
                    if len(decisions) >= _DECISION_MEMO_CAPACITY:
                        decisions.clear()
                        self._memo_clears["decision"] += 1
                    decisions[memo_key] = decision
                else:
                    hits += 1
                decided[codes] = decision
            else:
                hits += 1
            outcome[index] = decision
        self._memo_hits["decision"] += hits

    def generate_for_cell(self, tid: int, attribute: str) -> CandidateUpdate | None:
        """``UpdateAttributeTuple(t, B)`` — Algorithm 1, one cell.

        The scalar reference path (per-candidate similarity calls, no
        cross-cell sharing); the batched path reproduces it
        byte-for-byte. Returns the new live suggestion for the cell, or
        ``None`` when the cell is frozen, the tuple is clean, or no
        admissible value exists. Any previous suggestion for the cell
        is replaced.
        """
        cell = (tid, attribute)
        if not self.state.is_changeable(cell):
            return None
        violated = self.detector.violated_rules(tid)
        if not violated:
            self.state.remove(cell)
            return None
        current = self.db.value(tid, attribute)
        prevented = self.state.prevented_view(cell)

        pools = self._pools_for(tid, attribute, violated)
        best_value, best_score = best_candidate(
            current, chain.from_iterable(pools), excluded=prevented, sim=self.sim
        )
        if best_value is None:
            self.state.remove(cell)
            return None
        update = CandidateUpdate(tid, attribute, best_value, best_score)
        self.state.put(update)
        return update

    # ------------------------------------------------------------------
    # candidate pools (shared by the scalar and batched paths)
    # ------------------------------------------------------------------
    def _pools_for(self, tid: int, attribute: str, violated) -> list:
        """The scenario-1/2/3 candidate pools for one cell, in order."""
        pools = []
        saw_lhs_rule = False
        for rule in violated:
            if rule.rhs == attribute:
                if rule.is_constant:
                    pools.append((rule.rhs_constant,))  # scenario 1
                else:
                    pools.append(self._values_for_rhs(tid, rule))  # scenario 2
            if attribute in rule.lhs:
                saw_lhs_rule = True
        if saw_lhs_rule:
            pools.append(self._values_for_lhs(tid, attribute, violated))  # scenario 3
        return pools

    def _signature_columns(self, attribute: str, violated: tuple) -> tuple[tuple, list[int]]:
        """Decision-memo key prefix and signature columns of one bucket.

        Two unprevented cells of the bucket whose codes agree at these
        columns see identical candidate pools (built in identical order)
        and an identical current value, so they share one selection
        outcome:

        * the attribute's own column (the current value);
        * per violated variable rule with the attribute as RHS, the
          rule's LHS columns — the tuple's partition key, since
          vocabularies are bijective;
        * per violated rule with the attribute on its LHS, the rule's
          witness columns.

        A violated constant rule with the attribute as RHS adds no
        column: its constant is fixed by the rule. The key prefix names
        the attribute and every violated rule touching it (rule objects,
        compared by value), so buckets whose rule lists differ only in
        rules that cannot move the decision share memo entries.
        """
        schema = self.db.schema
        rules = []
        positions = [schema.position(attribute)]
        for rule in violated:
            if rule.rhs == attribute:
                rules.append(rule)
                if rule.is_variable:
                    positions.extend(schema.positions(rule.lhs))
            elif attribute in rule.lhs:
                rules.append(rule)
                positions.extend(self._witness_layout(rule, attribute, schema)[1])
        return (attribute, tuple(rules)), positions

    def _witness_layout(self, rule, attribute: str, schema):
        """Witness attributes and column positions of *rule* sans *attribute*."""
        layout_key = (rule, attribute)
        layout = self._witness_positions.get(layout_key)
        if layout is None:
            witness_attrs = tuple(a for a in rule.attributes if a != attribute)
            positions = tuple(schema.positions(witness_attrs))
            layout = self._witness_positions[layout_key] = (witness_attrs, positions)
        return layout

    def _values_for_rhs(self, tid: int, rule) -> list[object]:
        """``getValueForRHS``: partner RHS values, most frequent first.

        The partition's ordered histogram is memoised per ``(rule,
        partition key)`` and stamped with the rule's statistics version,
        so every tuple of the partition (and every repeated visit while
        the rule's statistics hold still) shares one sort. Filtering
        the tuple's own current value afterwards preserves the
        reference order (the sort is stable and the key ignores list
        position).
        """
        detector = self.detector
        part_key = detector.partition_key(tid, rule)
        memo_key = (rule, part_key)
        version = detector.rule_stats_version(rule)
        entry = self._rhs_memo.get(memo_key)
        if entry is None or entry[0] != version:
            self._memo_misses["rhs"] += 1
            counts = detector.group_value_counts(tid, rule)
            ranked = [(count, value) for value, count in counts.items()]
            ranked.sort(key=lambda pair: (-pair[0], str(pair[1])))
            if len(self._rhs_memo) >= _RHS_MEMO_CAPACITY:
                self._rhs_memo.clear()
                self._memo_clears["rhs"] += 1
            entry = self._rhs_memo[memo_key] = (version, [value for __, value in ranked])
        else:
            self._memo_hits["rhs"] += 1
        current = self.db.value(tid, rule.rhs)
        return [value for value in entry[1] if value != current]

    def _values_for_lhs(self, tid: int, attribute: str, violated) -> set[object]:
        """``getValueForLHS``: rule constants plus context-agreeing values.

        Algorithm 1 operates entirely on ``t.vioRuleList``, so the
        "values in the CFDs" pool is drawn from the *violated* rules'
        patterns only — pooling constants from all of Σ would funnel
        unrelated constants into every dirty tuple's suggestions.
        Witness agreement is evaluated as a vectorized equality mask
        over the dictionary-encoded columns, and the agreeing tuples'
        values of ``attribute`` are decoded via the column vocabulary.
        """
        pool: set[object] = set()
        schema = self.db.schema
        columns = self.db.columns
        attr_pos = schema.position(attribute)
        version = self.db.version
        if version != self._witness_memo_version:
            self._witness_memo.clear()
            self._witness_memo_version = version
        row_pos = columns.position_of(tid)
        for rule in violated:
            if attribute not in rule.lhs:
                continue
            entry = rule.pattern.get(attribute)
            if entry is not None and rule.pattern.is_constant_on(attribute):
                pool.add(entry)
            witness_attrs, positions = self._witness_layout(rule, attribute, schema)
            if not witness_attrs:
                continue
            codes = tuple(columns.code_at(row_pos, p) for p in positions)
            memo_key = (positions, codes, attr_pos)
            values = self._witness_memo.get(memo_key)
            if values is None:
                self._memo_misses["witness"] += 1
                # no exclude_tid: the tuple's own value re-enters the pool
                # but is never admissible (it equals the current value), so
                # the lookup is shareable across the whole witness group
                mask = columns.match_mask_codes(zip(positions, codes))
                if mask.any():
                    values = columns.vocabulary(attr_pos).decode_many(
                        columns.codes_at(attr_pos, mask).tolist()
                    )
                else:
                    values = []
                if len(self._witness_memo) >= _WITNESS_MEMO_CAPACITY:
                    self._witness_memo.clear()
                    self._memo_clears["witness"] += 1
                self._witness_memo[memo_key] = values
            else:
                self._memo_hits["witness"] += 1
            pool.update(values)
        return pool

    # ------------------------------------------------------------------
    def _select_best(
        self, attribute: str, current, pools, prevented
    ) -> tuple[object | None, float]:
        """Batch-scored :func:`~repro.repair.similarity.best_candidate`.

        Admissibility (skip the current value, prevented values and
        ``None``) is applied first; the surviving candidates are scored
        in one batched pass and the selection loop then reproduces the
        reference tie-breaks (higher score, then lexicographically
        smaller string form) over the same candidate order.
        """
        admissible = [
            value
            for value in chain.from_iterable(pools)
            if not (value == current or value in prevented or value is None)
        ]
        if not admissible:
            return _NO_DECISION
        scores = self._scores(attribute, current, admissible)
        best_value: object | None = None
        best_score = -1.0
        best_str: str | None = None
        for value, score in zip(admissible, scores):
            if best_value is None or score > best_score:
                best_value = value
                best_score = score
                best_str = None
            elif score == best_score:
                if best_str is None:
                    best_str = str(best_value)
                value_str = str(value)
                if value_str < best_str:
                    best_value = value
                    best_str = value_str
        return best_value, best_score

    def _scores(self, attribute: str, current, values) -> list[float]:
        """Eq. 7 scores for a candidate list (kernel-batched when possible)."""
        scores = getattr(self.sim, "scores", None)
        if scores is not None:
            return scores(self.db.schema.position(attribute), current, values)
        sim = self.sim
        return [sim(current, value) for value in values]

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters for the generator's three memos."""
        out: dict[str, int] = {
            "witness_memo_size": len(self._witness_memo),
            "witness_memo_capacity": _WITNESS_MEMO_CAPACITY,
            "rhs_memo_size": len(self._rhs_memo),
            "rhs_memo_capacity": _RHS_MEMO_CAPACITY,
            "decision_memo_size": len(self._decision_memo),
            "decision_memo_capacity": _DECISION_MEMO_CAPACITY,
        }
        for memo in ("witness", "rhs", "decision"):
            out[f"{memo}_memo_hits"] = self._memo_hits[memo]
            out[f"{memo}_memo_misses"] = self._memo_misses[memo]
            out[f"{memo}_memo_clears"] = self._memo_clears[memo]
        return out

    def detach(self) -> None:
        """Release the generator's derived caches."""
        self._witness_memo.clear()
        self._witness_memo_version = -1
        self._rhs_memo.clear()
        self._witness_positions.clear()
        self._decision_memo.clear()
        self._decision_stamp = (-1, -1)
