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

A cell's decision is a function of its **signature**: the attribute,
the violated rules touching it and the codes at the columns those rules
read (the cell's own value, each scenario-2 partition key, each
scenario-3 witness key — see :class:`_Layout`). The engine drives
generation through the **batched** path
(:meth:`UpdateGenerator.generate_for_cells`): cells are bucketed by
``(violated-rule bitmask, attribute)``, each bucket's signatures are
gathered in one code-matrix slice, and each distinct signature is
decided once through the **decision memo**. The memo's misses are
queued, and a full queue is scored with one batched Eq. 7 call
(:meth:`~repro.repair.similarity.SimilarityCache.scores`, one
:func:`~repro.repair.similarity.levenshtein_many` pairs-kernel call for
every uncached pair of the queue). A decision equal to a cell's live
suggestion leaves the pool untouched.

The memo survives writes. A signature pins every pool input except the
contents of the groups its pools read — a scenario-2 partition (rows
agreeing on the rule's LHS) or a scenario-3 witness group (rows
agreeing on the rule's attributes other than ``B``). Selection depends
only on the *set* of admissible values, not their order, while
``str()`` is injective over them (ties break on the smaller string
form). So a database listener evicts, per write, only the entries of
the rules containing the written attribute whose group — the written
tuple's, before or after the write — gained or lost a ``B`` value;
where two values of ``B`` share a ``str()`` it evicts on any change to
the group. Inserts, deletes and detector rebuilds clear the memo
wholesale. The per-cell scalar path
(:meth:`UpdateGenerator.generate_for_cell`: no memo, one similarity
call per candidate) is the reference the batched path reproduces
byte-for-byte, which the tests check.

The best-scoring value that is neither the current value nor in the
cell's prevented list becomes the cell's live suggestion.
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from repro.constraints.repository import RuleSet
from repro.constraints.violations import ViolationDetector
from repro.db.changelog import CellChange
from repro.db.database import Database
from repro.repair.candidate import CandidateUpdate
from repro.repair.similarity import (
    KERNEL_BUDGET,
    SimilarityCache,
    SimilarityFunction,
    best_candidate,
    similarity,
)
from repro.repair.state import RepairState

__all__ = ["UpdateGenerator"]

#: Scenario-2 histogram memo bound; the memo is cleared wholesale when
#: it fills (entries for dead partitions would otherwise accumulate).
_RHS_MEMO_CAPACITY = 4096

#: Decision memo bound in entries across all layouts (cleared wholesale
#: when full).
_DECISION_MEMO_CAPACITY = 8192

#: Candidate pairs the decide phase queues before scoring them in one
#: batch (the similarity kernel's chunk size).
_QUEUE_PAIRS = KERNEL_BUDGET

#: Witness-group value-pool memo bound; within one database version the
#: memo holds one entry per distinct witness signature, which is
#: unbounded in the number of partitions at scale.
_WITNESS_MEMO_CAPACITY = 1 << 16

#: The outcome of a cell with no admissible value (or a clean tuple).
_NO_DECISION: tuple[object | None, float] = (None, -1.0)

#: Bits per code in a packed signature (codes are non-negative int32).
_CODE_BITS = 32

#: Low group-code bits a layout's per-group entry filter keys on.
_FILTER_MASK = 255

# roles of a rule in a layout: the scenario whose pool it feeds
_CONSTANT, _PARTITION, _WITNESS = "constant", "partition", "witness"


def _pack(codes) -> int:
    """One int holding a code tuple, code ``i`` at bits ``32·i``."""
    key = 0
    for code in reversed(codes):
        key = key << _CODE_BITS | code
    return key


def _unpack(key: int, width: int) -> tuple[int, ...]:
    mask = (1 << _CODE_BITS) - 1
    return tuple((key >> (_CODE_BITS * i)) & mask for i in range(width))


def _admissible(current, pools, prevented) -> list:
    """The pooled candidates that are neither the current value, a
    prevented value nor ``None``, in pool order."""
    return [
        value
        for value in chain.from_iterable(pools)
        if not (value == current or value in prevented or value is None)
    ]


def _pick(admissible: list, scores: list[float]) -> tuple[object | None, float]:
    """:func:`~repro.repair.similarity.best_candidate`'s selection over
    scored admissible candidates: the higher score, then the
    lexicographically smaller string form, in candidate order."""
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


class _Group:
    """One kind of database group memo entries read: the rows agreeing
    at columns *positions*, whose column-*b_pos* values feed a pool.

    *readers* lists the ``(layout, slot, shift, width mask)`` of every
    layout part reading such a group; *filter* holds one bit per low
    byte of the first group code of every entry inserted since the last
    clear, so a write skips the groups no entry can read.
    """

    __slots__ = ("positions", "b_pos", "readers", "filter")

    def __init__(self, positions: tuple[int, ...], b_pos: int) -> None:
        self.positions = positions
        self.b_pos = b_pos
        self.readers: list[tuple[_Layout, int, int, int]] = []
        self.filter = 0


class _Layout:
    """One decision-memo prefix: an attribute and the violated rules
    touching it, with the signature columns they read and the memo
    entries decided under them.

    *positions* lists the signature columns: the attribute's own column
    (the current value), then per rule in violation order its LHS
    columns when it is a variable rule with the attribute as RHS (the
    partition key — vocabularies are bijective) or its witness columns
    when the attribute is on its LHS. A constant rule with the attribute
    as RHS adds no column. *parts* records per rule its role, its slice
    of the signature and the columns of that slice; *groups* lists the
    parts that read a database group, as ``(group, shift, width mask)``
    over the packed signature, and *filters* the per-part filter bits
    (as :attr:`_Group.filter`). *decisions* maps a packed signature to
    its selection outcome, and *prevented* a ``(packed signature,
    prevented values)`` pair to the outcome for a cell with those
    prevented values.
    """

    __slots__ = (
        "attribute",
        "pos",
        "rules",
        "positions",
        "parts",
        "groups",
        "filters",
        "decisions",
        "prevented",
    )

    def __init__(
        self, attribute: str, pos: int, rules: tuple, parts: list, positions: list, groups: list
    ) -> None:
        self.attribute = attribute
        self.pos = pos
        self.rules = rules
        self.positions = positions
        self.parts = tuple(parts)
        self.groups = tuple(groups)
        self.filters = [0] * len(groups)
        self.decisions: dict[int, tuple[object | None, float]] = {}
        self.prevented: dict[tuple[int, frozenset], tuple[object | None, float]] = {}

    def insert(self, key: int, decision: tuple[object | None, float], prevented=None) -> None:
        if prevented:
            self.prevented[(key, prevented)] = decision
        else:
            self.decisions[key] = decision
        filters = self.filters
        for slot, (group, shift, __) in enumerate(self.groups):
            bit = 1 << ((key >> shift) & _FILTER_MASK)
            filters[slot] |= bit
            group.filter |= bit

    def evict(self, shift: int, width: int, moved: set[int]) -> int:
        """Drop the entries whose group codes at ``(shift, width)`` are
        in *moved*; returns how many."""
        decisions = self.decisions
        doomed = [key for key in decisions if (key >> shift) & width in moved]
        for key in doomed:
            del decisions[key]
        prevented = self.prevented
        doomed_prevented = [key for key in prevented if (key[0] >> shift) & width in moved]
        for key in doomed_prevented:
            del prevented[key]
        return len(doomed) + len(doomed_prevented)

    def clear(self) -> None:
        self.decisions.clear()
        self.prevented.clear()
        self.filters = [0] * len(self.groups)


class _Miss:
    """A queued decision-memo miss: its signature, current value and
    admissible candidates, the cells waiting on it and, once its batch
    is scored, its outcome."""

    __slots__ = ("layout", "key", "current", "admissible", "cells", "outcome")

    def __init__(self, layout: _Layout, key: int, current, admissible: list) -> None:
        self.layout = layout
        self.key = key
        self.current = current
        self.admissible = admissible
        self.cells: list[int] = []
        self.outcome: tuple[object | None, float] | None = None


class _Pass:
    """One :meth:`UpdateGenerator.generate_for_cells` call: its cells,
    the per-cell outputs of the decide phase and the queue of memo
    misses waiting to be scored."""

    __slots__ = ("cells", "results", "touched", "pending", "queue", "queued", "pairs")

    def __init__(self, cells) -> None:
        self.cells = cells
        self.results: list[CandidateUpdate | None] = [None] * len(cells)
        # per cell, 1 once it is known to carry a live suggestion before
        # or after the call; and the decisions left for the apply phase
        self.touched = bytearray(len(cells))
        self.pending: list[tuple[object | None, float] | None] = [None] * len(cells)
        self.queue: list[_Miss] = []
        self.queued: dict[tuple[_Layout, int], _Miss] = {}
        self.pairs = 0


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
    ) -> None:
        self.db = db
        self.rules = rules
        self.detector = detector
        self.state = state
        self.sim = sim
        # (witness positions, witness codes, target column) -> candidate
        # values; shared by every tuple in the same witness group and
        # invalidated wholesale when the database version moves
        self._witness_memo: dict[tuple, list[object]] = {}
        self._witness_memo_version = -1
        # (rule, partition key codes) -> (rule stats version, histogram
        # values ordered most-frequent-first); the scenario-2 pool minus
        # the tuple's own current value
        self._rhs_memo: dict[tuple, tuple[int, list[object]]] = {}
        # decision memo: one layout per (attribute, rules touching it),
        # reached per bucket through (attribute, violated-rule mask); the
        # entries live in the layouts and survive writes (see _on_write)
        self._layouts: dict[tuple, _Layout] = {}
        self._layout_of_mask: dict[tuple[str, int], _Layout] = {}
        # (group columns, B column) -> group kind, and per column the
        # group kinds reading it: the eviction targets of a write there
        self._groups: dict[tuple, _Group] = {}
        self._groups_of_column: dict[int, list[_Group]] = {}
        self._decision_entries = 0
        # the database version and detector rebuild epoch the memo is
        # current at; any other move (insert, delete, rebuild, a write
        # this listener missed) clears it
        self._memo_version = -1
        self._memo_epoch = -1
        # column position -> (vocabulary length checked, str() injective
        # over the column's values and the rule constants on it)
        self._str_injective: dict[int, tuple[int, bool]] = {}
        self._memo_hits = {"witness": 0, "rhs": 0, "decision": 0}
        self._memo_misses = {"witness": 0, "rhs": 0, "decision": 0}
        self._memo_clears = {"witness": 0, "rhs": 0, "decision": 0}
        self._decision_evictions = 0
        self._decision_structural_clears = 0
        db.add_listener(self._on_write)

    # ------------------------------------------------------------------
    def generate_all(self) -> list[CandidateUpdate]:
        """Initial pass: suggest updates for every dirty tuple's cells.

        Following the paper, every attribute of a dirty tuple is
        initially assumed potentially incorrect; attributes not involved
        in any violated rule simply yield no suggestion. Iterates the
        detector's incrementally ordered dirty view — no per-pass sort —
        and generates every cell through one :meth:`generate_for_cells`
        call, sharing witness signatures across the whole dirty set.
        """
        return self.generate_for_tuples(self.detector.dirty_tuples_ordered())

    def generate_for_tuples(self, tids) -> list[CandidateUpdate]:
        """Run ``UpdateAttributeTuple`` over every cell of many tuples.

        Cells are visited in the same order as per-tuple generation
        (tuples in the given order, each tuple's attributes in violated
        rule order), so the state-event stream is identical to calling
        :meth:`generate_for_cell` per cell.
        """
        cells: list[tuple[int, str]] = []
        for tid in tids:
            violated = self.detector.violated_rules(tid)
            cells.extend((tid, attr) for attr in self._tuple_attrs(violated))
        produced = self.generate_for_cells(cells)
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
        revisited: list[tuple[int, str]] | None = None,
    ) -> list[CandidateUpdate | None]:
        """Algorithm 1 batched over many cells (aligned result list).

        Byte-identical to running :meth:`generate_for_cell` per cell in
        order. Cell decisions are independent (each depends only on the
        database, the detector and the cell's own prevented/changeable
        flags), so the batch runs in three phases:

        1. **classify** (read-only, cell order): frozen cells are
           skipped, each tuple's violated-rule bitmask is read once,
           clean tuples' cells and prevented cells are decided on their
           own (a prevented cell's admissible set is cell-specific) and
           every other cell joins the bucket of its ``(violated-rule
           mask, attribute)``;
        2. **decide** (per bucket): a cell's decision is fixed by the
           codes at the bucket's signature columns (see
           :class:`_Layout`), gathered for the whole bucket in one
           code-matrix slice; each distinct code row is decided once
           through the decision memo, which survives between calls and
           across writes (see :meth:`_on_write`). The memo's misses are
           queued and scored in batches of about :data:`_QUEUE_PAIRS`
           candidate pairs, one Eq. 7 kernel call per batch (see
           :meth:`_flush`). A memo hit equal to the cell's live
           suggestion (or no decision for a cell without one) settles
           the cell on the spot: the live object is kept and no state
           event fires. A queued miss hands its cells to the apply
           phase, which keeps an equal live suggestion the same way;
        3. **apply** (cell order): only the cells whose decision differs
           from their live suggestion replace or remove it, emitting
           their state events in cell order.

        So the cost per call scales with the number of distinct
        decisions and changed suggestions, not with the number of
        cells. When *revisited* is given, every cell that carried a
        live suggestion before or after the call is appended to it, in
        cell order.
        """
        self._check_memo_stamp()
        run = _Pass(cells)
        buckets = self._classify(cells, run.pending)
        for mask, per_attr in buckets.items():
            for attribute, (indexes, rows) in per_attr.items():
                layout = self._mask_layout(attribute, mask)
                self._decide_bucket(run, layout, indexes, rows)
        self._flush(run)
        self._apply(run)
        if revisited is not None:
            revisited.extend(compress(cells, run.touched))
        return run.results

    def _classify(self, cells, pending):
        """Phase 1: decide the unshareable cells into *pending*; returns
        the buckets (cell indexes, storage rows) of the rest, keyed by
        violated-rule mask, then attribute."""
        frozen, prevented_of, __ = self.state.cell_views()
        masks = self.detector.violation_masks()
        columns = self.db.columns
        position_of = columns.position_of
        buckets: dict[int, dict[str, tuple[list[int], list[int]]]] = {}
        # a tuple's cells are usually adjacent, so its mask, row and
        # buckets are resolved once per run of cells
        last_tid = None
        mask = row = 0
        per_attr: dict[str, tuple[list[int], list[int]]] = {}
        for index, cell in enumerate(cells):
            if cell in frozen:
                continue
            tid = cell[0]
            if tid != last_tid:
                last_tid = tid
                mask = masks.get(tid, 0)
                if mask:
                    row = position_of(tid)
                    per_attr = buckets.get(mask)
                    if per_attr is None:
                        per_attr = buckets[mask] = {}
            if not mask:
                pending[index] = _NO_DECISION
                continue
            prevented = prevented_of.get(cell)
            if prevented:
                layout = self._mask_layout(cell[1], mask)
                codes = tuple(columns.code_at(row, p) for p in layout.positions)
                pending[index] = self._decide_prevented(layout, codes, tid, prevented)
                continue
            bucket = per_attr.get(cell[1])
            if bucket is None:
                bucket = per_attr[cell[1]] = ([], [])
            bucket[0].append(index)
            bucket[1].append(row)
        return buckets

    def _decide_bucket(self, run: _Pass, layout: _Layout, indexes, rows) -> None:
        """Phase 2: one Algorithm 1 decision per distinct signature row.

        A cell whose row the memo holds is settled here: one whose live
        suggestion equals the decision (or that has neither) keeps it,
        any other goes to the apply phase. A memo miss is queued with its
        candidates (see :meth:`_queue_miss`) and hands its cells to the
        apply phase once its batch is scored. The bucket's signature
        codes arrive as one column per signature position; ``zip`` turns
        them into one code row per cell. Hit/miss counters stay per
        cell: a row's first cell is a miss unless the memo or the queue
        already holds the row, every other cell a hit.
        """
        block = self.db.columns.gather(layout.positions, rows)
        decisions = layout.decisions
        live_of = self.state.cell_views()[2]
        cells, results, touched, pending = run.cells, run.results, run.touched, run.pending
        # this bucket's rows: repeats skip packing the memo key
        decided: dict[tuple, tuple[object | None, float] | _Miss] = {}
        misses = 0
        for index, codes in zip(indexes, zip(*block.tolist())):
            decision = decided.get(codes)
            if decision is None:
                key = _pack(codes)
                decision = decisions.get(key)
                if decision is None:
                    decision = run.queued.get((layout, key))
                    if decision is None:
                        decision = self._queue_miss(run, layout, key, codes, cells[index][0])
                        misses += 1
                decided[codes] = decision
            if type(decision) is _Miss:
                if decision.outcome is None:
                    decision.cells.append(index)
                    continue
                decision = decided[codes] = decision.outcome
            live = live_of.get(cells[index])
            if live is None:
                if decision[0] is not None:
                    pending[index] = decision
            elif (live.value, live.score) == decision:
                results[index] = live
                touched[index] = 1
            else:
                pending[index] = decision
        self._memo_misses["decision"] += misses
        self._memo_hits["decision"] += len(indexes) - misses

    def _queue_miss(self, run: _Pass, layout: _Layout, key: int, codes: tuple, tid: int) -> _Miss:
        """Queue one memo miss with its admissible candidates; the queue
        is scored once it holds :data:`_QUEUE_PAIRS` candidate pairs."""
        self._reserve(run)
        current = self.db.value(tid, layout.attribute)
        admissible = _admissible(current, self._pools(layout, codes, current), ())
        miss = _Miss(layout, key, current, admissible)
        run.queue.append(miss)
        run.queued[(layout, key)] = miss
        run.pairs += len(admissible)
        if run.pairs >= _QUEUE_PAIRS:
            self._flush(run)
        return miss

    def _flush(self, run: _Pass) -> None:
        """Score the queued misses in one batch, then per miss in queue
        order select its outcome, remember it and hand its cells to the
        apply phase (which keeps a live suggestion equal to it)."""
        if not run.queue:
            return
        pending = run.pending
        # a miss without admissible candidates is never scored, as in
        # a one-cell selection
        requests = [
            (miss.layout.pos, miss.current, miss.admissible)
            for miss in run.queue
            if miss.admissible
        ]
        batch = iter(self._score_batch(requests))
        for miss in run.queue:
            decision = _pick(miss.admissible, next(batch)) if miss.admissible else _NO_DECISION
            miss.outcome = decision
            self._remember(miss.layout, miss.key, decision)
            for index in miss.cells:
                pending[index] = decision
        run.queue = []
        run.queued = {}
        run.pairs = 0

    def _decide_prevented(self, layout: _Layout, codes: tuple, tid: int, prevented):
        """Algorithm 1 for a cell with prevented values, memoised per
        ``(signature, prevented values)``: the admissible set is the
        signature's minus the prevented values."""
        key = _pack(codes)
        values = frozenset(prevented)
        decision = layout.prevented.get((key, values))
        if decision is not None:
            self._memo_hits["decision"] += 1
            return decision
        current = self.db.value(tid, layout.attribute)
        decision = self._select_best(
            layout.attribute, current, self._pools(layout, codes, current), values
        )
        self._memo_misses["decision"] += 1
        self._reserve()
        self._remember(layout, key, decision, values)
        return decision

    def _reserve(self, run: _Pass | None = None) -> None:
        """Make room for one more memo entry: where the queued misses
        would fill the memo, remember them and clear it (a capacity
        clear happens between the same lookups as when every miss is
        remembered as it is met)."""
        queued = len(run.queue) if run is not None else 0
        if self._decision_entries + queued >= _DECISION_MEMO_CAPACITY:
            if queued:
                self._flush(run)
            self._clear_decisions()
            self._memo_clears["decision"] += 1

    def _remember(self, layout: _Layout, key: int, decision, prevented=None) -> None:
        layout.insert(key, decision, prevented)
        self._decision_entries += 1

    def _apply(self, run: _Pass) -> None:
        """Phase 3: settle the pending cells in cell order — keep an
        equal live suggestion, replace or remove any other. The live
        suggestion is read here, so a cell listed twice settles like two
        consecutive per-cell calls."""
        state = self.state
        live_of = state.cell_views()[2]
        cells, pending, results, touched = run.cells, run.pending, run.results, run.touched
        # decisions are non-empty tuples: compress yields the pending
        # indexes in cell order
        for index in compress(range(len(cells)), pending):
            decision = pending[index]
            cell = cells[index]
            live = live_of.get(cell)
            best_value, best_score = decision
            if best_value is None:
                if live is None:
                    continue
                state.remove(cell)
                update = None
            elif live is not None and (live.value, live.score) == decision:
                update = live
            else:
                update = CandidateUpdate(cell[0], cell[1], best_value, best_score)
                state.put(update)
            touched[index] = 1
            results[index] = update

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

        layout = self._layout(attribute, violated)
        codes = tuple(self.db.columns.gather_row(tid, layout.positions).tolist())
        pools = self._pools(layout, codes, current)
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
    # signature layouts and candidate pools (shared by both paths)
    # ------------------------------------------------------------------
    def _mask_layout(self, attribute: str, mask: int) -> _Layout:
        """The layout of a bucket: *attribute* under violated-rule *mask*."""
        layout = self._layout_of_mask.get((attribute, mask))
        if layout is None:
            layout = self._layout(attribute, self.detector.rules_in_mask(mask))
            self._layout_of_mask[(attribute, mask)] = layout
        return layout

    def _layout(self, attribute: str, violated) -> _Layout:
        """The layout of *attribute* under the violated rules *violated*.

        Two unprevented cells sharing a layout whose codes agree at its
        signature columns see identical candidate pools (built in
        identical order) and an identical current value, so they share
        one selection outcome. The key names the attribute and every
        violated rule touching it (rule objects, compared by value), so
        buckets whose rule lists differ only in rules that cannot move
        the decision share memo entries.
        """
        rules = tuple(
            rule for rule in violated if rule.rhs == attribute or attribute in rule.lhs
        )
        layout = self._layouts.get((attribute, rules))
        if layout is not None:
            return layout
        schema = self.db.schema
        positions = [schema.position(attribute)]
        parts = []
        for rule in rules:
            if rule.rhs == attribute and rule.is_constant:
                role, columns = _CONSTANT, ()
            elif rule.rhs == attribute:
                role, columns = _PARTITION, tuple(schema.positions(rule.lhs))
            else:
                witness = tuple(a for a in rule.attributes if a != attribute)
                role, columns = _WITNESS, tuple(schema.positions(witness))
            parts.append((rule, role, len(positions), len(positions) + len(columns), columns))
            positions.extend(columns)
        groups = []
        for rule, role, lo, hi, columns in parts:
            if not columns:
                continue
            group_key = (columns, positions[0])
            group = self._groups.get(group_key)
            if group is None:
                group = self._groups[group_key] = _Group(*group_key)
                for pos in group.positions + (group.b_pos,):
                    self._groups_of_column.setdefault(pos, []).append(group)
            groups.append((group, _CODE_BITS * lo, (1 << (_CODE_BITS * (hi - lo))) - 1))
        layout = self._layouts[(attribute, rules)] = _Layout(
            attribute, positions[0], rules, parts, positions, groups
        )
        for slot, (group, shift, width) in enumerate(layout.groups):
            group.readers.append((layout, slot, shift, width))
        return layout

    def _pools(self, layout: _Layout, codes: tuple, current) -> list:
        """The scenario-1/2/3 candidate pools of one signature, in order."""
        pools: list = []
        witness = []
        for rule, role, lo, hi, columns in layout.parts:
            if role is _CONSTANT:
                pools.append((rule.rhs_constant,))  # scenario 1
            elif role is _PARTITION:
                pools.append(self._values_for_rhs(rule, codes[lo:hi], current))  # scenario 2
            else:
                witness.append((rule, columns, codes[lo:hi]))
        if witness:
            pools.append(self._values_for_lhs(layout, witness))  # scenario 3
        return pools

    def _values_for_rhs(self, rule, key_codes: tuple, current) -> list[object]:
        """``getValueForRHS``: partner RHS values, most frequent first.

        The partition with LHS codes *key_codes* has its ordered
        histogram memoised per ``(rule, partition)`` and stamped with
        the rule's statistics version, so every tuple of the partition
        (and every repeated visit while the rule's statistics hold
        still) shares one sort. Filtering the tuple's own *current*
        value afterwards preserves the reference order (the sort is
        stable and the key ignores list position).
        """
        detector = self.detector
        memo_key = (rule, key_codes)
        version = detector.rule_stats_version(rule)
        entry = self._rhs_memo.get(memo_key)
        if entry is None or entry[0] != version:
            self._memo_misses["rhs"] += 1
            columns = self.db.columns
            key = tuple(
                columns.vocabulary(pos).decode(code)
                for pos, code in zip(self.db.schema.positions(rule.lhs), key_codes)
            )
            counts = detector.partition_counts(rule, key)
            ranked = [(count, value) for value, count in counts.items()]
            ranked.sort(key=lambda pair: (-pair[0], str(pair[1])))
            if len(self._rhs_memo) >= _RHS_MEMO_CAPACITY:
                self._rhs_memo.clear()
                self._memo_clears["rhs"] += 1
            entry = self._rhs_memo[memo_key] = (version, [value for __, value in ranked])
        else:
            self._memo_hits["rhs"] += 1
        return [value for value in entry[1] if value != current]

    def _values_for_lhs(self, layout: _Layout, witness) -> set[object]:
        """``getValueForLHS``: rule constants plus context-agreeing values.

        Algorithm 1 operates entirely on ``t.vioRuleList``, so the
        "values in the CFDs" pool is drawn from the *violated* rules'
        patterns only — pooling constants from all of Σ would funnel
        unrelated constants into every dirty tuple's suggestions.
        Witness agreement (*witness* holds each rule with its witness
        columns and codes) is evaluated as a vectorized equality mask over the
        dictionary-encoded columns, and the agreeing tuples' values of
        the attribute are decoded via the column vocabulary.
        """
        pool: set[object] = set()
        attribute = layout.attribute
        columns = self.db.columns
        attr_pos = layout.pos
        version = self.db.version
        if version != self._witness_memo_version:
            self._witness_memo.clear()
            self._witness_memo_version = version
        for rule, positions, codes in witness:
            entry = rule.pattern.get(attribute)
            if entry is not None and rule.pattern.is_constant_on(attribute):
                pool.add(entry)
            if not positions:
                continue
            memo_key = (positions, codes, attr_pos)
            values = self._witness_memo.get(memo_key)
            if values is None:
                self._memo_misses["witness"] += 1
                # the tuple's own value re-enters the pool but is never
                # admissible (it equals the current value), so the
                # lookup is shareable across the whole witness group
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
    # decision memo maintenance
    # ------------------------------------------------------------------
    def _check_memo_stamp(self) -> None:
        """Clear the memo if the instance moved without a seen write."""
        version = self.db.version
        epoch = self.detector.rebuild_epoch
        if version != self._memo_version or epoch != self._memo_epoch:
            if self._decision_entries:
                self._clear_decisions()
                self._decision_structural_clears += 1
            self._memo_version = version
            self._memo_epoch = epoch

    def _clear_decisions(self) -> None:
        for layout in self._layouts.values():
            layout.clear()
        for group in self._groups.values():
            group.filter = 0
        self._decision_entries = 0

    def _on_write(self, change: CellChange) -> None:
        """Evict the memo entries whose candidate pool *change* moved.

        The written column ``A`` feeds a layout's group when ``A`` is
        among the group's columns or is the layout's attribute ``B``
        itself. Per such group, the written tuple's group before and
        after the write is the only one whose contents moved; an entry
        of that group is evicted when the group gained or lost a ``B``
        value (any change at all where ``str()`` is ambiguous on ``B``).
        A write the memo cannot account for — the database or detector
        moved in between — clears it.
        """
        version = self.db.version
        if not self._decision_entries:
            self._memo_version = version
            self._memo_epoch = self.detector.rebuild_epoch
            return
        if version - 1 != self._memo_version or self.detector.rebuild_epoch != self._memo_epoch:
            self._check_memo_stamp()
            return
        self._memo_version = version
        columns = self.db.columns
        pos = self.db.schema.position(change.attribute)
        row = columns.position_of(change.tid)
        row_codes = columns.gather_row(change.tid, np.arange(len(self.db.schema))).tolist()
        old_code = columns.code_for(pos, change.old)
        equal: dict[tuple[int, int], np.ndarray] = {}
        for group in self._groups_of_column.get(pos, ()):
            if not group.filter:
                continue
            group_positions, b_pos = group.positions, group.b_pos
            after = tuple(row_codes[p] for p in group_positions)
            candidates = [after]
            if pos != b_pos:
                before = tuple(old_code if p == pos else c for p, c in zip(group_positions, after))
                candidates.insert(0, before)
            # the value-set test runs only where an entry may read the group
            moved = set()
            bits = 0
            for codes in candidates:
                bit = 1 << (codes[0] & _FILTER_MASK)
                if group.filter & bit and self._group_moved(
                    group_positions, b_pos, codes, pos, row, row_codes, old_code, equal
                ):
                    moved.add(_pack(codes))
                    bits |= bit
            if not moved:
                continue
            for layout, slot, shift, width in group.readers:
                if layout.filters[slot] & bits:
                    evicted = layout.evict(shift, width, moved)
                    self._decision_entries -= evicted
                    self._decision_evictions += evicted

    def _group_moved(self, positions, b_pos, codes, pos, row, row_codes, old_code, equal) -> bool:
        """Did the write at column *pos* of storage *row* change the set
        of column-*b_pos* values among the rows agreeing with *codes* at
        *positions*?

        Read after the write, on the other rows of the group only (they
        did not move): when the written column is *b_pos* itself, the
        group lost the old code if no other row holds it and gained the
        new one if no other row held it; otherwise the written row left
        or joined the group with its own code, which moved the set if no
        other row of the group holds that code. *equal* caches one
        column-equals-code mask per ``(column, code)`` for the write.
        """
        if not self._str_is_injective(b_pos):
            return True
        columns = self.db.columns

        def rows_equal(p: int, code: int) -> np.ndarray:
            mask = equal.get((p, code))
            if mask is None:
                mask = equal[(p, code)] = columns.codes(p) == code
            return mask

        group = rows_equal(positions[0], codes[0])
        for p, code in zip(positions[1:], codes[1:]):
            group = group & rows_equal(p, code)

        def others_hold(b_code: int) -> bool:
            held = group & rows_equal(b_pos, b_code)
            return np.count_nonzero(held) > held[row]

        if pos == b_pos:
            return not others_hold(old_code) or not others_hold(row_codes[pos])
        return not others_hold(row_codes[b_pos])

    def _str_is_injective(self, pos: int) -> bool:
        """True while ``str()`` tells apart every value column *pos* has
        held and every rule constant on it — then selection is
        independent of candidate order (ties break on the string form).

        Vocabularies are append-only, so the verdict is re-checked only
        when the column gained values, and an ambiguity is permanent.
        """
        vocab = self.db.columns.vocabulary(pos)
        size = len(vocab)
        checked = self._str_injective.get(pos)
        if checked is not None and (checked[0] == size or not checked[1]):
            return checked[1]
        attribute = self.db.schema.attributes[pos]
        values = vocab.decode_many(range(size))
        for rule in self.rules:
            if rule.rhs == attribute and rule.is_constant:
                values.append(rule.rhs_constant)
            elif attribute in rule.lhs and rule.pattern.is_constant_on(attribute):
                values.append(rule.pattern.get(attribute))
        if all(type(value) is str for value in values):
            injective = True
        else:
            distinct = dict.fromkeys(values)
            injective = len({str(value) for value in distinct}) == len(distinct)
        self._str_injective[pos] = (size, injective)
        return injective

    # ------------------------------------------------------------------
    # decision memo reference (read by the parity tests)
    # ------------------------------------------------------------------
    def decision_entries(self) -> list[tuple]:
        """Every memo entry as ``(attribute, rules, signature codes,
        prevented values, decision)``, in memo order (the prevented
        values are empty for an unprevented cell's entry)."""
        self._check_memo_stamp()
        out = []
        none: frozenset = frozenset()
        for layout in self._layouts.values():
            width = len(layout.positions)
            head = (layout.attribute, layout.rules)
            for key, decision in layout.decisions.items():
                out.append((*head, _unpack(key, width), none, decision))
            for (key, prevented), decision in layout.prevented.items():
                out.append((*head, _unpack(key, width), prevented, decision))
        return out

    def redecide(
        self, attribute: str, rules: tuple, codes: tuple, prevented=frozenset()
    ) -> tuple[object | None, float]:
        """Algorithm 1 decided afresh for one memo signature.

        Builds the pools through a throwaway generator (no memo of this
        one is read) and scores them with the scalar Eq. 7 reference in
        place of a :class:`~repro.repair.similarity.SimilarityCache` (a
        plain *sim* function is used as is); the reference a memo entry
        must equal.
        """
        sim = similarity if isinstance(self.sim, SimilarityCache) else self.sim
        fresh = UpdateGenerator(self.db, self.rules, self.detector, RepairState(), sim=sim)
        try:
            layout = fresh._layout(attribute, rules)
            current = self.db.columns.vocabulary(layout.pos).decode(codes[0])
            pools = fresh._pools(layout, codes, current)
            return fresh._select_best(attribute, current, pools, prevented)
        finally:
            fresh.detach()

    # ------------------------------------------------------------------
    def _select_best(
        self, attribute: str, current, pools, prevented
    ) -> tuple[object | None, float]:
        """Batch-scored :func:`~repro.repair.similarity.best_candidate`
        for one cell: the admissible candidates scored as a batch of one
        request (see :func:`_pick`)."""
        admissible = _admissible(current, pools, prevented)
        if not admissible:
            return _NO_DECISION
        pos = self.db.schema.position(attribute)
        return _pick(admissible, self._score_batch([(pos, current, admissible)])[0])

    def _score_batch(self, requests) -> list[list[float]]:
        """Eq. 7 scores of ``(column position, current value,
        candidates)`` requests: one batched
        :meth:`~repro.repair.similarity.SimilarityCache.scores` call
        when the similarity function offers it, one call per pair
        otherwise."""
        scores = getattr(self.sim, "scores", None)
        if scores is not None:
            return scores(requests)
        sim = self.sim
        return [[sim(current, value) for value in values] for __, current, values in requests]

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters for the generator's three memos.

        ``decision_memo_size`` counts memo entries; evictions count
        entries dropped because a write moved their pool, structural
        clears count wholesale drops after an insert, delete or detector
        rebuild, and ``decision_memo_clears`` counts capacity clears.
        """
        out: dict[str, int] = {
            "witness_memo_size": len(self._witness_memo),
            "witness_memo_capacity": _WITNESS_MEMO_CAPACITY,
            "rhs_memo_size": len(self._rhs_memo),
            "rhs_memo_capacity": _RHS_MEMO_CAPACITY,
            "decision_memo_size": self._decision_entries,
            "decision_memo_capacity": _DECISION_MEMO_CAPACITY,
            "decision_memo_evictions": self._decision_evictions,
            "decision_memo_structural_clears": self._decision_structural_clears,
        }
        for memo in ("witness", "rhs", "decision"):
            out[f"{memo}_memo_hits"] = self._memo_hits[memo]
            out[f"{memo}_memo_misses"] = self._memo_misses[memo]
            out[f"{memo}_memo_clears"] = self._memo_clears[memo]
        return out

    def detach(self) -> None:
        """Stop watching writes and release the generator's derived caches."""
        self.db.remove_listener(self._on_write)
        self._witness_memo.clear()
        self._witness_memo_version = -1
        self._rhs_memo.clear()
        self._layouts.clear()
        self._layout_of_mask.clear()
        self._groups.clear()
        self._groups_of_column.clear()
        self._decision_entries = 0
        self._memo_version = -1
        self._memo_epoch = -1
