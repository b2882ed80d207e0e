"""Violation detection and bookkeeping for CFDs (paper Definition 1).

The detector maintains, incrementally under cell updates:

* per rule, the set of *violating* tuples and the pairwise violation
  count ``vio(D, {φ})`` of Definition 1;
* per rule, the *context size* ``|D(φ)|`` (tuples matching the LHS
  pattern) and the *satisfying count* ``|D ⊨ φ|`` (context tuples not in
  violation) used by the quality-loss equations;
* the global dirty-tuple set, kept in an *ordered* incremental view so
  consumers never re-sort it, and each tuple's violated-rule list.

For a variable CFD, context tuples are partitioned by their LHS values;
a partition of size ``G`` with RHS value counts ``{c_v}`` contributes
``G² − Σ c_v²`` pairwise violations and ``G`` violating tuples when it
holds more than one distinct RHS value (otherwise zero). Single-cell
updates touch at most two partitions per rule, so maintenance is cheap.

Full builds run on the database's dictionary-encoded code matrix:
context masks are vectorized code comparisons, and the per-partition
``G² − Σ c_v²`` counts come from ``np.unique``/``np.bincount`` group-id
arithmetic instead of per-tuple Python loops. The pre-columnar
per-tuple build survives as the *reference* path, and
:meth:`ViolationDetector.verify` cross-checks the incremental state
against fresh rebuilds through **both** paths.

The *what-if* API answers "how would applying update ⟨t, A, v⟩ change
``vio`` and ``|D ⊨ φ|``" — the quantities of Eq. 6. The batched
:meth:`ViolationDetector.what_if_many` evaluates every candidate repair
for a cell in one pass: the tuple's removal from its partitions is
computed once, then each candidate costs O(1) reads of the partition
statistics. The scalar :meth:`ViolationDetector.what_if` is a thin
wrapper over the batched path; the original apply-and-revert
implementation (byte-identical to the real update path) is kept as
``_what_if_reference`` for parity testing.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from collections.abc import Mapping

import numpy as np

from repro.constraints.cfd import CFD
from repro.constraints.repository import RuleSet
from repro.db.changelog import CellChange
from repro.db.columnar import ColumnStore
from repro.db.database import Database

__all__ = ["DirtyDelta", "ViolationDetector", "WhatIfOutcome"]

#: Sentinel distinguishing "no LHS constant on this column" from a
#: constant that happens to equal ``None``.
_ABSENT = object()

#: Probe-signature cache bound (tuples tracked at once); the cache is
#: cleared wholesale when it fills — signatures are one gather to
#: recompute.
_SIG_CACHE_CAPACITY = 1 << 20


class WhatIfOutcome(
    namedtuple("WhatIfOutcome", ["vio_before", "vio_after", "satisfying_after", "vio_reduction"])
):
    """Effect of a hypothetical single-cell update on one rule.

    A named tuple (not a dataclass): the batched what-if path creates
    one outcome per rule per candidate, and tuple construction is the
    cheapest immutable record Python offers. ``vio_reduction`` is
    materialised as a fourth field (derived in ``__new__``, not a
    property) because the VOI arithmetic reads it once per rule per
    candidate — far more often than outcomes are created.

    Attributes
    ----------
    vio_before / vio_after:
        ``vio(D, {φ})`` and ``vio(D^r, {φ})`` of Eq. 6.
    satisfying_after:
        ``|D^r ⊨ φ|``, the number of context tuples satisfying the rule
        after the hypothetical update.
    vio_reduction:
        ``vio(D,{φ}) − vio(D^r,{φ})``: positive when the update helps.
    """

    __slots__ = ()

    def __new__(cls, vio_before: int, vio_after: int, satisfying_after: int, vio_reduction=None):
        # the fourth parameter exists so namedtuple machinery that passes
        # all fields back in (_replace, _make, copy, pickle) keeps
        # working; the stored value is always re-derived so the
        # invariant vio_reduction == vio_before - vio_after holds
        return tuple.__new__(
            cls, (vio_before, vio_after, satisfying_after, vio_before - vio_after)
        )

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make bypasses __new__ via tuple.__new__; route it
        # through __new__ so _replace/_make re-derive vio_reduction
        return cls(*iterable)


class _OutcomeMap(Mapping):
    """Read-only ``rule -> WhatIfOutcome`` view over parallel lists.

    Building a real dict per probe re-hashes every rule key; with 40+
    rules per attribute that dominates the batched what-if. This view
    shares one prebuilt ``rule -> position`` index per attribute, so
    constructing a result is two attribute writes, and keys are only
    hashed on explicit lookups. :class:`collections.abc.Mapping`
    supplies dict-compatible equality, ``get``, and containment.
    ``keys``/``values``/``items`` hand out fresh lists (ordinary dict
    views are lazy re-lookups, which would re-hash every key) — the
    internal lists are shared across probes and must never escape.
    """

    __slots__ = ("_rules", "_outcomes", "_index")

    def __init__(self, rules: list, outcomes: list, index: dict) -> None:
        self._rules = rules
        self._outcomes = outcomes
        self._index = index

    def __getitem__(self, rule):
        position = self._index.get(rule)
        if position is None:
            raise KeyError(rule)
        return self._outcomes[position]

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def keys(self):
        return list(self._rules)

    def values(self):
        return list(self._outcomes)

    def items(self):
        return list(zip(self._rules, self._outcomes))

    def __repr__(self) -> str:
        return repr(dict(zip(self._rules, self._outcomes)))


class DirtyDelta:
    """Cursor over dirty-set transitions for one delta consumer.

    Handed out by :meth:`ViolationDetector.dirty_delta`; the detector
    adds every tuple whose dirty status *flips* (clean→dirty or
    dirty→clean) to the cursor. Consumers call :meth:`poll` to drain
    what accumulated since their last poll and walk only those tuples
    instead of the whole dirty set.
    """

    __slots__ = ("_touched", "_full")

    def __init__(self) -> None:
        self._touched: set[int] = set()
        # a fresh cursor has seen nothing yet; the first poll tells the
        # consumer to do one full sweep, as does any detector rebuild
        self._full = True

    def poll(self) -> tuple[int, ...] | None:
        """Tuples whose dirty status flipped since the last poll.

        Returns ``None`` when everything may have changed (first poll,
        or the detector rebuilt its statistics from scratch) — the
        consumer must fall back to a full sweep.
        """
        if self._full:
            self._full = False
            self._touched.clear()
            return None
        touched = tuple(sorted(self._touched))
        self._touched.clear()
        return touched


class _DirtyTracker:
    """Ordered incremental view of the dirty-tuple set.

    Keeps, per tuple, a bitmask of the rule states currently marking it
    violating (bit ``i`` is the detector's ``i``-th state) and the
    tuples with a nonzero mask in a sorted list — the generator and the
    consistency manager iterate dirty tuples in tid order on every
    refresh, and this view replaces their per-call ``sorted(...)`` over
    the whole dirty set. The masks double as the per-tuple violated-rule
    index: reading a tuple's rules walks its set bits in state order
    instead of probing every rule state. Status flips are fanned out to
    registered :class:`DirtyDelta` cursors.
    """

    __slots__ = ("_masks", "_ordered", "_sinks")

    def __init__(self) -> None:
        self._masks: dict[int, int] = {}
        self._ordered: list[int] = []
        self._sinks: list[DirtyDelta] = []

    def add_sink(self, sink: DirtyDelta) -> None:
        self._sinks.append(sink)

    def increment(self, tid: int, bit: int) -> None:
        mask = self._masks.get(tid, 0)
        self._masks[tid] = mask | bit
        if mask == 0:
            insort(self._ordered, tid)
            for sink in self._sinks:
                sink._touched.add(tid)

    def decrement(self, tid: int, bit: int) -> None:
        mask = self._masks[tid] & ~bit
        if mask == 0:
            del self._masks[tid]
            del self._ordered[bisect_left(self._ordered, tid)]
            for sink in self._sinks:
                sink._touched.add(tid)
        else:
            self._masks[tid] = mask

    def rebuild(self, states) -> None:
        masks: dict[int, int] = {}
        get = masks.get
        for state in states:
            bit = state.bit
            for tid in state.violating:
                masks[tid] = get(tid, 0) | bit
        self._masks = masks
        self._ordered = sorted(masks)
        for sink in self._sinks:
            sink._full = True

    def mask(self, tid: int) -> int:
        """Bitmask of the states marking *tid* violating (0 when clean)."""
        return self._masks.get(tid, 0)

    def contains(self, tid: int) -> bool:
        return tid in self._masks

    def as_set(self) -> set[int]:
        return set(self._masks)

    def ordered(self) -> tuple[int, ...]:
        return tuple(self._ordered)

    def __len__(self) -> int:
        return len(self._masks)


class _ConstantRuleState:
    """Violation bookkeeping for one constant CFD."""

    __slots__ = (
        "rule",
        "bit",
        "_tracker",
        "_lhs_pos",
        "_rhs_pos",
        "_lhs_consts",
        "_rhs_const",
        "context",
        "violating",
    )

    def __init__(self, rule: CFD, db: Database, tracker: _DirtyTracker, bit: int) -> None:
        self.rule = rule
        # this state's bit in the tracker's per-tuple violated-state masks
        self.bit = bit
        self._tracker = tracker
        schema = db.schema
        self._lhs_pos = schema.positions(rule.lhs)
        self._rhs_pos = schema.position(rule.rhs)
        self._lhs_consts = [
            (schema.position(attr), value) for attr, value in rule.lhs_constants().items()
        ]
        self._rhs_const = rule.rhs_constant
        self.context: set[int] = set()
        self.violating: set[int] = set()

    def reset(self) -> None:
        self.context.clear()
        self.violating.clear()

    def matches_lhs(self, values) -> bool:
        for pos, const in self._lhs_consts:
            if values[pos] != const:
                return False
        return True

    def _mark(self, tid: int) -> None:
        if tid not in self.violating:
            self.violating.add(tid)
            self._tracker.increment(tid, self.bit)

    def _unmark(self, tid: int) -> None:
        if tid in self.violating:
            self.violating.remove(tid)
            self._tracker.decrement(tid, self.bit)

    def update_cell(self, tid: int, values) -> bool:
        """Re-evaluate tuple *tid* whose values are now *values*.

        Returns True when the rule's observable statistics moved. For a
        constant rule every statistic the what-if and weight arithmetic
        read — ``len(context)``, ``len(violating)`` — is a set size, so
        the statistics move exactly when the tuple's context or
        violating membership toggles.
        """
        if self.matches_lhs(values):
            moved = tid not in self.context
            if moved:
                self.context.add(tid)
            if values[self._rhs_pos] != self._rhs_const:
                if tid not in self.violating:
                    self._mark(tid)
                    moved = True
            elif tid in self.violating:
                self._unmark(tid)
                moved = True
            return moved
        moved = tid in self.context
        if moved:
            self.context.discard(tid)
        if tid in self.violating:
            self._unmark(tid)
            moved = True
        return moved

    def drop_tuple(self, tid: int) -> None:
        """Forget tuple *tid* entirely (pre-deletion hook)."""
        self.context.discard(tid)
        self._unmark(tid)

    # -- columnar full build ----------------------------------------------
    def bulk_build(self, cols: ColumnStore) -> None:
        """Vectorized rebuild from the dictionary-encoded columns."""
        if len(cols) == 0:
            return
        mask = None
        for pos, const in self._lhs_consts:
            code = cols.code_for(pos, const)
            if code < 0:
                return  # constant never stored: empty context
            eq = cols.codes(pos) == code
            mask = eq if mask is None else (mask & eq)
        tids = cols.tids()
        rhs_codes = cols.codes(self._rhs_pos)
        if mask is not None:
            tids = tids[mask]
            rhs_codes = rhs_codes[mask]
        self.context = set(tids.tolist())
        rhs_code = cols.code_for(self._rhs_pos, self._rhs_const)
        self.violating = set(tids[rhs_codes != rhs_code].tolist())

    # -- queries ----------------------------------------------------------
    @property
    def total_vio(self) -> int:
        return len(self.violating)

    @property
    def violating_count(self) -> int:
        return len(self.violating)

    @property
    def context_size(self) -> int:
        return len(self.context)

    def vio_tuple(self, tid: int) -> int:
        return 1 if tid in self.violating else 0

    def is_violating(self, tid: int) -> bool:
        return tid in self.violating

def _bulk_build_single_const(
    states: list[_ConstantRuleState], q: int, cols: ColumnStore
) -> None:
    """Shared columnar build for constant rules keyed by one LHS column.

    Hospital-style rule sets carry dozens of constant CFDs over the same
    LHS attribute (one per zip code). Instead of one full-column scan
    per rule, partition the column once (argsort + boundaries) and hand
    every rule its constant's row slice.
    """
    n = len(cols)
    if n == 0:
        return
    col = cols.codes(q)
    order = np.argsort(col, kind="stable")
    codes_sorted = col[order]
    tids_sorted = cols.tids()[order].tolist()
    uniq, starts = np.unique(codes_sorted, return_index=True)
    bounds = starts.tolist()
    bounds.append(n)
    span_of = {code: (bounds[i], bounds[i + 1]) for i, code in enumerate(uniq.tolist())}
    rhs_cache: dict[int, list[int]] = {}
    for state in states:
        span = span_of.get(cols.code_for(q, state._lhs_consts[0][1]))
        if span is None:
            continue  # constant never stored: empty context
        lo, hi = span
        tids_slice = tids_sorted[lo:hi]
        state.context = set(tids_slice)
        rhs_pos = state._rhs_pos
        rhs_sorted = rhs_cache.get(rhs_pos)
        if rhs_sorted is None:
            rhs_sorted = rhs_cache[rhs_pos] = cols.codes(rhs_pos)[order].tolist()
        rhs_code = cols.code_for(rhs_pos, state._rhs_const)
        state.violating = {
            tid for tid, rc in zip(tids_slice, rhs_sorted[lo:hi]) if rc != rhs_code
        }


class _ConstantProbePlan:
    """Sparse batched what-if over all constant CFDs touching one attribute.

    Per probed cell, a scalar what-if must report an outcome for every
    rule touching the attribute — on the hospital workload that is 40
    constant rules per ``zip`` probe, and per-rule evaluation dominates
    the VOI hot path. The plan exploits the sparsity of a single-cell
    probe instead of scanning rules: writing ``t[A] = v`` can only move
    the statistics of

    * a rule whose LHS constant on ``A`` equals the tuple's *current*
      code (the tuple may leave its context) or equals ``v``'s code
      (the tuple may enter it) — found by one reverse-index lookup
      ``constant code -> rule indices``;
    * a rule with ``A`` as RHS whose context contains the tuple —
      found by a reverse index over the rule's single LHS-constant
      column;
    * the rare general rules (multi-constant LHS, wildcard mixes),
      which are checked individually.

    Everything else reuses one cached "unchanged" outcome per rule,
    re-snapshotted only when the detector's epoch moves (i.e. after real
    writes) — a probe burst between writes costs a few dictionary
    lookups and touches two or three rules, no matter how many rules
    share the attribute.

    Rule constants are *encoded into* the column vocabularies (not just
    looked up), so code equality is exact value equality even for
    constants that never occur in the data.
    """

    __slots__ = (
        "states",
        "rules",
        "_cols",
        "_pos",
        "_code_of",
        "_simple_by_code",
        "_rhs_ctx_maps",
        "_check",
        "_state_codes",
        "_epoch",
        "_vio_list",
        "_ctx_list",
        "_unchanged",
    )

    def __init__(self, states: list[_ConstantRuleState], pos: int, cols: ColumnStore) -> None:
        self.states = states
        self.rules = [state.rule for state in states]
        self._cols = cols
        self._pos = pos
        # probes look codes up without allocating: a candidate value that
        # was never stored maps to -1, which can never equal a stored row
        # code or a pre-encoded rule-constant code, so the arithmetic
        # stays exact and the vocabulary does not grow with probe traffic
        self._code_of = cols.vocabulary(pos).code_of
        # constant code on the probed column -> rule indices (rules whose
        # whole LHS pattern is that one constant)
        self._simple_by_code: dict[int, list[int]] = {}
        # per LHS-constant column: code -> indices of RHS-probed rules
        rhs_maps: dict[int, dict[int, list[int]]] = {}
        # general rules, evaluated individually on every probe
        self._check: list[int] = []
        # per rule: ([(column, constant code), ...], rhs column, rhs constant code)
        self._state_codes: list[tuple[list[tuple[int, int]], int, int]] = []
        for i, state in enumerate(states):
            consts = [
                (q, cols.vocabulary(q).encode(c)) for q, c in state._lhs_consts
            ]
            rhs_code = cols.vocabulary(state._rhs_pos).encode(state._rhs_const)
            self._state_codes.append((consts, state._rhs_pos, rhs_code))
            if state._rhs_pos == pos:
                # probe hits the RHS: the rule moves iff the tuple is in context
                if len(consts) == 1:
                    q, code = consts[0]
                    rhs_maps.setdefault(q, {}).setdefault(code, []).append(i)
                else:
                    self._check.append(i)
            else:
                at_pos = [code for q, code in consts if q == pos]
                if not at_pos:
                    # probe on a wildcard LHS column: context and RHS are
                    # both untouched — the rule can never move
                    continue
                if len(consts) == 1:
                    self._simple_by_code.setdefault(at_pos[0], []).append(i)
                else:
                    self._check.append(i)
        self._rhs_ctx_maps = list(rhs_maps.items())
        self._epoch = -1
        self._vio_list: list[int] = []
        self._ctx_list: list[int] = []
        self._unchanged: list[WhatIfOutcome] = []

    def refresh(self, epoch: int) -> None:
        """Re-snapshot per-rule aggregates after the detector changed."""
        if epoch == self._epoch:
            return
        self._vio_list = [len(state.violating) for state in self.states]
        self._ctx_list = [len(state.context) for state in self.states]
        self._unchanged = [
            WhatIfOutcome(vio, vio, ctx - vio)
            for vio, ctx in zip(self._vio_list, self._ctx_list)
        ]
        self._epoch = epoch

    def _scalar_outcome(self, i: int, row: int, vcode: int) -> WhatIfOutcome:
        """Exact outcome for rule *i*, from codes alone."""
        consts, rhs_pos, rhs_const = self._state_codes[i]
        code_at = self._cols.code_at
        pos = self._pos
        in_before = in_after = True
        for q, code in consts:
            if q == pos:
                if code_at(row, q) != code:
                    in_before = False
                if vcode != code:
                    in_after = False
            elif code_at(row, q) != code:
                in_before = in_after = False
                break
        rhs_before = code_at(row, rhs_pos)
        rhs_after = vcode if rhs_pos == pos else rhs_before
        viol_before = in_before and rhs_before != rhs_const
        viol_after = in_after and rhs_after != rhs_const
        vio_before = self._vio_list[i]
        vio_after = vio_before - viol_before + viol_after
        sat_after = self._ctx_list[i] - in_before + in_after - vio_after
        return WhatIfOutcome(vio_before, vio_after, sat_after)

    def _base_indices(self, row: int, row_code: int) -> tuple | list:
        """Candidate-independent rule indices a probe on *row* can move.

        The rules the tuple might currently be in context of: simple
        LHS-constant rules matching the row's current code, RHS-probed
        rules whose context contains the row, and the always-checked
        general shapes. Shared by :meth:`outcomes_many` and
        :meth:`moved_many` — the dense/sparse parity guarantee depends
        on both reading the same index set.
        """
        code_at = self._cols.code_at
        base = self._simple_by_code.get(row_code, ())
        for q, cmap in self._rhs_ctx_maps:
            hits = cmap.get(code_at(row, q))
            if hits:
                base = list(base) + hits if base else hits
        if self._check:
            base = list(base) + self._check
        return base

    def outcomes_many(self, tid: int, values: list) -> list[list[WhatIfOutcome]]:
        """Per candidate, one outcome per rule (aligned with ``rules``)."""
        cols = self._cols
        row = cols.position_of(tid)
        row_code = cols.code_at(row, self._pos)
        simple = self._simple_by_code
        base = self._base_indices(row, row_code)
        unchanged = self._unchanged
        results: list[list[WhatIfOutcome]] = []
        for value in values:
            vcode = self._code_of(value)
            if vcode == row_code:
                results.append(unchanged)
                continue
            idxs = simple.get(vcode, ())
            if base:
                idxs = list(idxs) + list(base) if idxs else base
            if not idxs:
                results.append(unchanged)
                continue
            outcomes = list(unchanged)
            for i in idxs:
                outcomes[i] = self._scalar_outcome(i, row, vcode)
            results.append(outcomes)
        return results

    def moved_many(self, tid: int, values: list) -> list[list[tuple[int, WhatIfOutcome]]]:
        """Per candidate, ``(rule index, outcome)`` pairs that *moved*.

        The sparse companion of :meth:`outcomes_many`: only rules whose
        violation count would change (``vio_reduction != 0``) are
        reported, in ascending rule-index order — every omitted rule's
        outcome is its cached "unchanged" snapshot, which contributes
        exactly zero to the Eq. 6 sum. No full per-candidate outcome
        list is materialised.
        """
        cols = self._cols
        row = cols.position_of(tid)
        row_code = cols.code_at(row, self._pos)
        simple = self._simple_by_code
        base = self._base_indices(row, row_code)
        results: list[list[tuple[int, WhatIfOutcome]]] = []
        empty: list[tuple[int, WhatIfOutcome]] = []
        for value in values:
            vcode = self._code_of(value)
            if vcode == row_code:
                results.append(empty)
                continue
            idxs = simple.get(vcode, ())
            if base:
                idxs = list(idxs) + list(base) if idxs else base
            if not idxs:
                results.append(empty)
                continue
            moved: list[tuple[int, WhatIfOutcome]] = []
            for i in sorted(idxs):
                outcome = self._scalar_outcome(i, row, vcode)
                if outcome[3] != 0:  # vio_reduction
                    moved.append((i, outcome))
            results.append(moved)
        return results



class _WritePlan:
    """Per-attribute dispatch of real writes to the rules they can move.

    The incremental maintenance path used to replay every write through
    *every* rule state touching the written attribute — on the hospital
    workload that is 40+ constant CFDs per ``zip`` write, almost all of
    which are no-ops (the tuple is in neither the old nor the new
    constant's context). Mirroring :class:`_ConstantProbePlan`, the
    write plan exploits the sparsity of a single-cell write: setting
    ``t[A] = new`` (from ``old``) can only move

    * a constant rule with an LHS constant on ``A`` equal to ``old``
      (the tuple may leave its context) or to ``new`` (it may enter) —
      one reverse-index lookup ``constant code -> rule states``;
    * a constant rule with ``A`` as RHS whose single-constant LHS
      matches the tuple's current row — a reverse index over that LHS
      column's codes;
    * variable rules and rare general shapes (multi-constant LHS with
      the RHS on ``A``, wildcard mixes), which always re-evaluate.

    Rule constants are *encoded into* the column vocabularies at plan
    build, so code equality is exact value equality even for constants
    absent from the data.
    """

    __slots__ = ("_always", "_lhs_by_code", "_rhs_ctx", "_code_of", "_cols")

    def __init__(self, states: list, pos: int, cols: ColumnStore) -> None:
        self._cols = cols
        self._code_of = cols.vocabulary(pos).code_of
        always: list = []
        lhs_by_code: dict[int, list] = {}
        rhs_maps: dict[int, dict[int, list]] = {}
        for state in states:
            if not isinstance(state, _ConstantRuleState):
                always.append(state)
                continue
            consts = state._lhs_consts
            consts_on_pos = [c for q, c in consts if q == pos]
            if state._rhs_pos == pos:
                if len(consts) == 1 and consts[0][0] != pos:
                    q, const = consts[0]
                    code = cols.vocabulary(q).encode(const)
                    rhs_maps.setdefault(q, {}).setdefault(code, []).append(state)
                else:
                    always.append(state)
            elif consts_on_pos:
                code = cols.vocabulary(pos).encode(consts_on_pos[0])
                lhs_by_code.setdefault(code, []).append(state)
            else:
                # constant rule listed under A without a constant on A
                # and with its RHS elsewhere — defensively re-evaluate
                always.append(state)
        self._always = always
        self._lhs_by_code = lhs_by_code
        self._rhs_ctx = list(rhs_maps.items())

    def affected(self, tid: int, old: object, new: object) -> list:
        """Rule states whose statistics the write ``old -> new`` may move."""
        states = list(self._always)
        lhs = self._lhs_by_code
        if lhs:
            # old != new is guaranteed by set_value's no-op check, and
            # vocabulary codes follow dict equality, so the two lookups
            # can never return the same bucket
            hits = lhs.get(self._code_of(old))
            if hits:
                states.extend(hits)
            hits = lhs.get(self._code_of(new))
            if hits:
                states.extend(hits)
        if self._rhs_ctx:
            cols = self._cols
            row = cols.position_of(tid)
            for q, cmap in self._rhs_ctx:
                hits = cmap.get(cols.code_at(row, q))
                if hits:
                    states.extend(hits)
        return states


class _Group:
    """One LHS-value partition of a variable CFD's context.

    After a columnar full build the per-value tid buckets stay *lazy*:
    the group holds a slice descriptor into the build's partition-sorted
    arrays and materialises its ``{value: {tids}}`` dict only when a
    mutation or a partner/histogram query actually touches the group.
    ``size`` and ``distinct`` are always available without
    materialising.
    """

    __slots__ = ("_members", "size", "_lazy")

    def __init__(self) -> None:
        self._members: dict[object, set[int]] = {}
        self.size = 0
        # (shared build arrays, first pair index, one-past-last pair index)
        self._lazy: tuple | None = None

    @property
    def members(self) -> dict[object, set[int]]:
        if self._lazy is not None:
            (pair_val_idx, starts, ends, tids_sorted, rhs_values), lo, hi = self._lazy
            members = {}
            for pi in range(lo, hi):
                members[rhs_values[pair_val_idx[pi]]] = set(tids_sorted[starts[pi] : ends[pi]])
            self._members = members
            self._lazy = None
        return self._members

    def count(self, value: object) -> int:
        bucket = self.members.get(value)
        return len(bucket) if bucket is not None else 0

    @property
    def distinct(self) -> int:
        if self._lazy is not None:
            return self._lazy[2] - self._lazy[1]
        return len(self._members)

    def all_tids(self) -> list[int]:
        if self._lazy is not None:
            # pairs of one partition are contiguous in the sorted layout
            (__, starts, ends, tids_sorted, __v), lo, hi = self._lazy
            return tids_sorted[starts[lo] : ends[hi - 1]]
        tids: list[int] = []
        for bucket in self._members.values():
            tids.extend(bucket)
        return tids


class _PartitionClock:
    """Detector-wide tick stamping variable-rule partition movements."""

    __slots__ = ("tick",)

    def __init__(self) -> None:
        self.tick = 0


class _VariableRuleState:
    """Violation bookkeeping for one variable CFD.

    ``part_versions`` maps a partition key to the :class:`_PartitionClock`
    tick of its last incremental change (absent: unchanged since the
    last full build). A cached what-if outcome that read a partition is
    current exactly while the partition's version is no newer than the
    tick the outcome was computed at.
    """

    __slots__ = (
        "rule",
        "bit",
        "_tracker",
        "_clock",
        "_lhs_pos",
        "_rhs_pos",
        "_lhs_consts",
        "_key_idx_of",
        "groups",
        "membership",
        "part_versions",
        "total_vio",
        "violating",
        "context_size",
    )

    def __init__(
        self,
        rule: CFD,
        db: Database,
        tracker: _DirtyTracker,
        bit: int,
        clock: _PartitionClock,
    ) -> None:
        self.rule = rule
        self.bit = bit
        self._tracker = tracker
        self._clock = clock
        schema = db.schema
        self._lhs_pos = schema.positions(rule.lhs)
        self._rhs_pos = schema.position(rule.rhs)
        self._lhs_consts = [
            (schema.position(attr), value) for attr, value in rule.lhs_constants().items()
        ]
        self._key_idx_of = {p: i for i, p in enumerate(self._lhs_pos)}
        self.groups: dict[tuple[object, ...], _Group] = {}
        self.membership: dict[int, tuple[tuple[object, ...], object]] = {}
        self.part_versions: dict[tuple[object, ...], int] = {}
        self.total_vio = 0
        self.violating: set[int] = set()
        self.context_size = 0

    def reset(self) -> None:
        self.groups.clear()
        self.membership.clear()
        self.part_versions.clear()
        self.violating.clear()
        self.total_vio = 0
        self.context_size = 0

    def matches_lhs(self, values) -> bool:
        for pos, const in self._lhs_consts:
            if values[pos] != const:
                return False
        return True

    def key_of(self, values) -> tuple[object, ...]:
        return tuple(values[p] for p in self._lhs_pos)

    def _mark(self, tid: int) -> None:
        if tid not in self.violating:
            self.violating.add(tid)
            self._tracker.increment(tid, self.bit)

    def _unmark(self, tid: int) -> None:
        if tid in self.violating:
            self.violating.remove(tid)
            self._tracker.decrement(tid, self.bit)

    # -- incremental core ------------------------------------------------
    def _touch(self, key: tuple[object, ...]) -> None:
        clock = self._clock
        clock.tick += 1
        self.part_versions[key] = clock.tick

    def _remove(self, tid: int) -> None:
        key, value = self.membership.pop(tid)
        self._touch(key)
        group = self.groups[key]
        size = group.size
        cv = group.count(value)
        self.total_vio -= 2 * (size - cv)
        distinct_before = group.distinct
        distinct_after = distinct_before - 1 if cv == 1 else distinct_before
        was_mixed = distinct_before >= 2
        stays_mixed = distinct_after >= 2
        bucket = group.members[value]
        bucket.discard(tid)
        if not bucket:
            del group.members[value]
        group.size = size - 1
        if was_mixed and not stays_mixed:
            self._unmark(tid)
            for member in group.all_tids():
                self._unmark(member)
        elif was_mixed:
            self._unmark(tid)
        if group.size == 0:
            del self.groups[key]
        self.context_size -= 1

    def _add(self, tid: int, key: tuple[object, ...], value: object) -> None:
        self._touch(key)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = _Group()
        size = group.size
        cv = group.count(value)
        self.total_vio += 2 * (size - cv)
        distinct_before = group.distinct
        distinct_after = distinct_before + 1 if cv == 0 else distinct_before
        becomes_mixed = distinct_after >= 2
        if becomes_mixed and distinct_before < 2:
            for member in group.all_tids():
                self._mark(member)
            self._mark(tid)
        elif becomes_mixed:
            self._mark(tid)
        group.members.setdefault(value, set()).add(tid)
        group.size = size + 1
        self.membership[tid] = (key, value)
        self.context_size += 1

    def update_cell(self, tid: int, values) -> bool:
        """Re-evaluate tuple *tid* whose values are now *values*.

        Returns True when the rule's statistics may have moved. A
        variable rule's what-if arithmetic reads partition internals
        (group sizes, per-value counts), so any remove/add cycle counts
        as movement; only a tuple outside the context both before and
        after is a provable no-op.
        """
        in_before = tid in self.membership
        if in_before:
            self._remove(tid)
        if self.matches_lhs(values):
            self._add(tid, self.key_of(values), values[self._rhs_pos])
            return True
        return in_before

    def drop_tuple(self, tid: int) -> None:
        """Forget tuple *tid* entirely (pre-deletion hook)."""
        if tid in self.membership:
            self._remove(tid)

    # -- columnar full build ----------------------------------------------
    def bulk_build(self, cols: ColumnStore) -> None:
        """Vectorized rebuild from the dictionary-encoded columns.

        Context masks, LHS partition ids and the per-partition
        ``G² − Σ c_v²`` counts are all computed with array arithmetic;
        the Python-side group/membership structures (needed by the
        incremental path and the partner queries) are then assembled in
        bulk from the sorted partition layout.
        """
        if len(cols) == 0:
            return
        mask = None
        for pos, const in self._lhs_consts:
            code = cols.code_for(pos, const)
            if code < 0:
                return
            eq = cols.codes(pos) == code
            mask = eq if mask is None else (mask & eq)
        tids = cols.tids()
        if mask is not None:
            ctx = np.nonzero(mask)[0]
        else:
            ctx = np.arange(len(cols))
        m = int(ctx.size)
        if m == 0:
            return
        ctx_tids = tids[ctx]

        # dense partition ids from the LHS code columns (re-compressed
        # after every column so the combined key never overflows int64)
        lhs_cols = [cols.codes(p)[ctx] for p in self._lhs_pos]
        combined = lhs_cols[0]
        if len(lhs_cols) > 1:
            # fuse the key columns arithmetically (codes are dense, so the
            # vocabulary sizes bound each digit) — one np.unique total
            combined = combined.astype(np.int64)
            bound = len(cols.vocabulary(self._lhs_pos[0]))
            for p, col in zip(self._lhs_pos[1:], lhs_cols[1:]):
                card = len(cols.vocabulary(p))
                if bound * card >= 2**62:  # pragma: no cover - very wide keys
                    combined = np.unique(combined, return_inverse=True)[1]
                    bound = int(combined.max()) + 1
                combined = combined * card + col
                bound *= card
        uniq_keys, gid = np.unique(combined, return_inverse=True)
        ngroups = len(uniq_keys)
        sizes = np.bincount(gid, minlength=ngroups)

        # (partition, RHS value) pair statistics
        rhs_codes = cols.codes(self._rhs_pos)[ctx]
        rhs_uniq, rhs_inv = np.unique(rhs_codes, return_inverse=True)
        n_rhs = len(rhs_uniq)
        pair = gid * n_rhs + rhs_inv
        order = np.argsort(pair, kind="stable")
        pair_sorted = pair[order]
        starts = np.nonzero(np.concatenate(([True], pair_sorted[1:] != pair_sorted[:-1])))[0]
        ends = np.concatenate((starts[1:], [m]))
        pair_counts = ends - starts
        pair_gid = pair_sorted[starts] // n_rhs
        distinct = np.bincount(pair_gid, minlength=ngroups)
        self.total_vio = int(
            (sizes.astype(np.int64) ** 2).sum() - (pair_counts.astype(np.int64) ** 2).sum()
        )
        self.context_size = m
        mixed = distinct >= 2
        self.violating = set(ctx_tids[mixed[gid]].tolist())

        # decode one representative row per partition into a key tuple
        first_rows = np.zeros(ngroups, dtype=np.int64)
        first_rows[gid[::-1]] = np.arange(m - 1, -1, -1)
        key_columns = [
            cols.vocabulary(p).decode_many(col[first_rows].tolist())
            for p, col in zip(self._lhs_pos, lhs_cols)
        ]
        keys = list(zip(*key_columns))
        rhs_values = cols.vocabulary(self._rhs_pos).decode_many(rhs_uniq.tolist())

        group_list = [_Group() for __ in range(ngroups)]
        self.groups = dict(zip(keys, group_list))
        # per-value tid buckets stay lazy: groups keep a slice into the
        # shared partition-sorted layout and materialise on first touch
        shared = (
            (pair_sorted[starts] % n_rhs).tolist(),
            starts.tolist(),
            ends.tolist(),
            ctx_tids[order].tolist(),
            rhs_values,
        )
        gbounds = np.searchsorted(pair_gid, np.arange(ngroups + 1)).tolist()
        for g, (group, size) in enumerate(zip(group_list, sizes.tolist())):
            group.size = size
            group._lazy = (shared, gbounds[g], gbounds[g + 1])
        key_per_row = [keys[g] for g in gid.tolist()]
        rhs_per_row = [rhs_values[i] for i in rhs_inv.tolist()]
        self.membership = dict(zip(ctx_tids.tolist(), zip(key_per_row, rhs_per_row)))

    # -- queries ----------------------------------------------------------
    @property
    def violating_count(self) -> int:
        return len(self.violating)

    def vio_tuple(self, tid: int) -> int:
        entry = self.membership.get(tid)
        if entry is None:
            return 0
        key, value = entry
        group = self.groups[key]
        return group.size - group.count(value)

    def is_violating(self, tid: int) -> bool:
        return tid in self.violating

    def partners(self, tid: int) -> set[int]:
        """Tuples violating the rule together with *tid*."""
        entry = self.membership.get(tid)
        if entry is None:
            return set()
        key, value = entry
        group = self.groups[key]
        others: set[int] = set()
        for other_value, bucket in group.members.items():
            if other_value != value:
                others.update(bucket)
        return others

    def group_value_counts(self, tid: int) -> dict[object, int]:
        """RHS value histogram of *tid*'s partition (empty if out of context)."""
        entry = self.membership.get(tid)
        if entry is None:
            return {}
        group = self.groups[entry[0]]
        return {value: len(bucket) for value, bucket in group.members.items()}

    def group_members(self, tid: int) -> set[int]:
        """All tuples in *tid*'s partition, including *tid* itself."""
        entry = self.membership.get(tid)
        if entry is None:
            return set()
        return set(self.groups[entry[0]].all_tids())

    # -- batched what-if ---------------------------------------------------
    def what_if_many(
        self, tid: int, row, pos: int, current, candidates, reads: list | None = None
    ) -> list[WhatIfOutcome]:
        """Outcomes of hypothetically writing each candidate into the cell.

        The tuple's removal from its current partition is computed once;
        every candidate is then an O(1) read of the partition statistics
        ("one pass over partition stats" — no apply/revert cycles, no
        state mutation). With a *reads* list, one tuple per candidate is
        appended naming the partition keys its outcome's
        ``vio_reduction`` and satisfying-count delta depend on.
        """
        vio_before = self.total_vio
        viol_count = len(self.violating)
        identity = None

        entry = self.membership.get(tid)
        if entry is not None:
            key0, val0 = entry
            group0 = self.groups[key0]
            size0 = group0.size
            c0 = group0.count(val0)
            base_vio = vio_before - 2 * (size0 - c0)
            distinct0 = group0.distinct
            distinct0_after = distinct0 - 1 if c0 == 1 else distinct0
            base_viol = (
                viol_count
                - (size0 if distinct0 >= 2 else 0)
                + (size0 - 1 if distinct0_after >= 2 else 0)
            )
            base_ctx = self.context_size - 1
            base_key = key0
        else:
            key0 = None
            group0 = None
            size0 = c0 = distinct0_after = 0
            base_vio = vio_before
            base_viol = viol_count
            base_ctx = self.context_size
            base_key = self.key_of(row)

        others_match = True
        pos_const = _ABSENT
        if self._lhs_consts:
            for p, c in self._lhs_consts:
                if p == pos:
                    pos_const = c
                elif row[p] != c:
                    others_match = False
                    break
        key_idx = self._key_idx_of.get(pos)
        is_rhs = pos == self._rhs_pos
        rhs_current = row[self._rhs_pos]

        lifted = (key0,) if entry is not None else ()
        outcomes = []
        for value in candidates:
            if value == current:
                if identity is None:
                    identity = WhatIfOutcome(
                        vio_before, vio_before, self.context_size - viol_count
                    )
                outcomes.append(identity)
                if reads is not None:
                    reads.append(())
                continue
            in_ctx = others_match and (pos_const is _ABSENT or value == pos_const)
            if not in_ctx:
                outcomes.append(WhatIfOutcome(vio_before, base_vio, base_ctx - base_viol))
                if reads is not None:
                    reads.append(lifted)
                continue
            if key_idx is None:
                new_key = base_key
            else:
                new_key = base_key[:key_idx] + (value,) + base_key[key_idx + 1 :]
            if reads is not None:
                reads.append(lifted if new_key == key0 else lifted + (new_key,))
            new_val = value if is_rhs else rhs_current
            if entry is not None and new_key == key0:
                # re-entering the partition the tuple was lifted from
                size_n = size0 - 1
                cnt_n = group0.count(new_val) - (1 if new_val == val0 else 0)
                dist_n = distinct0_after
            else:
                group = self.groups.get(new_key)
                if group is None:
                    size_n = cnt_n = dist_n = 0
                else:
                    size_n = group.size
                    cnt_n = group.count(new_val)
                    dist_n = group.distinct
            vio_after = base_vio + 2 * (size_n - cnt_n)
            dist_after = dist_n + (1 if cnt_n == 0 else 0)
            viol_after = (
                base_viol
                - (size_n if dist_n >= 2 else 0)
                + (size_n + 1 if dist_after >= 2 else 0)
            )
            outcomes.append(WhatIfOutcome(vio_before, vio_after, base_ctx + 1 - viol_after))
        return outcomes


class ViolationDetector:
    """Incremental CFD-violation tracker over a live database.

    The detector registers itself as a database listener at
    construction and stays consistent under every subsequent
    :meth:`~repro.db.database.Database.set_value`. Full builds run
    vectorized over the database's code matrix by default; pass
    ``build="reference"`` to use the per-tuple Python path (the two are
    cross-checked by :meth:`verify`).

    Examples
    --------
    >>> from repro.db import Database, Schema
    >>> from repro.constraints import RuleSet, parse_rules
    >>> db = Database(Schema("r", ["zip", "city"]),
    ...               [["46360", "Westville"], ["46360", "Michigan City"]])
    >>> rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
    >>> det = ViolationDetector(db, rules)
    >>> det.dirty_tuples()
    {0}
    >>> db.set_value(0, "city", "Michigan City")
    >>> det.dirty_tuples()
    set()
    """

    def __init__(self, db: Database, rules: RuleSet, build: str = "columnar") -> None:
        for rule in rules:
            rule.validate_schema(db.schema)
        self.db = db
        self.rules = rules
        self._tracker = _DirtyTracker()
        # bumped on every statistics change; probe plans re-snapshot
        # their cached per-rule aggregates when it moves
        self._epoch = 0
        # bumped by full rebuilds, inserts and deletes: the events after
        # which no cached what-if outcome may be trusted
        self._rebuild_epoch = 0
        self._partition_clock = _PartitionClock()
        # per-rule statistics versions: a rule's version moves only when
        # its observable statistics actually changed (not merely when a
        # write re-evaluated it), the finest staleness granularity the
        # ranking caches stamp against
        self._rule_versions: dict[CFD, int] = {rule: 0 for rule in rules}
        # per-attribute aggregates over the per-rule versions: an
        # attribute's version is the sum of the versions of the rules
        # touching it, maintained eagerly so cache stamps stay O(1)
        self._attr_versions: dict[str, int] = {a: 0 for a in db.schema.attributes}
        self._write_plans: dict[str, _WritePlan] = {}
        self._probe_plans: dict[
            str,
            tuple[
                _ConstantProbePlan | None,
                list[_VariableRuleState],
                list[CFD],
                dict[CFD, int],
                np.ndarray,
            ],
        ] = {}
        self._states: list[_ConstantRuleState | _VariableRuleState] = []
        self._state_by_rule: dict[CFD, _ConstantRuleState | _VariableRuleState] = {}
        self._states_by_attr: dict[str, list[_ConstantRuleState | _VariableRuleState]] = {}
        # tid -> {attribute -> probe signature}; a tuple's signatures
        # only change when one of its own cells is written (vocabulary
        # codes are append-only and position moves don't re-encode)
        self._sig_cache: dict[int, dict[str, bytes]] = {}
        self._sig_cache_hits = 0
        self._sig_cache_misses = 0
        self._sig_cache_clears = 0
        for i, rule in enumerate(rules):
            state: _ConstantRuleState | _VariableRuleState
            if rule.is_constant:
                state = _ConstantRuleState(rule, db, self._tracker, 1 << i)
            else:
                state = _VariableRuleState(
                    rule, db, self._tracker, 1 << i, self._partition_clock
                )
            self._states.append(state)
            self._state_by_rule[rule] = state
            for attr in rule.attributes:
                self._states_by_attr.setdefault(attr, []).append(state)
        self.recompute(build)
        db.add_listener(self._on_change)

    # ------------------------------------------------------------------
    def recompute(self, build: str = "columnar") -> None:
        """Rebuild all statistics from the current database content.

        ``build="columnar"`` (default) vectorizes over the dictionary
        encoded columns; ``build="reference"`` replays every tuple
        through the incremental per-cell path.
        """
        if build not in ("columnar", "reference"):
            raise ValueError(f"build must be 'columnar' or 'reference', got {build!r}")
        self._epoch += 1
        self._rebuild_epoch += 1
        self._bump_all_versions()
        for state in self._states:
            state.reset()
        if build == "columnar":
            cols = self.db.columns
            singles: dict[int, list[_ConstantRuleState]] = {}
            for state in self._states:
                if isinstance(state, _ConstantRuleState) and len(state._lhs_consts) == 1:
                    singles.setdefault(state._lhs_consts[0][0], []).append(state)
                else:
                    state.bulk_build(cols)
            for q, group_states in singles.items():
                _bulk_build_single_const(group_states, q, cols)
            self._tracker.rebuild(self._states)
        else:
            self._tracker.rebuild(())  # states mark through the tracker below
            for tid in self.db.tids():
                values = self.db.values_snapshot(tid)
                for state in self._states:
                    state.update_cell(tid, values)

    def _on_change(self, change: CellChange) -> None:
        self._sig_cache.pop(change.tid, None)
        states = self._states_by_attr.get(change.attribute)
        if not states:
            return
        plan = self._write_plans.get(change.attribute)
        if plan is None:
            plan = self._write_plans[change.attribute] = _WritePlan(
                states, self.db.schema.position(change.attribute), self.db.columns
            )
        affected = plan.affected(change.tid, change.old, change.new)
        if not affected:
            return
        values = self.db.values_snapshot(change.tid)
        versions = self._attr_versions
        rule_versions = self._rule_versions
        moved = False
        for state in affected:
            if state.update_cell(change.tid, values):
                moved = True
                rule_versions[state.rule] += 1
                for attr in state.rule.attributes:
                    versions[attr] += 1
        if moved:
            # probe plans re-snapshot their per-rule aggregates when the
            # epoch moves; a write that provably moved nothing keeps
            # every cached snapshot valid
            self._epoch += 1

    def _bump_all_versions(self) -> None:
        for rule in self._rule_versions:
            self._rule_versions[rule] += 1
            for attr in rule.attributes:
                self._attr_versions[attr] += 1

    @property
    def stats_epoch(self) -> int:
        """Monotone counter over the detector's observable statistics.

        Moves whenever any rule's violation/context statistics may have
        changed (writes that moved stats, inserts, deletes, rebuilds) —
        the coarsest staleness stamp the detector offers. Finer-grained
        consumers stamp against :meth:`rule_stats_version`,
        :attr:`partition_tick` or :attr:`rebuild_epoch` instead (the
        update generator's decision memo survives writes: it evicts on
        the write itself and clears only on a rebuild epoch move).
        """
        return self._epoch

    @property
    def rebuild_epoch(self) -> int:
        """Counter moved by :meth:`recompute`, :meth:`add_tuple` and
        :meth:`remove_tuple` — after which every cached what-if outcome
        is retired."""
        return self._rebuild_epoch

    @property
    def partition_tick(self) -> int:
        """Current variable-rule partition clock (see :meth:`partitions_moved`)."""
        return self._partition_clock.tick

    @staticmethod
    def partitions_moved(reads, tick: int) -> bool:
        """True when a partition in *reads* changed after clock *tick*.

        *reads* is one candidate's entry of the ``reads`` list filled by
        :meth:`what_if_moved_many`.
        """
        for versions, key in reads:
            if versions.get(key, 0) > tick:
                return True
        return False

    def rule_counts(self) -> tuple[list[CFD], np.ndarray, np.ndarray]:
        """Every rule (in rule-set order) with its ``|D(φ)|`` and
        ``|D ⊨ φ|`` as aligned ``int64`` arrays."""
        states = self._states
        context = np.fromiter((s.context_size for s in states), np.int64, len(states))
        violating = np.fromiter((len(s.violating) for s in states), np.int64, len(states))
        return [s.rule for s in states], context, context - violating

    @property
    def stats(self) -> dict[str, int]:
        """Cache-health counters for the probe-signature cache."""
        return {
            "sig_cache_size": len(self._sig_cache),
            "sig_cache_capacity": _SIG_CACHE_CAPACITY,
            "sig_cache_hits": self._sig_cache_hits,
            "sig_cache_misses": self._sig_cache_misses,
            "sig_cache_clears": self._sig_cache_clears,
        }

    def rule_stats_version(self, rule: CFD) -> int:
        """Statistics version of one rule.

        Moves only when the rule's observable statistics actually
        changed: a write that re-evaluated the rule without moving its
        violation/context statistics (the common case on wide constant
        rule sets, where a tuple is in neither the old nor the new
        constant's context) leaves the version untouched.
        """
        return self._rule_versions.get(rule, 0)

    def attr_stats_version(self, attribute: str) -> int:
        """Per-rule statistics version aggregate of one attribute.

        The sum of :meth:`rule_stats_version` over the rules touching
        *attribute* — it moves exactly when one of those rules' stats
        moved (and on every full rebuild). Consumers caching quantities
        derived from those statistics — Eq. 6 group benefits, rule
        weights — compare versions instead of recomputing; because the
        per-rule versions only move on real statistics changes, stamped
        caches skip re-scoring after writes that re-evaluated rules
        without moving them.
        """
        return self._attr_versions.get(attribute, 0)

    def dirty_delta(self) -> DirtyDelta:
        """Register and return a dirty-set delta cursor.

        The cursor accumulates every tuple whose dirty status flips;
        :meth:`DirtyDelta.poll` drains it. Used by the consistency
        manager to refresh suggestions in O(delta) instead of walking
        every dirty tuple.
        """
        cursor = DirtyDelta()
        self._tracker.add_sink(cursor)
        return cursor

    def add_tuple(self, tid: int) -> None:
        """Start tracking a tuple inserted after construction.

        The paper's online-monitoring scenario (§3): newly entered
        tuples are folded into the violation statistics immediately, so
        GDR can suggest updates during data entry.
        """
        self._epoch += 1
        self._rebuild_epoch += 1
        self._bump_all_versions()
        values = self.db.values_snapshot(tid)
        for state in self._states:
            state.update_cell(tid, values)

    def remove_tuple(self, tid: int) -> None:
        """Stop tracking a tuple that is about to be deleted."""
        self._epoch += 1
        self._rebuild_epoch += 1
        self._bump_all_versions()
        self._sig_cache.pop(tid, None)
        for state in self._states:
            state.drop_tuple(tid)

    def detach(self) -> None:
        """Stop tracking database updates."""
        self.db.remove_listener(self._on_change)

    # ------------------------------------------------------------------
    # per-tuple queries
    # ------------------------------------------------------------------
    def is_dirty(self, tid: int) -> bool:
        """True when *tid* violates at least one rule."""
        return self._tracker.contains(tid)

    def violated_rules(self, tid: int) -> list[CFD]:
        """The tuple's ``vioRuleList``: all rules it currently violates.

        Read off the tracker's per-tuple violated-state mask, in rule
        order, without probing every rule state.
        """
        return self.rules_in_mask(self._tracker.mask(tid))

    def violation_masks(self) -> Mapping[int, int]:
        """Per-tuple violated-rule bitmasks — the live map, **read only**.

        Bit ``i`` is set while the tuple violates the ``i``-th rule of
        the rule set; clean tuples are absent. The map is replaced by a
        rebuild, so callers look it up afresh per pass. For hot loops
        that bucket tuples by their violated-rule set (the suggestion
        engine) without building a rule list per tuple.
        """
        return self._tracker._masks

    def rules_in_mask(self, mask: int) -> list[CFD]:
        """The rules of a :meth:`violation_masks` bitmask, in rule order."""
        states = self._states
        rules = []
        while mask:
            low = mask & -mask
            rules.append(states[low.bit_length() - 1].rule)
            mask ^= low
        return rules

    def dirty_tuples(self) -> set[int]:
        """All tuples violating at least one rule (a copy)."""
        return self._tracker.as_set()

    def dirty_tuples_ordered(self) -> tuple[int, ...]:
        """All dirty tuples in ascending tid order.

        Maintained incrementally — consumers that previously ran
        ``sorted(detector.dirty_tuples())`` on every refresh iterate
        this instead.
        """
        return self._tracker.ordered()

    def dirty_count(self) -> int:
        """Number of dirty tuples (without materialising the set)."""
        return len(self._tracker)

    def vio_tuple(self, tid: int, rule: CFD) -> int:
        """``vio(t, {φ})`` of Definition 1."""
        return self._state_by_rule[rule].vio_tuple(tid)

    def partners(self, tid: int, rule: CFD) -> set[int]:
        """Tuples violating variable rule *rule* together with *tid*."""
        state = self._state_by_rule[rule]
        if isinstance(state, _VariableRuleState):
            return state.partners(tid)
        return set()

    def group_value_counts(self, tid: int, rule: CFD) -> dict[object, int]:
        """RHS value histogram of *tid*'s partition under a variable rule."""
        state = self._state_by_rule[rule]
        if isinstance(state, _VariableRuleState):
            return state.group_value_counts(tid)
        return {}

    def partition_counts(self, rule: CFD, key: tuple) -> dict[object, int]:
        """RHS value histogram of the partition with LHS values *key*.

        Empty when *rule* is constant or no context tuple carries those
        LHS values. The same histogram :meth:`group_value_counts` reads
        for a member tuple, addressed by the partition itself — the
        handle the suggestion engine memoises scenario-2 pools on.
        """
        state = self._state_by_rule[rule]
        if isinstance(state, _VariableRuleState):
            group = state.groups.get(key)
            if group is not None:
                return {value: len(bucket) for value, bucket in group.members.items()}
        return {}

    def group_members(self, tid: int, rule: CFD) -> set[int]:
        """All tuples sharing *tid*'s LHS partition under a variable rule."""
        state = self._state_by_rule[rule]
        if isinstance(state, _VariableRuleState):
            return state.group_members(tid)
        return set()

    def violating_tids(self, rule: CFD) -> set[int]:
        """Tuples currently violating *rule* (copy)."""
        return set(self._state_by_rule[rule].violating)

    # ------------------------------------------------------------------
    # per-rule aggregates
    # ------------------------------------------------------------------
    def vio_rule(self, rule: CFD) -> int:
        """``vio(D, {φ}) = Σ_t vio(t, {φ})`` for one rule."""
        return self._state_by_rule[rule].total_vio

    def vio_total(self) -> int:
        """``vio(D, Σ)``: total violations over all rules."""
        return sum(state.total_vio for state in self._states)

    def violating_tuple_count(self, rule: CFD) -> int:
        """Number of tuples currently violating *rule*."""
        return self._state_by_rule[rule].violating_count

    def context_size(self, rule: CFD) -> int:
        """``|D(φ)|``: tuples matching the rule's LHS pattern."""
        return self._state_by_rule[rule].context_size

    def satisfying_count(self, rule: CFD) -> int:
        """``|D ⊨ φ|``: context tuples not violating the rule."""
        state = self._state_by_rule[rule]
        return state.context_size - state.violating_count

    def weights(self) -> dict[CFD, float]:
        """Rule weights ``w_i = |D(φ_i)| / |D|`` (paper §4.1)."""
        n = max(1, len(self.db))
        return {state.rule: state.context_size / n for state in self._states}

    # ------------------------------------------------------------------
    # hypothetical updates (Eq. 6 inputs)
    # ------------------------------------------------------------------
    def what_if(self, tid: int, attribute: str, value: object) -> Mapping[CFD, WhatIfOutcome]:
        """Effect of hypothetically setting ``t[attribute] = value``.

        Thin wrapper over :meth:`what_if_many` with one candidate. Only
        rules touching *attribute* are reported; all other rules are
        unaffected by a single-cell update. The database itself is not
        modified.
        """
        return self.what_if_many(tid, attribute, (value,))[0]

    def what_if_many(
        self, tid: int, attribute: str, values
    ) -> list[Mapping[CFD, WhatIfOutcome]]:
        """Batched Eq. 6 probe: one outcome map per candidate value.

        Evaluates every candidate repair for cell ``⟨tid, attribute⟩``
        in a single pass over the partition statistics: the tuple's
        hypothetical removal is computed once per rule, then each
        candidate costs O(1) arithmetic — no apply/revert cycle per
        probe. Candidates equal to the current value yield identity
        outcomes, so callers may probe prevented or current values
        freely.
        """
        values = list(values)
        states = self._states_by_attr.get(attribute)
        if not states:
            return [{} for __ in values]
        pos = self.db.schema.position(attribute)
        plan, var_states, rules_all, rule_index, __ = self._plan_for(attribute, pos)
        if plan is not None:
            plan.refresh(self._epoch)
            const_rows = plan.outcomes_many(tid, values)
        else:
            const_rows = None
        if var_states:
            row = self.db.values_snapshot(tid)
            current = row[pos]
            var_rows = [
                state.what_if_many(tid, row, pos, current, values) for state in var_states
            ]
        else:
            var_rows = None
        results: list[Mapping[CFD, WhatIfOutcome]] = []
        for ci in range(len(values)):
            if const_rows is not None:
                outcomes = const_rows[ci]
                if var_rows is not None:
                    outcomes = outcomes + [rows[ci] for rows in var_rows]
            else:
                outcomes = [rows[ci] for rows in var_rows]
            results.append(_OutcomeMap(rules_all, outcomes, rule_index))
        return results

    def what_if_moved_many(
        self, tid: int, attribute: str, values, reads: list | None = None
    ) -> list[list[tuple[CFD, WhatIfOutcome]]]:
        """Sparse batched Eq. 6 probe: only the rules that would move.

        For each candidate value, the ``(rule, outcome)`` pairs with a
        nonzero ``vio_reduction``, ordered exactly like the rule
        iteration of :meth:`what_if_many` (constant rules in plan
        order, then variable rules). Every omitted rule's outcome has
        ``vio_reduction == 0`` and therefore contributes exactly zero
        to the Eq. 6 benefit sum — the VOI estimator's hot path reads
        this instead of materialising full outcome maps (on wide
        constant rule sets a single-cell probe moves two or three rules
        out of forty).

        With a *reads* list, one entry per candidate is appended: the
        ``(partition versions, partition key)`` pairs of every variable
        rule partition the candidate's outcomes depend on (constant-rule
        outcomes depend on the row's codes alone).
        :meth:`partitions_moved` tells whether an outcome is still
        current; :meth:`rebuild_epoch` retires all of them.
        """
        values = list(values)
        states = self._states_by_attr.get(attribute)
        if not states:
            if reads is not None:
                reads.extend(() for __ in values)
            return [[] for __ in values]
        pos = self.db.schema.position(attribute)
        plan, var_states, __, __, __ = self._plan_for(attribute, pos)
        if plan is not None:
            plan.refresh(self._epoch)
            const_rows = plan.moved_many(tid, values)
            rules = plan.rules
            results = [
                [(rules[i], outcome) for i, outcome in moved] for moved in const_rows
            ]
        else:
            results = [[] for __ in values]
        if not var_states:
            if reads is not None:
                reads.extend(() for __ in values)
            return results
        row = self.db.values_snapshot(tid)
        current = row[pos]
        candidate_reads = [[] for __ in values] if reads is not None else None
        for state in var_states:
            rule = state.rule
            state_reads = [] if candidate_reads is not None else None
            outcomes = state.what_if_many(tid, row, pos, current, values, state_reads)
            for ci, outcome in enumerate(outcomes):
                if outcome[3] != 0:  # vio_reduction
                    results[ci].append((rule, outcome))
            if candidate_reads is not None:
                versions = state.part_versions
                for out, keys in zip(candidate_reads, state_reads):
                    out.extend((versions, key) for key in keys)
        if reads is not None:
            reads.extend(candidate_reads)
        return results

    def what_if_moved_many_cells(self, cells):
        """Batched :meth:`what_if_moved_many` over many cells.

        *cells* is a sequence of ``(tid, attribute, values)`` probes;
        the result list is aligned with it, so a caller scoring many
        cells makes one call instead of one per cell.
        """
        return [
            self.what_if_moved_many(tid, attribute, values)
            for tid, attribute, values in cells
        ]

    def probe_signature(self, tid: int, attribute: str) -> bytes:
        """Codes of everything a what-if probe on ``⟨tid, attribute⟩`` reads.

        The tuple's dictionary codes at every column any rule touching
        *attribute* inspects (LHS constants, partition keys, RHS
        values, the probed column itself), packed into a hashable key.
        Two tuples with equal signatures are indistinguishable to
        :meth:`what_if_many` / :meth:`what_if_moved_many` for any
        candidate value — the batched VOI scorer shares one term
        computation across them (code equality is exactly the value
        equality every rule state compares by).
        """
        if attribute not in self._states_by_attr:
            # no rule touches the attribute: every probe is a no-op and
            # every row is indistinguishable
            return b""
        per_tid = self._sig_cache.get(tid)
        if per_tid is None:
            if len(self._sig_cache) >= _SIG_CACHE_CAPACITY:
                self._sig_cache.clear()
                self._sig_cache_clears += 1
            per_tid = self._sig_cache[tid] = {}
        else:
            cached = per_tid.get(attribute)
            if cached is not None:
                self._sig_cache_hits += 1
                return cached
        self._sig_cache_misses += 1
        __, __, __, __, probe_cols = self._plan_for(
            attribute, self.db.schema.position(attribute)
        )
        signature = self.db.columns.gather_row(tid, probe_cols).tobytes()
        per_tid[attribute] = signature
        return signature

    def probe_signatures(self, tids, attribute: str) -> list[bytes]:
        """:meth:`probe_signature` of many tuples in one gather.

        Bypasses the per-tuple signature cache: callers that keep what
        they derive from signatures (the VOI key table) would otherwise
        hold every signature twice.
        """
        if attribute not in self._states_by_attr:
            return [b""] * len(tids)
        __, __, __, __, probe_cols = self._plan_for(
            attribute, self.db.schema.position(attribute)
        )
        cols = self.db.columns
        block = np.ascontiguousarray(
            cols.gather(probe_cols, cols.positions_of(tids)).T
        )
        row = np.dtype((np.void, block.shape[1] * block.itemsize))
        return block.view(row).ravel().tolist()

    def _plan_for(
        self, attribute: str, pos: int
    ) -> tuple[
        _ConstantProbePlan | None,
        list[_VariableRuleState],
        list[CFD],
        dict[CFD, int],
        np.ndarray,
    ]:
        """The attribute's probe plan, variable states, rule order, and
        the union of column positions any probe on the attribute reads
        (the :meth:`probe_signature` gather index)."""
        entry = self._probe_plans.get(attribute)
        if entry is None:
            states = self._states_by_attr[attribute]
            const_states = [s for s in states if isinstance(s, _ConstantRuleState)]
            var_states = [s for s in states if isinstance(s, _VariableRuleState)]
            plan = (
                _ConstantProbePlan(const_states, pos, self.db.columns)
                if const_states
                else None
            )
            rules_all = [s.rule for s in const_states] + [s.rule for s in var_states]
            rule_index = {rule: i for i, rule in enumerate(rules_all)}
            schema = self.db.schema
            probe_cols: set[int] = {pos}
            for state in states:
                probe_cols.update(schema.position(a) for a in state.rule.attributes)
            entry = (
                plan,
                var_states,
                rules_all,
                rule_index,
                np.array(sorted(probe_cols), dtype=np.int64),
            )
            self._probe_plans[attribute] = entry
        return entry

    def _what_if_reference(
        self, tid: int, attribute: str, value: object
    ) -> dict[CFD, WhatIfOutcome]:
        """Apply-and-revert what-if: byte-identical to the update path.

        The pre-batching implementation, kept as the ground truth the
        analytic paths are parity-tested against: the cell change is
        pushed through the same ``update_cell`` machinery as a real
        write, the statistics are read, and the change is replayed back.
        """
        states = self._states_by_attr.get(attribute)
        if not states:
            return {}
        values = list(self.db.values_snapshot(tid))
        pos = self.db.schema.position(attribute)
        old_value = values[pos]
        if old_value == value:
            return {
                state.rule: WhatIfOutcome(
                    vio_before=state.total_vio,
                    vio_after=state.total_vio,
                    satisfying_after=state.context_size - state.violating_count,
                )
                for state in states
            }
        outcomes: dict[CFD, WhatIfOutcome] = {}
        values[pos] = value
        for state in states:
            vio_before = state.total_vio
            state.update_cell(tid, values)
            outcomes[state.rule] = WhatIfOutcome(
                vio_before=vio_before,
                vio_after=state.total_vio,
                satisfying_after=state.context_size - state.violating_count,
            )
        # revert: replay the original values through the same path
        values[pos] = old_value
        for state in states:
            state.update_cell(tid, values)
        return outcomes

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Cross-check incremental state against fresh rebuilds.

        Intended for tests: rebuilds the statistics from scratch through
        **both** the columnar and the reference path and returns ``True``
        only when every maintained statistic (violation counts,
        violating sets, context sizes, variable-rule partitions and the
        ordered dirty view) matches both.
        """
        for build in ("columnar", "reference"):
            fresh = ViolationDetector(self.db, self.rules, build=build)
            fresh.detach()
            for rule in self.rules:
                mine = self._state_by_rule[rule]
                theirs = fresh._state_by_rule[rule]
                if mine.total_vio != theirs.total_vio:
                    return False
                if mine.violating != theirs.violating:
                    return False
                if mine.context_size != theirs.context_size:
                    return False
                if isinstance(mine, _ConstantRuleState):
                    if mine.context != theirs.context:
                        return False
                else:
                    if mine.membership != theirs.membership:
                        return False
                    if set(mine.groups) != set(theirs.groups):
                        return False
                    for key, group in mine.groups.items():
                        other = theirs.groups[key]
                        if group.size != other.size or group.members != other.members:
                            return False
        ordered = self.dirty_tuples_ordered()
        if list(ordered) != sorted(self.dirty_tuples()):
            return False
        for tid in ordered:
            scanned = [state.rule for state in self._states if state.is_violating(tid)]
            if self.violated_rules(tid) != scanned:
                return False
        union: set[int] = set()
        for state in self._states:
            union.update(state.violating)
        return union == self.dirty_tuples()

    def __repr__(self) -> str:
        return (
            f"ViolationDetector({len(self.rules)} rules, "
            f"{self.dirty_count()} dirty tuples, vio={self.vio_total()})"
        )
