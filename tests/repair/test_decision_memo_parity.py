"""Parity of the write-surviving Algorithm 1 decision memo.

:class:`~repro.repair.generator.UpdateGenerator` keeps its decisions
across writes and evicts, per write, only the entries whose candidate
pool the write moved (see :meth:`UpdateGenerator._on_write`). A stale
entry must never show: after every step of a random interaction — user
feedback routed through the consistency manager, external
``db.set_value`` writes, inserts, deletes and detector rebuilds — every
memo entry must equal a decision computed afresh for its signature, and
``generate_for_cells`` must return what a fresh scalar generator's
``generate_for_cell`` returns, cell by cell. Every entry of the
engine's Eq. 7 similarity memo must equal the scalar ``similarity`` of
its decoded pair (``tests/oracles/similarity.py``).

Each instance carries one column where the values ``1`` and ``"1"``
share a string form inside one variable-rule partition. Their order in
the scenario-2 pool follows their counts, and selection breaks the tie
between them by pool order, so there a count change that keeps the
value set must still evict.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from repro.repair import Feedback, RepairState, UpdateGenerator, UserFeedback
from tests.oracles.similarity import stale_entries

_KINDS = (Feedback.CONFIRM, Feedback.REJECT, Feedback.RETAIN)

#: dataset -> (instance size, the RHS column of a variable rule that
#: holds both 1 and "1")
_INSTANCES = {"hospital": (60, "zip"), "adult": (80, "marital_status")}


def _engine(dataset: str):
    n, collide_attr = _INSTANCES[dataset]
    ds = load_dataset(dataset, n=n, seed=5)
    db = ds.fresh_dirty()
    # copies of one row sharing its partition value, whose collision
    # column holds 1 and "1" (equal scores and string forms against the
    # current value "12") in a mixed partition
    base = list(db.values_snapshot(db.tids()[0]))
    pos = db.schema.position(collide_attr)
    for value in (1, "1", 1, "12", "1", "12"):
        row = list(base)
        row[pos] = value
        db.insert(row)
    return GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr(seed=1))


def _clone_state(state: RepairState) -> RepairState:
    copy = RepairState()
    for update in state.updates():
        copy.put(update)
    for cell, values in state.prevented_map().items():
        for value in values:
            copy.prevent(cell, value)
    for cell in state.frozen_cells():
        copy.freeze(cell)
    return copy


def _assert_parity(engine) -> None:
    generator = engine.generator
    for attribute, rules, codes, prevented, decision in generator.decision_entries():
        fresh = generator.redecide(attribute, rules, codes, prevented)
        assert fresh == decision, (attribute, codes, prevented)
    detector = engine.detector
    cells = [
        (tid, attr)
        for tid in detector.dirty_tuples_ordered()
        for attr in generator._tuple_attrs(detector.violated_rules(tid))
    ]
    reference_state = _clone_state(engine.state)
    reference = UpdateGenerator(engine.db, engine.rules, detector, reference_state)
    try:
        want = [reference.generate_for_cell(*cell) for cell in cells]
    finally:
        reference.detach()
    assert generator.generate_for_cells(cells) == want
    assert not stale_entries(engine.sim_cache, engine.db.columns)


def _feedback(engine, a: int, b: int) -> None:
    live = engine.state.updates()
    if live:
        engine.manager.apply_feedback(live[a % len(live)], UserFeedback(_KINDS[b % 3]))


def _write(engine, dataset: str, a: int, b: int) -> None:
    db = engine.db
    tids = db.tids()
    if b % 5 == 0:
        # the collision column: a string twin, "12", or a value new to it
        attribute = _INSTANCES[dataset][1]
        value = (1, "1", "12", f"new-{a % 3}")[a % 4]
    else:
        attribute = db.schema.attributes[b % len(db.schema)]
        domain = sorted(db.domain(attribute), key=str)
        value = domain[(a // 7) % len(domain)]
    db.set_value(tids[a % len(tids)], attribute, value)


def _insert(engine, a: int, b: int) -> None:
    db = engine.db
    tids = db.tids()
    row = list(db.values_snapshot(tids[a % len(tids)]))
    other = db.values_snapshot(tids[b % len(tids)])
    pos = b % len(row)
    row[pos] = other[pos]
    engine.detector.add_tuple(db.insert(row))


def _delete(engine, a: int) -> None:
    db = engine.db
    tids = db.tids()
    tid = tids[a % len(tids)]
    for update in engine.state.updates_for_tuple(tid):
        engine.state.remove(update.cell)
    engine.detector.remove_tuple(tid)
    db.delete(tid)


def _run(dataset: str, steps) -> None:
    engine = _engine(dataset)
    _assert_parity(engine)
    for op, a, b in steps:
        if op == "feedback":
            _feedback(engine, a, b)
        elif op == "write":
            _write(engine, dataset, a, b)
        elif op == "insert":
            _insert(engine, a, b)
        elif op == "delete":
            _delete(engine, a)
        else:
            engine.detector.recompute()
        _assert_parity(engine)


_OPS = ["feedback"] * 3 + ["write"] * 4 + ["insert", "delete", "recompute"]
_STEP = st.tuples(st.sampled_from(_OPS), st.integers(0, 10**6), st.integers(0, 10**6))


@pytest.mark.parametrize("dataset", ["hospital", "adult"])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(steps=st.lists(_STEP, min_size=1, max_size=10))
def test_memo_equals_fresh_decisions(dataset, steps):
    _run(dataset, steps)


@pytest.mark.parametrize("dataset", ["hospital", "adult"])
def test_deterministic_churn_keeps_parity(dataset):
    """User and external writes only: parity after every step, and the
    memo both survives writes and evicts on them."""
    engine = _engine(dataset)
    _assert_parity(engine)
    for i in range(24):
        if i % 2:
            _feedback(engine, 7 * i + 1, 3 * i)
        else:
            _write(engine, dataset, 11 * i + 3, 5 * (i // 2) + (i % 4))
        _assert_parity(engine)
    stats = engine.health()["generator"]
    assert stats["decision_memo_evictions"] > 0
    assert stats["decision_memo_structural_clears"] == 0
    assert stats["decision_memo_hits"] > stats["decision_memo_misses"]


@pytest.mark.parametrize("dataset", ["hospital", "adult"])
def test_string_twins_reorder_without_changing_the_value_set(dataset):
    """Moving one row of the partition between ``1`` and ``"1"`` keeps
    the partition's value set but flips their pool order, hence the
    decision of the ``"12"`` rows."""
    engine = _engine(dataset)
    db = engine.db
    collide_attr = _INSTANCES[dataset][1]
    twins = [tid for tid in db.tids() if db.value(tid, collide_attr) in (1, "1")]
    flips = set()
    for value in ("1", 1, "1", 1):
        db.set_value(twins[0], collide_attr, value)
        _assert_parity(engine)
        flips.update(
            repr(u.value)
            for u in engine.state.updates()
            if u.attribute == collide_attr and db.value(u.tid, collide_attr) == "12"
        )
    assert {"1", "'1'"} <= flips


@pytest.mark.parametrize("dataset", ["hospital", "adult"])
def test_prevented_decisions_follow_their_groups(dataset):
    """A rejected suggestion leaves a memoised decision for the cell and
    its prevented values; a partner write that adds a close value to the
    cell's group must reach that decision too."""
    engine = _engine(dataset)
    db, generator = engine.db, engine.generator
    checked = 0
    for update in engine.state.updates():
        if checked == 3:
            break
        if engine.state.get(update.cell) != update:
            continue
        engine.manager.apply_feedback(update, UserFeedback(Feedback.REJECT))
        tid, attribute = update.cell
        mask = engine.detector.violation_masks().get(tid)
        layout = generator._mask_layout(attribute, mask) if mask else None
        if layout is None or not layout.groups:
            continue
        positions = list(layout.groups[0][0].positions)
        codes = db.columns.gather_row(tid, positions).tolist()
        partners = [
            other
            for other in db.tids()
            if other != tid and db.columns.gather_row(other, positions).tolist() == codes
        ]
        if not partners:
            continue
        assert any(entry[3] for entry in generator.decision_entries())
        db.set_value(partners[0], attribute, f"{db.value(tid, attribute)}x")
        _assert_parity(engine)
        checked += 1
    assert checked == 3
