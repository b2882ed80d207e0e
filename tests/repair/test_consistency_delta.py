"""Parity tests: O(delta) suggestion refresh vs the full-sweep reference.

Two identical substrates run the same scripted feedback/write scenario;
one refreshes via the delta path, the other via
:meth:`ConsistencyManager.refresh_suggestions_full`. After every round
the live suggestion pools must be identical.
"""

import random

import pytest

from repro.constraints import ViolationDetector
from repro.datasets import load_dataset
from repro.repair import (
    ConsistencyManager,
    Feedback,
    RepairState,
    UpdateGenerator,
    UserFeedback,
)


#: (dataset, data seed) instances the scripted parity scenarios sweep
SCENARIOS = [(dataset, seed) for dataset in ("hospital", "adult") for seed in (3, 5, 11)]


def _build(n=100, seed=3, dataset="hospital"):
    ds = load_dataset(dataset, n=n, seed=seed)
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    state = RepairState()
    generator = UpdateGenerator(db, ds.rules, detector, state)
    manager = ConsistencyManager(db, ds.rules, detector, state, generator)
    generator.generate_all()
    return ds, db, detector, state, generator, manager


def _scripted_scenario(dataset, seed):
    """Same feedback stream, delta vs full refresh → same pools."""
    ds_a, db_a, __, state_a, __, manager_a = _build(seed=seed, dataset=dataset)
    ds_b, db_b, __, state_b, __, manager_b = _build(seed=seed, dataset=dataset)
    rng = random.Random(17 + seed)
    manager_a.refresh_suggestions()
    manager_b.refresh_suggestions_full()
    assert state_a.updates() == state_b.updates()
    rounds = 0
    while rounds < 30 and len(state_a):
        updates_a = state_a.updates()
        updates_b = state_b.updates()
        assert updates_a == updates_b
        pick = rng.randrange(len(updates_a))
        update = updates_a[pick]
        clean_value = ds_a.clean.value(update.tid, update.attribute)
        roll = rng.random()
        if roll < 0.45:
            feedback = UserFeedback(Feedback.CONFIRM)
        elif roll < 0.7:
            feedback = UserFeedback(Feedback.REJECT, correction=clean_value)
        elif roll < 0.85:
            feedback = UserFeedback(Feedback.REJECT)
        else:
            feedback = UserFeedback(Feedback.RETAIN)
        manager_a.apply_feedback(updates_a[pick], feedback)
        manager_b.apply_feedback(updates_b[pick], feedback)
        manager_a.refresh_suggestions()
        manager_b.refresh_suggestions_full()
        where = f"{dataset} seed {seed} diverged at round {rounds}"
        assert state_a.updates() == state_b.updates(), where
        assert state_a.frozen_cells() == state_b.frozen_cells(), where
        assert db_a.equals_data(db_b), where
        rounds += 1
    assert rounds > 10


def _external_writes(dataset, seed):
    """Out-of-band writes on rule attributes (existing and new values),
    delta vs full refresh → same pools."""
    ds, db_a, __, state_a, __, manager_a = _build(seed=seed, dataset=dataset)
    __, db_b, __, state_b, __, manager_b = _build(seed=seed, dataset=dataset)
    manager_a.refresh_suggestions()
    manager_b.refresh_suggestions_full()
    rng = random.Random(23 + seed)
    tids = db_a.tids()
    attrs = sorted({attr for rule in ds.rules for attr in rule.attributes})
    for __round in range(12):
        tid = tids[rng.randrange(len(tids))]
        attr = rng.choice(attrs)
        # another tuple's value (moves partitions) or one new to the column
        value = rng.choice([db_a.value(rng.choice(tids), attr), f"new-{__round % 3}"])
        db_a.set_value(tid, attr, value)
        db_b.set_value(tid, attr, value)
        manager_a.refresh_suggestions()
        manager_b.refresh_suggestions_full()
        assert state_a.updates() == state_b.updates(), (
            f"{dataset} seed {seed} diverged at round {__round}"
        )


class TestDeltaRefreshParity:
    def test_scripted_scenario_stays_identical(self):
        for dataset, seed in SCENARIOS:
            _scripted_scenario(dataset, seed)

    def test_external_writes_parity(self):
        for dataset, seed in SCENARIOS:
            _external_writes(dataset, seed)

    def test_second_refresh_is_noop(self):
        __, __, __, state, __, manager = _build()
        manager.refresh_suggestions()
        pool = state.updates()
        assert manager.refresh_suggestions() == 0
        assert state.updates() == pool

    def test_invariants_hold_after_delta_rounds(self):
        ds, __, __, state, __, manager = _build(seed=9)
        manager.refresh_suggestions()
        rng = random.Random(31)
        for __round in range(15):
            updates = state.updates()
            if not updates:
                break
            update = updates[rng.randrange(len(updates))]
            manager.apply_feedback(update, UserFeedback(Feedback.CONFIRM))
            manager.refresh_suggestions()
            assert manager.check_invariants() == []


class TestUncoveredRetry:
    def test_uncoverable_dirty_tuple_retried_after_domain_change(self):
        """A dirty tuple with no admissible value is retried each round.

        After rejecting every candidate for a cell, the tuple sits dirty
        and uncovered; when the database changes elsewhere and a new
        admissible value appears, the delta refresh must pick it up —
        exactly like the full sweep does.
        """
        from repro.constraints import RuleSet, parse_rules
        from repro.db import Database, Schema

        schema = Schema("r", ["zip", "city"])
        db = Database(
            schema,
            [["46360", "Westville"], ["46360", "Michigan City"], ["46774", "New Haven"]],
        )
        rules = RuleSet(
            parse_rules("(zip -> city, {46360 || 'Michigan City'})"), schema=schema
        )
        detector = ViolationDetector(db, rules)
        state = RepairState()
        generator = UpdateGenerator(db, rules, detector, state)
        manager = ConsistencyManager(db, rules, detector, state, generator)
        generator.generate_all()
        manager.refresh_suggestions()
        # reject the only suggestions for tuple 0 until none remain
        guard = 0
        while state.updates_for_tuple(0) and guard < 10:
            update = state.updates_for_tuple(0)[0]
            manager.apply_feedback(update, UserFeedback(Feedback.REJECT))
            guard += 1
        manager.refresh_suggestions()
        assert detector.is_dirty(0)
        assert not state.covers_tuple(0)
        # no visible change for tuple 0, but each refresh retries it —
        # parity with the full sweep
        assert manager.refresh_suggestions() == 0
        assert not state.covers_tuple(0)


class TestStateIndexConsistency:
    def test_updates_for_tuple_matches_pool_scan(self):
        __, __, __, state, __, manager = _build(seed=13)
        manager.refresh_suggestions()
        pool = state.updates()
        tids = {u.tid for u in pool}
        for tid in tids:
            expected = [u for u in pool if u.tid == tid]
            assert state.updates_for_tuple(tid) == expected
            assert state.covers_tuple(tid)
        assert not state.covers_tuple(max(tids) + 10_000)
