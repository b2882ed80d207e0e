"""Batched suggestion-engine tests: `generate_for_cells` vs the per-cell
reference (``tests/oracles/suggest.py``)."""

import pytest

from repro.constraints import RuleSet, ViolationDetector, parse_rules
from repro.datasets import load_dataset
from repro.db import Database, Schema
from repro.repair import RepairState, SimilarityCache, UpdateGenerator
from tests.oracles.suggest import scalar


def _substrate(ds, per_cell=False):
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    state = RepairState()
    generator = UpdateGenerator(db, ds.rules, detector, state)
    if per_cell:
        scalar(generator)
    return db, detector, state, generator


def _rhs_values(gen, tid, rule):
    """Scenario-2 pool of tuple *tid* under variable rule *rule*."""
    columns = gen.db.columns
    row = columns.position_of(tid)
    key = tuple(columns.code_at(row, p) for p in gen.db.schema.positions(rule.lhs))
    return gen._values_for_rhs(rule, key, gen.db.value(tid, rule.rhs))


def _pool(state):
    return {u.cell: (u.value, u.score) for u in state.updates()}


@pytest.mark.parametrize("dataset,n", [("hospital", 200), ("adult", 150)])
def test_generate_all_matches_scalar(dataset, n):
    ds = load_dataset(dataset, n=n, seed=11)
    __, __, state_b, gen_b = _substrate(ds)
    __, __, state_s, gen_s = _substrate(ds, per_cell=True)
    produced_b = gen_b.generate_all()
    produced_s = gen_s.generate_all()
    assert [u.cell for u in produced_b] == [u.cell for u in produced_s]
    assert [(u.value, u.score) for u in produced_b] == [
        (u.value, u.score) for u in produced_s
    ]
    assert _pool(state_b) == _pool(state_s)


def test_generate_all_matches_scalar_with_code_space_cache():
    ds = load_dataset("hospital", n=150, seed=3)
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    state_b = RepairState()
    cache = SimilarityCache(db.columns)
    gen_b = UpdateGenerator(db, ds.rules, detector, state_b, sim=cache)
    gen_b.generate_all()
    __, __, state_s, gen_s = _substrate(ds, per_cell=True)
    gen_s.generate_all()
    assert _pool(state_b) == _pool(state_s)
    assert cache.stats["hits"] + cache.stats["misses"] > 0


def test_generate_for_cells_interleaves_like_per_cell_calls():
    ds = load_dataset("hospital", n=120, seed=5)
    db, detector, state, gen = _substrate(ds)
    dirty = list(detector.dirty_tuples_ordered())[:10]
    cells = []
    for tid in dirty:
        for rule in detector.violated_rules(tid):
            for attr in rule.attributes:
                if (tid, attr) not in cells:
                    cells.append((tid, attr))
    results = gen.generate_for_cells(cells)
    assert len(results) == len(cells)
    # aligned: result i concerns cell i
    for cell, update in zip(cells, results):
        if update is not None:
            assert update.cell == cell
            assert state.get(cell) == update


def test_prevented_cell_not_shared_with_witness_twin():
    """Two identical tuples: preventing one cell's best value must not
    leak into the twin's decision (and vice versa)."""
    rows = [["46360", "Westvile"], ["46360", "Westvile"]]
    schema = Schema("r", ["zip", "city"])
    db = Database(schema, rows)
    rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
    detector = ViolationDetector(db, rules)
    state = RepairState()
    gen = UpdateGenerator(db, rules, detector, state)
    state.prevent((0, "city"), "Michigan City")
    results = gen.generate_for_cells([(0, "city"), (1, "city")])
    assert results[0] is None  # only candidate prevented
    assert results[1] is not None and results[1].value == "Michigan City"


def test_witness_twins_share_one_decision():
    ds = load_dataset("hospital", n=100, seed=2)
    db, detector, state, gen = _substrate(ds)
    gen.generate_all()
    # duplicate a dirty tuple's suggestion situation: regenerate twice,
    # then cross-check the scalar path agrees cell by cell
    __, __, state_s, gen_s = _substrate(ds, per_cell=True)
    gen_s.generate_all()
    assert _pool(state) == _pool(state_s)


class TestRhsHistogramMemo:
    def _build(self):
        rows = [
            ["46391", "Fort Wayne", "Sherden RD"],
            ["46825", "Fort Wayne", "Sherden RD"],
            ["46825", "Fort Wayne", "Sherden RD"],
        ]
        schema = Schema("r", ["zip", "city", "street"])
        db = Database(schema, rows)
        rules = RuleSet(parse_rules("(street, city -> zip, {-, - || -})"), schema=schema)
        detector = ViolationDetector(db, rules)
        state = RepairState()
        gen = UpdateGenerator(db, rules, detector, state)
        return db, rules, detector, gen

    def test_partition_shares_one_histogram(self):
        db, rules, detector, gen = self._build()
        rule = next(iter(rules))
        first = _rhs_values(gen, 0, rule)
        assert first == ["46825"]
        assert len(gen._rhs_memo) == 1
        # the partner tuple reuses the same memo entry, filtered by its
        # own current value
        assert _rhs_values(gen, 1, rule) == ["46391"]
        assert len(gen._rhs_memo) == 1

    def test_stats_version_move_invalidates(self):
        db, rules, detector, gen = self._build()
        rule = next(iter(rules))
        assert _rhs_values(gen, 0, rule) == ["46825"]
        (memo_version, __), = gen._rhs_memo.values()
        db.set_value(2, "zip", "46391")
        # partition histogram is now {46391: 2, 46825: 1}; tuple 1
        # (current 46825) must see the re-ranked, re-filtered list
        assert _rhs_values(gen, 1, rule) == ["46391"]
        assert _rhs_values(gen, 0, rule) == ["46825"]
        (new_version, __), = gen._rhs_memo.values()
        assert new_version != memo_version

    def test_memo_capacity_clears(self):
        import repro.repair.generator as gen_mod

        db, rules, detector, gen = self._build()
        rule = next(iter(rules))
        _rhs_values(gen, 0, rule)
        old_capacity = gen_mod._RHS_MEMO_CAPACITY
        try:
            gen_mod._RHS_MEMO_CAPACITY = 0
            gen._rhs_memo.clear()
            _rhs_values(gen, 0, rule)
            assert len(gen._rhs_memo) <= 1
        finally:
            gen_mod._RHS_MEMO_CAPACITY = old_capacity

    def test_detach_clears_all_memos(self):
        db, rules, detector, gen = self._build()
        rule = next(iter(rules))
        _rhs_values(gen, 0, rule)
        gen.generate_for_tuple(0)
        gen.detach()
        assert gen._rhs_memo == {}
        assert gen._witness_memo == {}
        assert gen.decision_entries() == []


class TestCrossBatchDecisionMemo:
    def test_repeat_pass_skips_selection(self, monkeypatch):
        ds = load_dataset("hospital", n=120, seed=4)
        db, detector, state, gen = _substrate(ds)
        gen.generate_all()
        size = gen.stats["decision_memo_size"]
        assert size
        calls = []
        monkeypatch.setattr(
            gen,
            "_select_best",
            lambda *a, **k: calls.append(1) or (None, -1.0),
        )
        # a bucket's memo misses are queued for batched scoring
        monkeypatch.setattr(gen, "_queue_miss", lambda *a, **k: calls.append(1))
        # substrate unchanged: the second pass must answer every
        # unprevented cell from the carried memo
        before = _pool(state)
        gen.generate_all()
        assert calls == []
        assert _pool(state) == before
        assert gen.stats["decision_memo_size"] == size

    def test_db_write_invalidates(self):
        ds = load_dataset("hospital", n=120, seed=4)
        db, detector, state, gen = _substrate(ds)
        gen.generate_all()
        size = gen.stats["decision_memo_size"]
        tid = next(iter(detector.dirty_tuples()))
        # no rule reads the column: every decision survives
        db.set_value(tid, "complaint", "unrelated-write")
        assert gen.stats["decision_memo_size"] == size
        assert gen.stats["decision_memo_evictions"] == 0
        # a value new to the column moves the value set of the tuple's
        # groups: the entries reading them go, the others stay
        db.set_value(tid, "city", "a-city-never-seen")
        evicted = gen.stats["decision_memo_evictions"]
        assert 0 < evicted < size
        assert gen.stats["decision_memo_size"] == size - evicted
        # an insert is structural: the next pass starts from an empty memo
        db.insert(db.values_snapshot(tid))
        gen.generate_all()
        assert gen.stats["decision_memo_structural_clears"] == 1

    def test_carried_memo_matches_scalar_after_writes(self):
        # identical write sequence through one long-lived batched
        # generator (memo carried and invalidated across passes) and a
        # long-lived scalar reference; pools must agree after every pass
        ds = load_dataset("hospital", n=120, seed=9)
        db_b, det_b, state_b, gen_b = _substrate(ds)
        db_s, det_s, state_s, gen_s = _substrate(ds, per_cell=True)
        gen_b.generate_all()
        gen_s.generate_all()
        assert _pool(state_b) == _pool(state_s)
        victims = list(det_b.dirty_tuples_ordered())[:5]
        for tid in victims:
            updates = state_b.updates_for_tuple(tid)
            if not updates:
                continue
            update = updates[0]
            db_b.set_value(update.tid, update.attribute, update.value)
            db_s.set_value(update.tid, update.attribute, update.value)
            gen_b.generate_all()
            gen_s.generate_all()
            assert _pool(state_b) == _pool(state_s)

    def test_capacity_clears(self, monkeypatch):
        import repro.repair.generator as gen_mod

        ds = load_dataset("hospital", n=80, seed=4)
        __, __, __, gen = _substrate(ds)
        monkeypatch.setattr(gen_mod, "_DECISION_MEMO_CAPACITY", 1)
        gen.generate_all()
        assert gen.stats["decision_memo_size"] <= 1
        assert gen.stats["decision_memo_clears"] > 0

    def test_detach_clears(self):
        ds = load_dataset("hospital", n=80, seed=4)
        db, __, __, gen = _substrate(ds)
        gen.generate_all()
        gen.detach()
        assert gen.stats["decision_memo_size"] == 0
        assert gen.decision_entries() == []
        # detached: later writes reach no listener of the generator
        assert gen._on_write not in db._listeners


def test_regeneration_after_writes_matches_scalar():
    """Drive identical write sequences through both modes and compare
    the regenerated pools after every write."""
    ds = load_dataset("hospital", n=120, seed=9)
    db_b, det_b, state_b, gen_b = _substrate(ds)
    db_s, det_s, state_s, gen_s = _substrate(ds, per_cell=True)
    gen_b.generate_all()
    gen_s.generate_all()
    victims = list(det_b.dirty_tuples_ordered())[:8]
    for tid in victims:
        update_b = state_b.updates_for_tuple(tid)
        update_s = state_s.updates_for_tuple(tid)
        assert [(u.cell, u.value, u.score) for u in update_b] == [
            (u.cell, u.value, u.score) for u in update_s
        ]
        if not update_b:
            continue
        cell = update_b[0].cell
        db_b.set_value(*cell, update_b[0].value)
        db_s.set_value(*cell, update_s[0].value)
        regen_b = gen_b.generate_for_tuple(tid)
        regen_s = gen_s.generate_for_tuple(tid)
        assert [(u.cell, u.value, u.score) for u in regen_b] == [
            (u.cell, u.value, u.score) for u in regen_s
        ]
        assert _pool(state_b) == _pool(state_s)


def _scored_session(ds, queue_pairs, memo_capacity, sim_capacity):
    """A generate_all pass, a few writes each followed by a revisit of
    the written tuple's cells, and a second pass; returns everything the
    counters, memos and pool hold."""
    import repro.repair.generator as gen_mod

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gen_mod, "_QUEUE_PAIRS", queue_pairs)
        patch.setattr(gen_mod, "_DECISION_MEMO_CAPACITY", memo_capacity)
        db = ds.fresh_dirty()
        detector = ViolationDetector(db, ds.rules)
        state = RepairState()
        cache = SimilarityCache(db.columns, capacity=sim_capacity)
        gen = UpdateGenerator(db, ds.rules, detector, state, sim=cache)
        produced = [(u.cell, u.value, u.score) for u in gen.generate_all()]
        for tid in list(detector.dirty_tuples_ordered())[:6]:
            updates = state.updates_for_tuple(tid)
            if updates:
                db.set_value(updates[0].tid, updates[0].attribute, updates[0].value)
                cells = [(tid, attr) for attr in db.schema.attributes]
                gen.generate_for_cells(cells)
        gen.generate_all()
        stats = dict(cache.stats)
        batches = stats.pop("kernel_batches")
        del stats["kernel_pairs"]
        snapshot = (
            produced,
            _pool(state),
            gen.stats,
            stats,
            gen.decision_entries(),
            cache.sample_entries(len(cache)),
        )
        gen.detach()
    return snapshot, batches


class TestBatchedScoring:
    """Decision-memo misses are queued and scored in bounded batches.
    A zero pair budget scores every miss on its own; batching must not
    move a decision, a counter or a memo entry, also where the decision
    memo clears or the similarity cache purges mid-queue."""

    @pytest.mark.parametrize(
        "dataset,memo_capacity,sim_capacity",
        [
            ("hospital", 8192, 1 << 20),
            ("hospital", 7, 1 << 20),
            ("hospital", 8192, 23),
            ("adult", 5, 41),
        ],
    )
    def test_batches_match_one_miss_at_a_time(self, dataset, memo_capacity, sim_capacity):
        ds = load_dataset(dataset, n=150, seed=2)
        batched, batches = _scored_session(ds, 256, memo_capacity, sim_capacity)
        single, singles = _scored_session(ds, 0, memo_capacity, sim_capacity)
        assert batched == single
        assert batches < singles

    def test_pass_runs_bounded_kernel_batches(self):
        """A generation pass that looks up P candidate pairs calls the
        kernel at most ceil(P / budget) + 1 times: the queue is scored
        once it holds the budget, and once at the end of the pass."""
        from repro.repair.similarity import KERNEL_BUDGET

        ds = load_dataset("hospital", n=600, seed=0)
        db = ds.fresh_dirty()
        detector = ViolationDetector(db, ds.rules)
        cache = SimilarityCache(db.columns)
        gen = UpdateGenerator(db, ds.rules, detector, RepairState(), sim=cache)
        gen.generate_all()
        stats = cache.stats
        looked_up = stats["hits"] + stats["misses"]
        decisions = gen.stats["decision_memo_misses"]
        assert stats["kernel_pairs"] == stats["misses"]
        assert 1 <= stats["kernel_batches"] <= -(-looked_up // KERNEL_BUDGET) + 1
        # far fewer kernel calls than decisions scored
        assert stats["kernel_batches"] * 10 < decisions
