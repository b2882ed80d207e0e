"""Property test: the batched Algorithm 1 kernel equals per-cell generation.

Random cell batches mix frozen cells, prevented cells, cells of clean
tuples, live suggestions that the batch confirms or replaces, and tuples
whose violated-rule lists differ. On two identically prepared states,
``generate_for_cells(cells)`` must return what
``[generate_for_cell(t, a) for t, a in cells]`` returns, emit the same
state events, and leave the same live pool and flags.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import ViolationDetector
from repro.datasets import load_dataset
from repro.repair import CandidateUpdate, RepairState, SimilarityCache, UpdateGenerator

_SUBSTRATES: dict[str, tuple] = {}


def _substrate(name):
    """Shared (db, rules, detector, candidate cells) per dataset.

    Generation never writes the database, so one instance serves every
    example; states and generators are fresh per example.
    """
    if name not in _SUBSTRATES:
        ds = load_dataset(name, n=60, seed=13)
        db = ds.fresh_dirty()
        detector = ViolationDetector(db, ds.rules)
        cells = []
        for tid in detector.dirty_tuples_ordered():
            for rule in detector.violated_rules(tid):
                cells.extend((tid, attr) for attr in rule.attributes)
        clean = [tid for tid in sorted(db.tids()) if not detector.is_dirty(tid)][:5]
        cells.extend((tid, attr) for tid in clean for attr in db.schema.attributes[:3])
        _SUBSTRATES[name] = (db, ds.rules, detector, sorted(set(cells)))
    return _SUBSTRATES[name]


def _prepare(db, rules, detector, frozen, prevented, seeded, sim=None):
    """A state carrying the drawn flags and live suggestions."""
    state = RepairState()
    for update in seeded:
        state.put(update)
    for cell, value in prevented:
        state.prevent(cell, value)
    for cell in frozen:
        state.freeze(cell)
    kwargs = {} if sim is None else {"sim": sim}
    generator = UpdateGenerator(db, rules, detector, state, **kwargs)
    events = []
    state.add_listener(lambda event: events.append((event.kind, event.cell, event.update)))
    return state, generator, events


def _pool(state):
    return {u.cell: (u.value, u.score) for u in state.updates()}


def test_batches_span_several_violated_rule_lists():
    for name in ("hospital", "adult"):
        __, __, detector, cells = _substrate(name)
        lists = {tuple(detector.violated_rules(tid)) for tid, __ in cells}
        assert len(lists) >= 3  # including the clean tuples' empty list


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["hospital", "adult"]), data=st.data())
def test_batched_kernel_matches_per_cell(name, data):
    db, rules, detector, candidates = _substrate(name)
    # small random batches, or every candidate cell in shuffled order
    # (so witness twins and partition partners share buckets)
    cells = data.draw(
        st.one_of(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=40),
            st.permutations(candidates),
        )
    )
    in_batch = st.sampled_from(cells)
    frozen = data.draw(st.sets(in_batch, max_size=4))
    # prevent the value per-cell generation would pick (so the next best
    # must be found) or a plain vocabulary value
    probe_state = RepairState()
    probe = UpdateGenerator(db, rules, detector, probe_state)
    prevented = []
    for cell in data.draw(st.sets(in_batch, max_size=6)):
        best = probe.generate_for_cell(*cell)
        vocabulary = db.columns.vocabulary(db.schema.position(cell[1]))
        other = vocabulary.decode(data.draw(st.integers(0, len(vocabulary) - 1)))
        for value in (best and best.value, other):
            if value is not None:
                prevented.append((cell, value))
    # live suggestions the batch should keep (equal) or replace (stale
    # value, or the right value with a stale score)
    seeded = []
    for cell in data.draw(st.sets(in_batch, max_size=8)):
        best = probe_state.get(cell) or probe.generate_for_cell(*cell)
        kind = data.draw(st.sampled_from(["equal", "stale-score", "stale-value"]))
        if best is not None and kind == "equal":
            seeded.append(best)
        elif best is not None and kind == "stale-score":
            seeded.append(best.with_score(0.0 if best.score else 1.0))
        else:
            seeded.append(CandidateUpdate(cell[0], cell[1], "stale-suggestion", 0.5))

    state_b, batched, events_b = _prepare(
        db, rules, detector, frozen, prevented, seeded, sim=SimilarityCache(db.columns)
    )
    state_r, reference, events_r = _prepare(db, rules, detector, frozen, prevented, seeded)
    live = {cell for cell in cells if state_r.get(cell) is not None}

    revisited = []
    got = batched.generate_for_cells(cells, revisited=revisited)
    want = [reference.generate_for_cell(tid, attr) for tid, attr in cells]

    assert got == want
    assert events_b == events_r
    assert _pool(state_b) == _pool(state_r)
    assert state_b.frozen_cells() == state_r.frozen_cells()
    assert state_b.prevented_map() == state_r.prevented_map()
    expected_revisited = []
    for cell, update in zip(cells, want):  # cells may repeat
        if cell in live or update is not None:
            expected_revisited.append(cell)
        if update is None:
            live.discard(cell)
        else:
            live.add(cell)
    assert revisited == expected_revisited
