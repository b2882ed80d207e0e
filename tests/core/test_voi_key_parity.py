"""Bit-exact parity of the cached Eq. 6 ranking under random churn.

:class:`~repro.core.voi.GroupBenefitCache` scores stale groups through
the estimator's probe-key table (local what-if deltas kept per key,
recombined with fresh rule weights and satisfying counts) and reuses
stored ``p̃`` vectors. Neither may ever show: after every step of a
random interaction — user feedback, external writes, learner refits,
inserts, deletes and detector rebuilds — ``rank_all`` must equal, float
for float, a *fresh* estimator over a provider that offers nothing but
the dense ``what_if_many`` (no probe keys, no memo of any kind), and
every stored ``p̃`` vector must equal fresh committee predictions for
its group's members — for the keyed groups of the GDR preset and for
the attribute-spanning ``*`` group of ungrouped active learning.

Each step first checks the incrementally maintained group index
against a partition rebuilt from scratch (``GroupIndex.verify``), since
the dense reference ranks the index's own groups, and last checks every
Eq. 7 memo entry (the learner's encoder writes the string-space ones)
against the scalar kernel (``tests/oracles/similarity.py``).

Every step also checks the probe-key table itself. Before the refresh,
the table's one-pass moved set must equal the per-key reference loop
over logged partition touches (``tests/oracles/partitions.py``). After
it, every key still current at the table's epoch and tick must hold
exactly the terms a fresh dense probe gives, so a stale constant head
or a missed partition move fails even where it would not change the
ranking.

After a refit the cache votes members whose rows held still from their
stored committee encodings. The lockstep tests run every step on a
second engine whose learner re-encodes every member it predicts
(``tests/oracles/probabilities.py``): both must store the same ``p̃``
and encodings, and their encoders the same vocabularies.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GDRConfig, GDREngine, GroundTruthOracle, VOIEstimator
from repro.datasets import load_dataset
from repro.repair import Feedback, UserFeedback
from tests.oracles.partitions import moved_keys, recorded_touches
from tests.oracles.probabilities import use_fresh_probabilities
from tests.oracles.similarity import stale_entries

#: Partition touches logged for the per-key reference check.
_TOUCHES: dict = {}


@pytest.fixture(autouse=True, scope="module")
def _log_touches():
    with recorded_touches() as log:
        _TOUCHES["log"] = log
        yield
    _TOUCHES.clear()


class DenseOnlyStats:
    """Reference provider: the detector's dense what-if, nothing else."""

    def __init__(self, detector) -> None:
        self._detector = detector

    def what_if(self, tid, attribute, value):
        return self._detector.what_if(tid, attribute, value)

    def what_if_many(self, tid, attribute, values):
        return self._detector.what_if_many(tid, attribute, values)

    def weights(self):
        return self._detector.weights()


_KINDS = (Feedback.CONFIRM, Feedback.REJECT, Feedback.RETAIN)


#: A grouped preset, and the ungrouped one whose single ``*`` group
#: spans attributes (ranked by VOI here, so the benefit cache runs).
_PRESETS = {
    "gdr": lambda: GDRConfig.gdr(seed=1, min_examples=2),
    "active_learning": lambda: GDRConfig.active_learning(
        seed=1, min_examples=2, ranking="voi"
    ),
}


def _engine(dataset: str, n: int, preset: str = "gdr"):
    ds = load_dataset(dataset, n=n, seed=3)
    return GDREngine(
        ds.fresh_dirty(),
        ds.rules,
        GroundTruthOracle(ds.clean),
        _PRESETS[preset](),
    )


def _assert_parity(engine) -> None:
    engine.manager.refresh_suggestions()
    assert engine.group_index.verify()
    _assert_moved_set(engine)
    cached = engine.benefit_cache.rank_all(engine.probability)
    reference = VOIEstimator(DenseOnlyStats(engine.detector)).rank_groups(
        engine.group_index.groups(), engine.probability
    )
    assert [(g.key, b) for g, b in cached] == [(g.key, b) for g, b in reference]
    _assert_stored_probabilities(engine)
    _assert_current_keys_exact(engine)
    assert not stale_entries(engine.sim_cache, engine.db.columns)


def _checked_keys(cache) -> np.ndarray:
    """Keys probed at the current rebuild epoch that read a partition
    and were last known current before the partition clock's tick."""
    detector = cache._detector
    keys = np.arange(len(cache))
    epoch_ok = cache._epoch[keys] == detector.rebuild_epoch
    return keys[epoch_ok & (cache._tick[keys] < detector.partition_tick)]


def _assert_moved_set(engine) -> None:
    """The table's one-pass moved set equals the per-key reference."""
    cache = engine.voi.deltas
    keys = _checked_keys(cache)
    assert cache.moved(keys).tolist() == moved_keys(cache, keys, _TOUCHES["log"]).tolist()


def _assert_current_keys_exact(engine) -> None:
    """Every key current at the table's epoch and tick holds exactly
    the terms (constant head first) of a fresh dense probe."""
    cache = engine.voi.deltas
    detector = engine.detector
    rules, __, satisfying = detector.rule_counts()
    index = {rule: i for i, rule in enumerate(rules)}
    keys = np.arange(len(cache))
    keys = keys[cache._epoch[keys] == detector.rebuild_epoch]
    current = ~moved_keys(cache, keys, _TOUCHES["log"])
    tids = engine.db.tids()
    tid_of: dict[tuple, int] = {}
    for k in keys[current].tolist():
        attribute, signature, value = cache._keys[k]
        if (attribute, signature) not in tid_of:
            for tid, sig in zip(tids, detector.probe_signatures(tids, attribute)):
                tid_of.setdefault((attribute, sig), tid)
        tid = tid_of.get((attribute, signature))
        if tid is None:  # no live tuple carries the signature now
            continue
        outcomes = detector.what_if_many(tid, attribute, [value])[0]
        fresh = [
            (index[rule], o.vio_reduction, o.satisfying_after - int(satisfying[index[rule]]))
            for rule, o in outcomes.items()
            if o.vio_reduction != 0
        ]
        count = int(cache._count[k])
        stored = list(
            zip(
                cache._rule[k, :count].tolist(),
                cache._reduction[k, :count].tolist(),
                cache._delta[k, :count].tolist(),
            )
        )
        assert stored == fresh
        assert int(cache._head[k]) == sum(1 for i, __, __ in fresh if rules[i].is_constant)
        assert not cache._reduction[k, count:].any()


def _assert_stored_probabilities(engine) -> None:
    """After a refresh every live group holds a p̃ vector for exactly
    its members, equal to fresh committee confirm fractions."""
    index = engine.group_index
    stored = engine.benefit_cache._group_probs
    assert set(stored) == set(index.keys())
    for key, vector in stored.items():
        members = index.group(key).updates
        assert vector.members == members
        rows = [engine.db.values_snapshot(u.tid) for u in members]
        fresh = [p.confirm_probability for p in engine.learner.predict_many(members, rows)]
        assert vector.probs.tolist() == fresh


def _feedback(engine, a: int, b: int) -> None:
    live = engine.state.updates()
    if not live:
        return
    update = live[a % len(live)]
    kind = _KINDS[b % 3]
    engine.learner.add_example(update, engine.db.values_snapshot(update.tid), kind)
    engine.manager.apply_feedback(update, UserFeedback(kind))


def _write(engine, a: int, b: int) -> None:
    db = engine.db
    tids = db.tids()
    attribute = db.schema.attributes[b % len(db.schema)]
    domain = sorted(db.domain(attribute), key=str)
    db.set_value(tids[a % len(tids)], attribute, domain[(a // 7) % len(domain)])


def _insert(engine, a: int, b: int) -> None:
    db = engine.db
    tids = db.tids()
    row = list(db.values_snapshot(tids[a % len(tids)]))
    # a copy of a live row with one cell taken from another row: lands
    # in existing partitions, often violating
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


def _step(engine, op: str, a: int, b: int, directory: str = ""):
    """Apply one step; returns the engine the session continues on."""
    if op == "feedback":
        _feedback(engine, a, b)
    elif op == "write":
        _write(engine, a, b)
    elif op == "refit":
        engine.learner.retrain_all()
    elif op == "insert":
        _insert(engine, a, b)
    elif op == "delete":
        _delete(engine, a)
    elif op == "restore":
        return _restore(engine, directory)
    else:
        engine.detector.recompute()
    return engine


def _restore(engine, directory: str):
    """A checkpoint restore: the session continues on a new engine."""
    path = Path(directory) / f"session-{id(engine)}.ckpt"
    engine.checkpoint(path)
    restored = GDREngine.restore(path, engine.rules, engine.oracle)
    engine.detach()
    return restored


def _run(dataset: str, n: int, steps, preset: str = "gdr") -> None:
    engine = _engine(dataset, n, preset)
    _assert_parity(engine)
    for op, a, b in steps:
        engine = _step(engine, op, a, b)
        _assert_parity(engine)


_OPS = ["feedback"] * 3 + ["write"] * 2 + ["refit", "insert", "delete", "recompute"]
_STEP = st.tuples(
    st.sampled_from(_OPS),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


@pytest.mark.parametrize("dataset,n", [("hospital", 60), ("adult", 80)])
@_SETTINGS
@given(steps=st.lists(_STEP, min_size=1, max_size=14))
def test_cached_ranking_equals_fresh_dense_reference(dataset, n, steps):
    _run(dataset, n, steps)


@pytest.mark.parametrize("dataset,n", [("hospital", 60), ("adult", 80)])
@_SETTINGS
@given(steps=st.lists(_STEP, min_size=1, max_size=14))
def test_ungrouped_ranking_equals_fresh_dense_reference(dataset, n, steps):
    _run(dataset, n, steps, preset="active_learning")


def test_deterministic_churn_keeps_parity_and_reprobes_moved_keys():
    """A fixed run of feedback, writes and refits: parity after every
    step, and the key table re-probes keys whose partitions moved."""
    _deterministic_churn("gdr")


def test_deterministic_churn_keeps_ungrouped_parity():
    """The same run on the ``*`` group: refits of one attribute's
    committee must re-predict exactly its members."""
    _deterministic_churn("active_learning")


def _deterministic_churn(preset: str) -> None:
    engine = _engine("hospital", 60, preset)
    _assert_parity(engine)
    for i in range(30):
        if i % 3 == 2:
            engine.learner.retrain_all()
        else:
            _feedback(engine, 7 * i + 1, i)
        _write(engine, 11 * i + 3, 2 * i + 1)
        _assert_parity(engine)
    stats = engine.health()["voi"]
    assert stats["key_reprobes_new"] > 0
    assert stats["key_reprobes_moved"] > 0
    assert stats["key_table_hits"] > 0


def _assert_lockstep(live, oracle) -> None:
    stored, fresh = live.benefit_cache._group_probs, oracle.benefit_cache._group_probs
    assert set(stored) == set(fresh)
    for key, record in stored.items():
        assert record.probs.tolist() == fresh[key].probs.tolist()
        assert record.encodings.tolist() == fresh[key].encodings.tolist()
    assert live.learner.encoder.export_vocab() == oracle.learner.encoder.export_vocab()


def _run_lockstep(dataset: str, n: int, steps, preset: str = "gdr") -> dict:
    engines = [_engine(dataset, n, preset), _engine(dataset, n, preset)]
    use_fresh_probabilities(engines[1].learner)

    def check() -> None:
        for engine in engines:
            _assert_parity(engine)
        _assert_lockstep(*engines)

    check()
    with tempfile.TemporaryDirectory() as directory:
        for op, a, b in steps:
            engines = [_step(engine, op, a, b, directory) for engine in engines]
            if op == "restore":
                use_fresh_probabilities(engines[1].learner)
            check()
    return engines[0].benefit_cache.stats


_LOCKSTEP_OPS = _OPS + ["refit", "restore"]
_LOCKSTEP_STEP = st.tuples(
    st.sampled_from(_LOCKSTEP_OPS),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


@pytest.mark.parametrize(
    "dataset,n,preset",
    [("hospital", 60, "gdr"), ("adult", 80, "gdr"), ("hospital", 60, "active_learning")],
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(steps=st.lists(_LOCKSTEP_STEP, min_size=1, max_size=14))
def test_stored_encodings_equal_fresh_encoding(dataset, n, preset, steps):
    _run_lockstep(dataset, n, steps, preset)


def test_refits_vote_stored_encodings():
    """A fixed run where refits dominate: most values a committee
    predicts vote a stored encoding, and every step stays in lockstep
    with fresh encoding."""
    steps = []
    for i in range(12):
        steps += [("feedback", 7 * i + 1, i), ("feedback", 5 * i + 2, i + 1), ("refit", 0, 0)]
        if i % 4 == 3:
            steps += [("write", 11 * i + 3, 2 * i + 1), ("delete", 13 * i, 0), ("insert", i, i)]
    stats = _run_lockstep("hospital", 60, steps)
    assert stats["prob_rows_reused"] > stats["prob_rows_encoded"] > 0
