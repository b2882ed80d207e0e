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

The invariant guard cannot stand in for this test: its reference
ranking shares the live estimator, so a stale key would agree with
itself.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GDRConfig, GDREngine, GroundTruthOracle, VOIEstimator
from repro.datasets import load_dataset
from repro.repair import Feedback, UserFeedback


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
    cached = engine.benefit_cache.rank_all(engine.probability)
    reference = VOIEstimator(DenseOnlyStats(engine.detector)).rank_groups(
        engine.group_index.groups(), engine.probability
    )
    assert [(g.key, b) for g, b in cached] == [(g.key, b) for g, b in reference]
    _assert_stored_probabilities(engine)


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


def _run(dataset: str, n: int, steps, preset: str = "gdr") -> None:
    engine = _engine(dataset, n, preset)
    _assert_parity(engine)
    for op, a, b in steps:
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
        else:
            engine.detector.recompute()
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
