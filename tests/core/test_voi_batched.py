"""Tests for the batched Eq. 6 evaluation threading (VOI + Greedy)."""

import numpy as np
import pytest

from repro.constraints import CFD, RuleSet, ViolationDetector, parse_rules
from repro.constraints.violations import WhatIfOutcome
from repro.core import GreedyRanking, UpdateGroup, VOIEstimator, VOIRanking
from repro.core.grouping import group_updates
from repro.db import Database, Schema
from repro.repair import CandidateUpdate


class ScalarOnlyStats:
    """Provider without ``what_if_many``: exercises the fallback path."""

    def __init__(self, outcomes, weights):
        self._outcomes = outcomes
        self._weights = weights
        self.calls = 0

    def what_if(self, tid, attribute, value):
        self.calls += 1
        return self._outcomes[(tid, attribute, value)]

    def weights(self):
        return self._weights


class BatchedStats(ScalarOnlyStats):
    """Provider with ``what_if_many``: scalar calls must not be needed."""

    def __init__(self, outcomes, weights):
        super().__init__(outcomes, weights)
        self.batch_calls = 0

    def what_if_many(self, tid, attribute, values):
        self.batch_calls += 1
        return [self._outcomes[(tid, attribute, value)] for value in values]


def _fixture():
    rule = CFD(["zip"], "city", {"zip": "46360", "city": "Michigan City"}, name="phi1")
    updates = [
        CandidateUpdate(2, "city", "Michigan City", 0.9),
        CandidateUpdate(3, "city", "Michigan City", 0.6),
        CandidateUpdate(4, "city", "Michigan City", 0.6),
    ]
    outcomes = {
        (u.tid, "city", "Michigan City"): {rule: WhatIfOutcome(4, 3, 1)} for u in updates
    }
    weights = {rule: 0.5}
    probabilities = {2: 0.9, 3: 0.6, 4: 0.6}
    return rule, updates, outcomes, weights, probabilities


class TestUpdateBenefitsMany:
    def test_scalar_fallback_matches_update_benefit(self):
        __, updates, outcomes, weights, probs = _fixture()
        stats = ScalarOnlyStats(outcomes, weights)
        estimator = VOIEstimator(stats)
        many = estimator.update_benefits_many(updates, [probs[u.tid] for u in updates])
        single = [estimator.update_benefit(u, probs[u.tid]) for u in updates]
        assert many == pytest.approx(single)

    def test_batched_provider_matches_and_batches(self):
        __, updates, outcomes, weights, probs = _fixture()
        scalar = VOIEstimator(ScalarOnlyStats(outcomes, weights))
        batched_stats = BatchedStats(outcomes, weights)
        batched = VOIEstimator(batched_stats)
        expected = [scalar.update_benefit(u, probs[u.tid]) for u in updates]
        got = batched.update_benefits_many(updates, [probs[u.tid] for u in updates])
        assert got == pytest.approx(expected)
        # three distinct cells -> three batch calls, zero scalar calls
        assert batched_stats.batch_calls == 3
        assert batched_stats.calls == 0

    def test_group_benefit_unchanged_by_batching(self):
        __, updates, outcomes, weights, probs = _fixture()
        group = UpdateGroup(("city", "Michigan City"), updates)
        scalar = VOIEstimator(ScalarOnlyStats(outcomes, weights))
        batched = VOIEstimator(BatchedStats(outcomes, weights))
        probability = lambda u: probs[u.tid]
        assert batched.group_benefit(group, probability) == pytest.approx(
            scalar.group_benefit(group, probability)
        )
        # the §4.1 worked example value survives the batched path
        assert batched.group_benefit(group, probability) == pytest.approx(1.05)


class TestLiveDetectorBatching:
    """End-to-end: VOI ranking over a live columnar detector."""

    def _setup(self):
        db = Database(
            Schema("r", ["zip", "city"]),
            [
                ["46360", "Westville"],
                ["46360", "Wstville"],
                ["46391", "Westville"],
            ],
        )
        rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
        detector = ViolationDetector(db, rules)
        updates = [
            CandidateUpdate(0, "city", "Michigan City", 0.4),
            CandidateUpdate(1, "city", "Michigan City", 0.4),
        ]
        return detector, group_updates(updates)

    def test_rank_groups_equals_per_update_arithmetic(self):
        detector, groups = self._setup()
        estimator = VOIEstimator(detector)
        ranked = estimator.rank_groups(groups, lambda u: u.score)
        manual = sum(
            estimator.update_benefit(u, u.score) for u in groups[0].updates
        )
        assert ranked[0][1] == pytest.approx(manual)

    def test_voi_ranking_delegates(self):
        detector, groups = self._setup()
        strategy = VOIRanking(VOIEstimator(detector))
        ranked = strategy.rank(groups, lambda u: u.score)
        assert ranked[0][0].key == ("city", "Michigan City")


class TestSparseMovedPath:
    """`what_if_moved_many` + the probe-signature term memo vs the
    dense outcome-map arithmetic."""

    def _live(self, n=200, seed=13):
        from repro.datasets import load_dataset

        ds = load_dataset("hospital", n=n, seed=seed)
        db = ds.fresh_dirty()
        detector = ViolationDetector(db, ds.rules)
        return ds, db, detector

    def test_moved_rows_agree_with_dense_outcomes(self):
        __, db, detector = self._live()
        dirty = sorted(detector.dirty_tuples())[:40]
        for tid in dirty:
            for attribute in ("zip", "city"):
                current = db.value(tid, attribute)
                candidates = ["46360", "Michigan City", current]
                dense = detector.what_if_many(tid, attribute, candidates)
                sparse = detector.what_if_moved_many(tid, attribute, candidates)
                for outcomes, moved in zip(dense, sparse):
                    expected = [
                        (rule, outcome)
                        for rule, outcome in outcomes.items()
                        if outcome.vio_reduction != 0
                    ]
                    assert moved == expected

    def test_update_benefits_many_matches_dense_loop(self):
        from repro.core.voi import _benefit_from_outcomes

        __, db, detector = self._live()
        estimator = VOIEstimator(detector)
        weights = detector.weights()
        updates = []
        for tid in sorted(detector.dirty_tuples())[:60]:
            updates.append(CandidateUpdate(tid, "zip", "46360", 0.4))
            updates.append(CandidateUpdate(tid, "city", "Michigan City", 0.7))
        probabilities = [0.1 + (i % 7) / 10 for i in range(len(updates))]
        got = estimator.update_benefits_many(updates, probabilities)
        expected = [
            _benefit_from_outcomes(
                detector.what_if(u.tid, u.attribute, u.value), p, weights
            )
            for u, p in zip(updates, probabilities)
        ]
        assert got == expected  # byte-identical, not approx

    def test_term_memo_reuses_until_stats_move(self):
        """The probe-key table keeps a key's local deltas until a
        partition the key read moves, and matches the dense arithmetic
        throughout."""
        from repro.core.voi import _benefit_from_outcomes

        __, db, detector = self._live(n=120)
        estimator = VOIEstimator(detector)
        deltas = estimator.deltas
        rule = next(r for r in detector.rules if r.name == "hospital_zip")
        tid = next(
            t for t in sorted(detector.dirty_tuples()) if len(detector.group_members(t, rule)) > 1
        )
        updates = [CandidateUpdate(tid, "zip", "46360", 0.4)]

        def keyed():
            (ids,) = deltas.resolve([(updates, None)])
            return deltas.benefits(ids, updates, np.array([0.5]), estimator.weights())

        def reference():
            outcomes = detector.what_if(tid, "zip", "46360")
            return [_benefit_from_outcomes(outcomes, 0.5, detector.weights())]

        assert keyed() == reference()
        assert deltas.stats["key_reprobes_new"] == 1
        # statistics unchanged -> the key is current, no probe
        assert keyed() == reference()
        assert deltas.stats["key_table_hits"] == 1
        # a write moving a partition the key read forces a re-probe
        partner = next(t for t in sorted(detector.group_members(tid, rule)) if t != tid)
        db.set_value(partner, "zip", "99999")
        assert keyed() == reference()
        assert deltas.stats["key_reprobes_moved"] == 1
        assert deltas.stats["key_table_hits"] == 1

    def test_caller_weights_bypass_persistent_memo(self):
        __, db, detector = self._live(n=120)
        estimator = VOIEstimator(detector)
        tid = sorted(detector.dirty_tuples())[0]
        updates = [CandidateUpdate(tid, "zip", "46360", 0.4)]
        # seed the persistent memo with live weights
        estimator.update_benefits_many(updates, [0.5])
        # a custom weights mapping must not read the baked-in terms
        zero = estimator.update_benefits_many(updates, [0.5], {r: 0.0 for r in detector.rules})
        assert zero == [0.0]

    def test_rule_less_attribute_scores_zero(self):
        """An update on an attribute no rule touches must score 0.0
        through the sparse path, exactly like the scalar/dense paths."""
        from repro.db import Database, Schema

        db = Database(
            Schema("r", ["zip", "city", "state"]),
            [["46360", "Westville", "IN"], ["46360", "Wstville", "IN"]],
        )
        rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
        detector = ViolationDetector(db, rules)
        estimator = VOIEstimator(detector)
        update = CandidateUpdate(0, "state", "IL", 0.5)
        assert estimator.update_benefit(update, 0.5) == 0.0
        assert estimator.update_benefits_many([update], [0.5]) == [0.0]

    def test_probe_signature_shared_by_identical_rows(self):
        from repro.db import Database, Schema

        db = Database(
            Schema("r", ["zip", "city"]),
            [["46360", "Westville"], ["46360", "Westville"], ["46391", "Westville"]],
        )
        rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
        detector = ViolationDetector(db, rules)
        assert detector.probe_signature(0, "city") == detector.probe_signature(1, "city")
        assert detector.probe_signature(0, "city") != detector.probe_signature(2, "city")
        # writes invalidate the cached signature
        db.set_value(0, "zip", "46391")
        assert detector.probe_signature(0, "city") == detector.probe_signature(2, "city")


class TestGreedyTieBreak:
    def _groups(self):
        updates_a = [CandidateUpdate(0, "b", "useless", 0.5), CandidateUpdate(1, "b", "useless", 0.5)]
        updates_b = [CandidateUpdate(2, "b", "helpful", 0.5), CandidateUpdate(3, "b", "helpful", 0.5)]
        return [UpdateGroup(("b", "useless"), updates_a), UpdateGroup(("b", "helpful"), updates_b)]

    def test_without_estimator_ties_break_lexicographically(self):
        ranked = GreedyRanking().rank(self._groups(), lambda u: u.score)
        assert [g.value for g, __ in ranked] == ["helpful", "useless"]
        assert all(score == 2.0 for __, score in ranked)

    def test_estimator_tie_break_prefers_benefit(self):
        rule = CFD(["a"], "b", {"a": "1", "b": "2"}, name="r")
        outcomes = {
            (0, "b", "useless"): {rule: WhatIfOutcome(4, 4, 1)},
            (1, "b", "useless"): {rule: WhatIfOutcome(4, 4, 1)},
            (2, "b", "helpful"): {rule: WhatIfOutcome(4, 1, 1)},
            (3, "b", "helpful"): {rule: WhatIfOutcome(4, 1, 1)},
        }
        stats = BatchedStats(outcomes, {rule: 1.0})
        ranked = GreedyRanking(VOIEstimator(stats)).rank(self._groups(), lambda u: u.score)
        # sizes tie at 2; benefit promotes 'helpful' — and the score
        # stays the group size for the effort policy
        assert [g.value for g, __ in ranked] == ["helpful", "useless"]
        assert [score for __, score in ranked] == [2.0, 2.0]
        assert stats.batch_calls > 0

    def test_estimator_does_not_override_size_order(self):
        rule = CFD(["a"], "b", {"a": "1", "b": "2"}, name="r")
        big = UpdateGroup(("b", "weak"), [CandidateUpdate(i, "b", "weak", 0.5) for i in range(3)])
        small = UpdateGroup(("b", "strong"), [CandidateUpdate(9, "b", "strong", 0.5)])
        outcomes = {
            (9, "b", "strong"): {rule: WhatIfOutcome(9, 0, 1)},
            **{(i, "b", "weak"): {rule: WhatIfOutcome(4, 4, 1)} for i in range(3)},
        }
        stats = BatchedStats(outcomes, {rule: 1.0})
        ranked = GreedyRanking(VOIEstimator(stats)).rank([big, small], lambda u: u.score)
        assert ranked[0][0] is big  # largest-first is still primary
