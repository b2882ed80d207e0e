"""Tests for :mod:`repro.core.voi`, incl. the paper's §4.1 worked example."""

import numpy as np
import pytest

from repro.constraints import CFD, RuleSet, ViolationDetector, parse_rules
from repro.constraints.violations import WhatIfOutcome
from repro.core import UpdateGroup, VOIEstimator
from repro.db import Database, Schema
from repro.repair import CandidateUpdate


class FakeStats:
    """Injectable stats provider reproducing arbitrary Eq. 6 inputs."""

    def __init__(self, outcomes, weights):
        self._outcomes = outcomes
        self._weights = weights

    def what_if(self, tid, attribute, value):
        return self._outcomes[(tid, attribute, value)]

    def weights(self):
        return self._weights


class TestPaperWorkedExample:
    """§4.1: three CT -> 'Michigan City' updates with p̃ = (.9, .6, .6),
    w1 = 4/8, each reducing vio(φ1) from 4 to 3 with |D^r ⊨ φ1| = 1,
    must yield E[g(c)] = 1.05."""

    def _make(self):
        phi1 = CFD(["zip"], "city", {"zip": "46360", "city": "Michigan City"}, name="phi1")
        updates = [
            CandidateUpdate(2, "city", "Michigan City", 0.9),
            CandidateUpdate(3, "city", "Michigan City", 0.6),
            CandidateUpdate(4, "city", "Michigan City", 0.6),
        ]
        outcomes = {
            (u.tid, "city", "Michigan City"): {
                phi1: WhatIfOutcome(vio_before=4, vio_after=3, satisfying_after=1)
            }
            for u in updates
        }
        weights = {phi1: 4 / 8}
        probabilities = {2: 0.9, 3: 0.6, 4: 0.6}
        return updates, outcomes, weights, probabilities

    def test_paper_worked_example(self):
        updates, outcomes, weights, probabilities = self._make()
        estimator = VOIEstimator(FakeStats(outcomes, weights))
        group = UpdateGroup(("city", "Michigan City"), updates)
        benefit = estimator.group_benefit(group, lambda u: probabilities[u.tid])
        assert benefit == pytest.approx(1.05)

    def test_individual_terms(self):
        updates, outcomes, weights, probabilities = self._make()
        estimator = VOIEstimator(FakeStats(outcomes, weights))
        first = estimator.update_benefit(updates[0], 0.9)
        assert first == pytest.approx(0.5 * 0.9 * (4 - 3) / 1)

    def test_fixed_weight_override(self):
        updates, outcomes, weights, probabilities = self._make()
        estimator = VOIEstimator(FakeStats(outcomes, {}), weights=weights)
        group = UpdateGroup(("city", "Michigan City"), updates)
        benefit = estimator.group_benefit(group, lambda u: probabilities[u.tid])
        assert benefit == pytest.approx(1.05)


class TestEq6Properties:
    def _estimator(self, vio_before, vio_after, satisfying_after, weight=1.0):
        rule = CFD(["a"], "b", {"a": "1", "b": "2"}, name="r")
        outcome = WhatIfOutcome(vio_before, vio_after, satisfying_after)
        stats = FakeStats({(0, "b", "x"): {rule: outcome}}, {rule: weight})
        return VOIEstimator(stats), CandidateUpdate(0, "b", "x", 0.5)

    def test_benefit_scales_with_probability(self):
        estimator, update = self._estimator(5, 2, 10)
        assert estimator.update_benefit(update, 1.0) == pytest.approx(
            2 * estimator.update_benefit(update, 0.5)
        )

    def test_harmful_update_has_negative_benefit(self):
        estimator, update = self._estimator(2, 5, 10)
        assert estimator.update_benefit(update, 0.8) < 0

    def test_zero_satisfying_denominator_guarded(self):
        estimator, update = self._estimator(5, 2, 0)
        assert estimator.update_benefit(update, 1.0) == pytest.approx(3.0)

    def test_zero_weight_rule_ignored(self):
        estimator, update = self._estimator(5, 2, 10, weight=0.0)
        assert estimator.update_benefit(update, 1.0) == 0.0


class TestRankGroups:
    def test_orders_by_benefit_descending(self):
        rule = CFD(["a"], "b", {"a": "1", "b": "2"}, name="r")
        outcomes = {
            (0, "b", "good"): {rule: WhatIfOutcome(5, 1, 10)},
            (1, "b", "bad"): {rule: WhatIfOutcome(5, 6, 10)},
        }
        stats = FakeStats(outcomes, {rule: 1.0})
        estimator = VOIEstimator(stats)
        good = UpdateGroup(("b", "good"), [CandidateUpdate(0, "b", "good", 0.9)])
        bad = UpdateGroup(("b", "bad"), [CandidateUpdate(1, "b", "bad", 0.9)])
        ranked = estimator.rank_groups([bad, good], lambda u: u.score)
        assert ranked[0][0] is good
        assert ranked[0][1] > ranked[1][1]

    def test_tie_broken_by_size(self):
        rule = CFD(["a"], "b", {"a": "1", "b": "2"}, name="r")
        outcome = {rule: WhatIfOutcome(5, 5, 10)}  # zero benefit
        outcomes = {
            (0, "b", "x"): outcome,
            (1, "b", "y"): outcome,
            (2, "b", "y"): outcome,
        }
        stats = FakeStats(outcomes, {rule: 1.0})
        estimator = VOIEstimator(stats)
        small = UpdateGroup(("b", "x"), [CandidateUpdate(0, "b", "x", 0.5)])
        big = UpdateGroup(
            ("b", "y"),
            [CandidateUpdate(1, "b", "y", 0.5), CandidateUpdate(2, "b", "y", 0.5)],
        )
        ranked = estimator.rank_groups([small, big], lambda u: u.score)
        assert ranked[0][0] is big


class TestAgainstRealDetector:
    def test_correct_fix_ranks_above_harmful_change(self):
        schema = Schema("r", ["zip", "city"])
        db = Database(
            schema,
            [["46360", "Westvile"], ["46360", "Michigan City"], ["46360", "Michigan City"]],
        )
        rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
        detector = ViolationDetector(db, rules)
        estimator = VOIEstimator(detector)
        fix = UpdateGroup(
            ("city", "Michigan City"),
            [CandidateUpdate(0, "city", "Michigan City", 0.8)],
        )
        harm = UpdateGroup(
            ("city", "Garbage"),
            [CandidateUpdate(1, "city", "Garbage", 0.8)],
        )
        ranked = estimator.rank_groups([harm, fix], lambda u: u.score)
        assert ranked[0][0] is fix
        assert ranked[0][1] > 0 > ranked[1][1]


class TestCacheStats:
    """The probe-key table is observable (repolint cache-discipline)."""

    def _detector_estimator(self):
        schema = Schema("r", ["zip", "city"])
        db = Database(
            schema,
            [["46360", "Westvile"], ["46360", "Michigan City"], ["46360", "Michigan City"]],
        )
        rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
        detector = ViolationDetector(db, rules)
        return VOIEstimator(detector)

    def test_counters_move_with_the_memo(self):
        estimator = self._detector_estimator()
        deltas = estimator.deltas
        updates = [CandidateUpdate(0, "city", "Michigan City", 0.8)]

        def score():
            (ids,) = deltas.resolve([(updates, None)])
            return deltas.benefits(ids, updates, np.array([0.8]), estimator.weights())

        assert estimator.stats["key_table_hits"] == 0
        first_value = score()
        first = estimator.stats
        assert first["key_reprobes_new"] == 1
        assert first["key_table_size"] == len(deltas) == 1
        assert score() == first_value
        second = estimator.stats
        assert second["key_table_hits"] == 1
        assert second["key_reprobes_new"] == first["key_reprobes_new"]
        assert second["key_table_capacity"] > 0
        assert second["key_table_clears"] == 0
