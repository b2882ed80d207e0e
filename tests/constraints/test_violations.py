"""Tests for :mod:`repro.constraints.violations`.

Covers Definition 1 semantics, incremental maintenance under updates,
the what-if (Eq. 6 input) API, and a property-based random-ops check
that the incremental state always matches a from-scratch rebuild.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import RuleSet, ViolationDetector, parse_rules
from repro.db import Database, Schema


@pytest.fixture()
def simple_db():
    schema = Schema("r", ["zip", "city", "street"])
    return Database(
        schema,
        [
            ["46360", "Michigan City", "Main St"],
            ["46360", "Westville", "Main St"],
            ["46360", "Westville", "Oak Ave"],
            ["46774", "New Haven", "Bell Ave"],
            ["46774", "New Haven", "Bell Ave"],
        ],
    )


@pytest.fixture()
def constant_rule_set():
    return RuleSet(parse_rules("phi1: (zip -> city, {46360 || 'Michigan City'})"))


@pytest.fixture()
def variable_rule_set():
    return RuleSet(parse_rules("phi5: (street -> zip, {- || -})"))


class TestConstantRuleDetection:
    def test_violating_tuples(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        assert det.dirty_tuples() == {1, 2}

    def test_vio_tuple_is_one_for_constant(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        rule = constant_rule_set[0]
        assert det.vio_tuple(1, rule) == 1
        assert det.vio_tuple(0, rule) == 0

    def test_context_and_satisfying(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        rule = constant_rule_set[0]
        assert det.context_size(rule) == 3  # three 46360 tuples
        assert det.satisfying_count(rule) == 1

    def test_out_of_context_tuples_do_not_violate(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        assert not det.is_dirty(3)
        assert not det.is_dirty(4)

    def test_fix_removes_violation(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        simple_db.set_value(1, "city", "Michigan City")
        assert det.dirty_tuples() == {2}
        assert det.verify()

    def test_leaving_context_removes_violation(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        simple_db.set_value(1, "zip", "99999")
        assert det.dirty_tuples() == {2}
        assert det.verify()

    def test_entering_context_creates_violation(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        simple_db.set_value(3, "zip", "46360")
        assert 3 in det.dirty_tuples()
        assert det.verify()


class TestVariableRuleDetection:
    def test_pairwise_counting(self, simple_db, variable_rule_set):
        det = ViolationDetector(simple_db, variable_rule_set)
        rule = variable_rule_set[0]
        # "Main St" group holds zips {46360, 46360} -> uniform;
        # others uniform too -> no violations initially
        assert det.vio_rule(rule) == 0
        simple_db.set_value(0, "zip", "46774")
        # Main St group now {46774, 46360}: each violates with 1 other
        assert det.vio_rule(rule) == 2
        assert det.vio_tuple(0, rule) == 1
        assert det.vio_tuple(1, rule) == 1

    def test_partners(self, simple_db, variable_rule_set):
        det = ViolationDetector(simple_db, variable_rule_set)
        rule = variable_rule_set[0]
        simple_db.set_value(0, "zip", "46774")
        assert det.partners(0, rule) == {1}
        assert det.partners(1, rule) == {0}
        assert det.partners(3, rule) == set()

    def test_group_value_counts(self, simple_db, variable_rule_set):
        det = ViolationDetector(simple_db, variable_rule_set)
        rule = variable_rule_set[0]
        simple_db.set_value(0, "zip", "46774")
        assert det.group_value_counts(0, rule) == {"46774": 1, "46360": 1}

    def test_group_members(self, simple_db, variable_rule_set):
        det = ViolationDetector(simple_db, variable_rule_set)
        rule = variable_rule_set[0]
        assert det.group_members(0, rule) == {0, 1}

    def test_three_way_group(self, variable_rule_set):
        schema = Schema("r", ["zip", "city", "street"])
        db = Database(
            schema,
            [["1", "c", "s"], ["2", "c", "s"], ["2", "c", "s"]],
        )
        det = ViolationDetector(db, variable_rule_set)
        rule = variable_rule_set[0]
        # zips {1, 2, 2}: t0 violates with 2 others, t1/t2 with 1 each
        assert det.vio_tuple(0, rule) == 2
        assert det.vio_tuple(1, rule) == 1
        assert det.vio_rule(rule) == 4
        assert det.violating_tuple_count(rule) == 3
        assert det.satisfying_count(rule) == 0

    def test_constant_context_variable_rule(self, simple_db):
        rules = RuleSet(parse_rules("(street -> zip, {'Main St' || -})"))
        det = ViolationDetector(simple_db, rules)
        rule = rules[0]
        assert det.context_size(rule) == 2
        simple_db.set_value(0, "zip", "46774")
        assert det.vio_rule(rule) == 2


class TestViolatedRules:
    def test_vio_rule_list(self, figure1_dirty, figure1_rules):
        det = ViolationDetector(figure1_dirty, figure1_rules)
        names = {r.name for r in det.violated_rules(1)}
        assert "phi1.1" in names

    def test_total_violations(self, figure1_dirty, figure1_rules):
        det = ViolationDetector(figure1_dirty, figure1_rules)
        assert det.vio_total() > 0
        # repairing everything zeroes the counter
        figure1_dirty.set_value(1, "city", "Michigan City")
        figure1_dirty.set_value(2, "city", "Michigan City")
        figure1_dirty.set_value(4, "zip", "46825")
        figure1_dirty.set_value(6, "city", "New Haven")
        assert det.vio_total() == 0
        assert det.dirty_tuples() == set()

    def test_weights_are_context_fractions(self, figure1_dirty, figure1_rules):
        det = ViolationDetector(figure1_dirty, figure1_rules)
        weights = det.weights()
        phi5 = figure1_rules.by_name("phi5")
        assert weights[phi5] == 1.0  # wildcard context covers all tuples
        phi11 = figure1_rules.by_name("phi1.1")
        assert weights[phi11] == det.context_size(phi11) / len(figure1_dirty)

    @pytest.mark.parametrize("dataset,seed", [("hospital", 0), ("hospital", 1), ("adult", 2)])
    def test_index_matches_rule_scan_under_random_writes(self, dataset, seed):
        """The per-tuple violated-state index equals a scan of every
        rule state, in rule order, through writes, inserts, deletes and
        both rebuild paths."""
        import random

        from repro.datasets import load_dataset

        ds = load_dataset(dataset, n=80, seed=seed)
        db = ds.fresh_dirty()
        det = ViolationDetector(db, ds.rules)
        rng = random.Random(seed)
        attributes = db.schema.attributes
        domains = {a: sorted(db.domain(a), key=str) for a in attributes}

        def scan(tid):
            return [state.rule for state in det._states if state.is_violating(tid)]

        for step in range(120):
            tids = db.tids()
            roll = rng.random()
            if roll < 0.85:
                attribute = rng.choice(attributes)
                db.set_value(rng.choice(tids), attribute, rng.choice(domains[attribute]))
            elif roll < 0.92:
                tid = db.insert(db.values_snapshot(rng.choice(tids)))
                det.add_tuple(tid)
            elif roll < 0.97:
                tid = rng.choice(tids)
                det.remove_tuple(tid)
                db.delete(tid)
            else:
                det.recompute(rng.choice(["columnar", "reference"]))
            for tid in db.tids():
                assert det.violated_rules(tid) == scan(tid), (step, tid)
        assert det.verify()


class TestWhatIf:
    def test_what_if_does_not_mutate(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        before_vio = det.vio_total()
        det.what_if(1, "city", "Michigan City")
        assert det.vio_total() == before_vio
        assert simple_db.value(1, "city") == "Westville"
        assert det.verify()

    def test_what_if_reports_fix(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        rule = constant_rule_set[0]
        outcome = det.what_if(1, "city", "Michigan City")[rule]
        assert outcome.vio_before == 2
        assert outcome.vio_after == 1
        assert outcome.vio_reduction == 1
        assert outcome.satisfying_after == 2

    def test_what_if_reports_harm(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        rule = constant_rule_set[0]
        outcome = det.what_if(0, "city", "Nowhere")[rule]
        assert outcome.vio_reduction == -1

    def test_what_if_same_value_is_identity(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        rule = constant_rule_set[0]
        outcome = det.what_if(0, "city", "Michigan City")[rule]
        assert outcome.vio_reduction == 0

    def test_what_if_only_reports_touched_rules(self, figure1_dirty, figure1_rules):
        det = ViolationDetector(figure1_dirty, figure1_rules)
        outcomes = det.what_if(1, "state", "XX")
        assert all("state" in {r.rhs, *r.lhs} for r in outcomes)

    def test_what_if_unknown_attribute_rules(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        assert det.what_if(0, "street", "Elsewhere") == {}

    def test_what_if_matches_actual_apply(self, figure1_dirty, figure1_rules):
        det = ViolationDetector(figure1_dirty, figure1_rules)
        outcomes = det.what_if(4, "zip", "46825")
        figure1_dirty.set_value(4, "zip", "46825")
        for rule, outcome in outcomes.items():
            assert det.vio_rule(rule) == outcome.vio_after
            assert det.satisfying_count(rule) == outcome.satisfying_after


class TestIncrementalConsistency:
    """Property: incremental bookkeeping equals a fresh rebuild."""

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from(["zip", "city", "state", "street"]),
                st.sampled_from(
                    ["46360", "46825", "46774", "46391", "Michigan City",
                     "Fort Wayne", "Westville", "IN", "XX", "Main St"]
                ),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_update_sequences(self, ops):
        schema = Schema("customer", ["name", "src", "street", "city", "state", "zip"])
        from tests.conftest import make_figure1_dirty_rows

        db = Database(schema, make_figure1_dirty_rows())
        from tests.conftest import FIGURE1_RULES_TEXT

        rules = RuleSet(parse_rules(FIGURE1_RULES_TEXT), schema=schema)
        det = ViolationDetector(db, rules)
        for tid, attr, value in ops:
            db.set_value(tid, attr, value)
        assert det.verify()

    @given(
        tid=st.integers(min_value=0, max_value=7),
        attr=st.sampled_from(["zip", "city", "state"]),
        value=st.sampled_from(["46360", "46825", "Fort Wayne", "XX"]),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_what_if_is_side_effect_free(self, figure1_dirty, figure1_rules, tid, attr, value):
        det = ViolationDetector(figure1_dirty, figure1_rules)
        snapshot = {rule: det.vio_rule(rule) for rule in figure1_rules}
        det.what_if(tid, attr, value)
        assert {rule: det.vio_rule(rule) for rule in figure1_rules} == snapshot
        assert det.verify()


class TestDetach:
    def test_detached_detector_stops_tracking(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        det.detach()
        simple_db.set_value(1, "city", "Michigan City")
        assert det.dirty_tuples() == {1, 2}  # stale by design

    def test_recompute_refreshes(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        det.detach()
        simple_db.set_value(1, "city", "Michigan City")
        det.recompute()
        assert det.dirty_tuples() == {2}

    def test_repr(self, simple_db, constant_rule_set):
        det = ViolationDetector(simple_db, constant_rule_set)
        assert "dirty" in repr(det)


class TestSigCacheStats:
    """The probe-signature cache is observable (repolint cache-discipline)."""

    def test_counters_move_with_lookups(self, simple_db, variable_rule_set):
        det = ViolationDetector(simple_db, variable_rule_set)
        before = det.stats
        assert before["sig_cache_hits"] == 0
        det.probe_signature(0, "zip")
        det.probe_signature(0, "zip")
        after = det.stats
        assert after["sig_cache_misses"] == before["sig_cache_misses"] + 1
        assert after["sig_cache_hits"] == 1
        assert after["sig_cache_size"] >= 1
        assert after["sig_cache_capacity"] > 0

    def test_write_invalidates_and_recounts(self, simple_db, variable_rule_set):
        det = ViolationDetector(simple_db, variable_rule_set)
        det.probe_signature(0, "zip")
        simple_db.set_value(0, "zip", "99999")
        det.probe_signature(0, "zip")  # entry was evicted by the write
        assert det.stats["sig_cache_misses"] == 2
        assert det.stats["sig_cache_hits"] == 0

    def test_batched_signatures_match_and_bypass_the_cache(self, simple_db, variable_rule_set):
        det = ViolationDetector(simple_db, variable_rule_set)
        tids = simple_db.tids()
        for attribute in simple_db.schema.attributes:
            batched = det.probe_signatures(tids, attribute)
            assert det.stats["sig_cache_size"] == 0
            assert batched == [det.probe_signature(tid, attribute) for tid in tids]
            det._sig_cache.clear()
