"""Micro-benchmarks of the substrates backing every experiment.

These time the hot paths: violation detection (columnar full build,
incremental maintenance, scalar and batched what-if queries), candidate
generation, Eq. 7 similarity, forest training/prediction and CFD
mining. The ``*_reference`` variants time the pre-columnar per-tuple
paths kept for parity testing, so the columnar speedup stays visible in
the recorded numbers.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.constraints import ViolationDetector, mine_constant_cfds
from repro.core import VOIEstimator
from repro.datasets import load_dataset
from repro.ml import HistogramForestClassifier, RandomForestClassifier
from repro.repair import RepairState, UpdateGenerator, levenshtein
from repro.repair.similarity import SimilarityCache, levenshtein_many


def test_detector_build(benchmark, hospital_bench_dataset):
    """Full violation-statistics build over the dirty instance."""
    ds = hospital_bench_dataset

    def build():
        detector = ViolationDetector(ds.dirty, ds.rules)
        detector.detach()
        return detector.vio_total()

    total = benchmark(build)
    assert total > 0


def test_detector_build_reference(benchmark, hospital_bench_dataset):
    """Pre-columnar per-tuple build (the parity baseline)."""
    ds = hospital_bench_dataset
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    detector.detach()

    def build():
        detector.recompute("reference")
        return detector.vio_total()

    total = benchmark(build)
    assert total > 0
    assert detector.verify()


def test_detector_incremental_updates(benchmark, hospital_bench_dataset):
    """Incremental maintenance under a burst of cell writes."""
    ds = hospital_bench_dataset
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    tids = db.tids()[:50]
    values = [db.value(t, "zip") for t in tids]

    def churn():
        for tid in tids:
            db.set_value(tid, "zip", "00000")
        for tid, old in zip(tids, values):
            db.set_value(tid, "zip", old)
        return detector.vio_total()

    benchmark(churn)
    assert detector.verify()


def test_detector_what_if(benchmark, hospital_bench_dataset):
    """Eq. 6 what-if queries (the VOI ranking hot path)."""
    ds = hospital_bench_dataset
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    dirty = sorted(detector.dirty_tuples())[:100]

    def probe():
        total = 0
        for tid in dirty:
            outcomes = detector.what_if(tid, "zip", "46360")
            total += sum(o.vio_reduction for o in outcomes.values())
        return total

    benchmark(probe)
    assert detector.verify()


def test_detector_what_if_many(benchmark, hospital_bench_dataset):
    """Batched Eq. 6 probes: every zip constant for each dirty cell.

    This is the VOI ranking workload after the batching rewrite — one
    partition-statistics pass per cell answers a whole candidate list.
    """
    ds = hospital_bench_dataset
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    dirty = sorted(detector.dirty_tuples())[:100]
    candidates = sorted(
        {r.lhs_constants().get("zip") for r in ds.rules if r.lhs_constants().get("zip")}
    )

    def probe():
        total = 0
        for tid in dirty:
            for outcomes in detector.what_if_many(tid, "zip", candidates):
                total += sum(o.vio_reduction for o in outcomes.values())
        return total

    benchmark(probe)
    assert len(candidates) >= 10
    assert detector.verify()


def test_generator_initial_pass(benchmark, hospital_bench_dataset):
    """Algorithm 1 over every dirty tuple."""
    ds = hospital_bench_dataset

    def generate():
        db = ds.fresh_dirty()
        detector = ViolationDetector(db, ds.rules)
        state = RepairState()
        generator = UpdateGenerator(db, ds.rules, detector, state)
        produced = generator.generate_all()
        generator.detach()
        detector.detach()
        return len(produced)

    produced = benchmark(generate)
    assert produced > 0


def test_key_refresh(benchmark):
    """One Eq. 6 key-table refresh after a burst of writes.

    The key table of an adult n=2000 instance holds the probe keys of
    every suggested update outside 20 rows. Each round first writes
    those rows' ``marital_status`` cells (the RHS of the variable rule
    ``relationship -> marital_status``), then times the ``benefits``
    call that re-probes the keys whose partitions moved. Afterwards
    every key holds exactly the terms of a fresh probe.
    """
    ds = load_dataset("adult", n=2000, seed=0)
    db = ds.fresh_dirty()
    detector = ViolationDetector(db, ds.rules)
    state = RepairState()
    generator = UpdateGenerator(db, ds.rules, detector, state)
    generator.generate_all()
    generator.detach()
    # the burst writes rows whose updates are not scored, so every
    # scored key id stays valid
    tids = db.tids()[:20]
    written = set(tids)
    updates = [update for update in state.updates() if update.tid not in written]
    cache = VOIEstimator(detector).deltas
    ids = cache.resolve([(updates, None)])[0]
    probabilities = np.full(len(updates), 0.5)
    weights = detector.weights()
    cache.benefits(ids, updates, probabilities, weights)  # first probe of every key
    domain = sorted(db.domain("marital_status"), key=str)
    rounds = iter(range(1 << 30))

    def burst():
        shift = next(rounds)
        for i, tid in enumerate(tids):
            db.set_value(tid, "marital_status", domain[(i + shift) % len(domain)])

    benchmark.pedantic(
        cache.benefits, args=(ids, updates, probabilities, weights), setup=burst, rounds=20
    )
    assert cache.reprobes["moved"] > 0
    rules, __, satisfying = detector.rule_counts()
    index = {rule: i for i, rule in enumerate(rules)}
    for key_id, update in dict(zip(ids.tolist(), updates)).items():
        pairs = detector.what_if_moved_many(update.tid, update.attribute, [update.value])[0]
        fresh = [
            (index[rule], o.vio_reduction, o.satisfying_after - int(satisfying[index[rule]]))
            for rule, o in pairs
        ]
        count = int(cache._count[key_id])
        stored = zip(
            cache._rule[key_id, :count].tolist(),
            cache._reduction[key_id, :count].tolist(),
            cache._delta[key_id, :count].tolist(),
        )
        assert list(stored) == fresh


def test_levenshtein_speed(benchmark):
    """Raw edit-distance throughput on address-like strings."""
    pairs = [
        ("Michigan City", "Michigan Cty"),
        ("Fort Wayne", "FT Wayne"),
        ("46360", "46391"),
        ("Sherden RD", "SherdenRD"),
    ] * 25

    def run():
        return sum(levenshtein(a, b) for a, b in pairs)

    total = benchmark(run)
    assert total > 0


def _hospital_setup_pairs():
    """About 800 short queries x 6 candidates, shaped like the Eq. 7
    pairs a hospital engine scores while generating its first
    suggestions (queries ~6.5 characters)."""
    rng = random.Random(0)
    words = ["Michigan City", "Westville", "Gary", "Fort Wayne", "46360", "46391",
             "IN", "Hammond", "Sherden RD", "BIRMINGHAM", "AL", "3347938701"]
    queries, candidates = [], []
    for __ in range(800):
        word = rng.choice(words)
        i = rng.randrange(len(word))
        query = (word[:i] + "x" + word[i + 1 :])[:7]
        for __ in range(6):
            queries.append(query)
            candidates.append(rng.choice(words))
    return queries, candidates


def _one_query_pairs():
    """One query against a 100-candidate pool."""
    candidates = [f"Michigan City {i}" for i in range(50)] + [
        f"Fort Wayne {i}" for i in range(50)
    ]
    return ["Michigan Cty"] * len(candidates), candidates


@pytest.mark.parametrize("shape", ["hospital_setup", "one_query"])
def test_levenshtein_many_kernel(benchmark, shape):
    """The batched pairs kernel on two shapes: many short queries with
    short pools (engine set-up) and one query against a large pool."""
    queries, candidates = (
        _hospital_setup_pairs() if shape == "hospital_setup" else _one_query_pairs()
    )

    def run():
        return levenshtein_many(queries, candidates)

    dists = benchmark(run)
    assert dists.tolist() == [levenshtein(q, c) for q, c in zip(queries, candidates)]


def test_similarity_cache(benchmark):
    """Cached Eq. 7 lookups (the effective cost inside the loops)."""
    cache = SimilarityCache()
    pairs = [(f"value{i}", f"value{i + 1}") for i in range(64)]

    def run():
        return sum(cache(a, b) for a, b in pairs for __ in range(10))

    benchmark(run)
    assert cache.stats["hits"] > cache.stats["misses"]


def test_forest_fit(benchmark):
    """Committee training at feedback-learner scale (200 x 13)."""
    rng = np.random.default_rng(0)
    X = rng.integers(0, 20, size=(200, 13)).astype(float)
    y = (X[:, 0] + X[:, 5] > 18).astype(np.int64)

    def fit():
        forest = RandomForestClassifier(n_estimators=10, max_depth=12, random_state=0)
        forest.fit(X, y)
        return forest

    forest = benchmark(fit)
    assert float(np.mean(forest.predict(X) == y)) > 0.8


def test_forest_predict(benchmark):
    """p̃-shaped committee voting: a histogram committee fitted on 300
    examples x 13 features at depth 12 votes 600 rows (the mask-free
    walk), equal to the exact-sort reference's per-tree votes."""
    rng = np.random.default_rng(0)
    X = rng.integers(0, 20, size=(300, 13)).astype(float)
    y = (X[:, 0] > 10).astype(np.int64) + (X[:, 5] > 15)
    forest = HistogramForestClassifier(n_estimators=10, max_depth=12, random_state=0)
    forest.fit(X, y, n_classes=3)
    reference = RandomForestClassifier(n_estimators=10, max_depth=12, random_state=0)
    reference.fit(X, y, n_classes=3)
    queries = rng.integers(0, 20, size=(600, 13)).astype(float)

    votes = benchmark(forest.vote_fractions, queries)
    assert np.array_equal(votes, reference.vote_fractions(queries))


def test_cfd_mining(benchmark, adult_bench_dataset):
    """Constant-CFD discovery at the paper's 5% support threshold."""
    ds = adult_bench_dataset

    def mine():
        return mine_constant_cfds(ds.dirty, support=0.05, confidence=0.92, max_lhs=1)

    rules = benchmark(mine)
    assert len(rules) > 0
