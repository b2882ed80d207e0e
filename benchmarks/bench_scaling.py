"""Scaling behaviour: end-to-end repair cost as the table grows.

The paper ran 20k-tuple tables; this bench verifies the reproduction's
cost grows near-linearly with the number of dirty tuples so larger
scales are a matter of patience, not asymptotics. Two sweeps are
tracked in ``BENCH_scaling.json`` (``run_bench.py --suite scaling``):

* ``test_scaling_no_learning`` — the historical no-learning sweep with
  a super-linear blowup guard;
* ``test_scaling_learning`` — the full GDR pipeline (active learning,
  batched suggestion engine, learner drain) at N=1000/2000/5000, the
  scale the vectorized suggestion engine is built for, with the
  similarity-cache counters.

Scale knobs::

    REPRO_SCALING_SIZES   comma-separated learning-sweep sizes
                          (default "1000,2000,5000")
    REPRO_SCALING_BUDGET  labels per 1000 tuples (default 200)

e.g. ``REPRO_SCALING_SIZES=300 REPRO_SCALING_BUDGET=60`` for CI smoke.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SEED, publish

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset

_SIZES = (200, 400, 800)

_LEARN_SIZES = tuple(
    int(n) for n in os.environ.get("REPRO_SCALING_SIZES", "1000,2000,5000").split(",")
)
_BUDGET_PER_1000 = int(os.environ.get("REPRO_SCALING_BUDGET", "200"))


def _budget(n: int) -> int:
    return max(20, _BUDGET_PER_1000 * n // 1000)


def _run(n: int, config: GDRConfig, budget: int | None = None):
    ds = load_dataset("hospital", n=n, seed=BENCH_SEED)
    db = ds.fresh_dirty()
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    start = time.perf_counter()
    result = engine.run(feedback_limit=budget)
    return time.perf_counter() - start, result, engine, db


def test_scaling_no_learning(benchmark):
    """Full no-learning repair wall-clock across table sizes."""

    def sweep():
        timings = {}
        for n in _SIZES:
            seconds, result, __, __ = _run(n, GDRConfig.no_learning())
            timings[n] = (seconds, result.feedback_used)
        return timings

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Scaling: full no-learning repair (hospital)"]
    lines += [
        f"  n={n:<5} {seconds:6.2f}s  ({labels} labels)"
        for n, (seconds, labels) in timings.items()
    ]
    publish(benchmark, "scaling_no_learning", "\n".join(lines), timings={
        n: round(seconds, 2) for n, (seconds, __) in timings.items()
    })
    # super-linear blowup guard: 4x data should stay well under 16x
    # time. The vectorized suggestion engine brought the measured ratio
    # to ~6x; 12 leaves noise headroom while catching real regressions
    # (the pre-PR-5 bound was 40).
    small = max(timings[_SIZES[0]][0], 1e-3)
    assert timings[_SIZES[-1]][0] / small < 12.0


def test_scaling_learning(benchmark):
    """Full GDR (active learning + drain) at paper-adjacent scales.

    Budget scales with the table (``REPRO_SCALING_BUDGET`` labels per
    1000 tuples) so every size exercises the same label density.
    """

    def sweep():
        timings = {}
        for n in _LEARN_SIZES:
            seconds, result, engine, __ = _run(
                n, GDRConfig.gdr(seed=BENCH_SEED), budget=_budget(n)
            )
            timings[n] = (seconds, result.feedback_used, result.learner_decisions,
                          engine.health()["sim"])
        return timings

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Scaling: full GDR with learning (hospital)"]
    lines += [
        f"  n={n:<5} {seconds:6.2f}s  ({labels} labels, {decided} learner decisions)"
        for n, (seconds, labels, decided, __) in timings.items()
    ]
    publish(benchmark, "scaling_learning", "\n".join(lines), timings={
        n: round(seconds, 2) for n, (seconds, *__) in timings.items()
    })
    largest = _LEARN_SIZES[-1]
    __, __, __, sim_stats = timings[largest]
    for key, value in sim_stats.items():
        benchmark.extra_info[f"sim.{key}"] = value
    # the engine-owned code-space cache must be doing its job at scale
    assert sim_stats["hits"] > sim_stats["misses"]
    if len(_LEARN_SIZES) > 1:
        small_n, large_n = _LEARN_SIZES[0], _LEARN_SIZES[-1]
        ratio_n = large_n / small_n
        ratio_t = timings[large_n][0] / max(timings[small_n][0], 1e-3)
        benchmark.extra_info["blowup"] = round(ratio_t / ratio_n, 2)
        # guard: with the label budget proportional to n, total work is
        # labels x per-iteration cost, and per-iteration cost scales
        # with the live pool (~n) — an O(n^2) envelope. Measured ~1.2
        # n^2 on this machine; 2x headroom catches real regressions.
        assert ratio_t < 2.0 * ratio_n**2
