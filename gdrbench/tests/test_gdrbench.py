"""Tests for the benchmark's own helpers (percentiles, spans, oracle)."""

from __future__ import annotations

import itertools
import statistics

import pytest

from gdrbench import tracing
from gdrbench.oracle import TimedTruthOracle
from gdrbench.stats import percentile, summary
from repro import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset


class TestPercentile:
    def test_p95_needs_ten_samples_beyond(self):
        samples = list(range(1, 201))
        assert percentile(samples, 95) == 190  # nearest rank: 10 samples above it
        with pytest.raises(ValueError, match="need 10"):
            percentile(samples[:199], 95)

    def test_order_of_samples_does_not_matter(self):
        samples = [float(x) for x in range(1000)]
        assert percentile(reversed(samples), 99) == 989.0
        assert percentile(samples, 50) == 499.0

    def test_summary_uses_statistics_quartiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, __, q3 = statistics.quantiles(values, n=4)
        s = summary(values)
        assert (s["q1"], s["q3"], s["median"]) == (q1, q3, statistics.median(values))
        assert s["spread"] == pytest.approx((q3 - q1) / statistics.median(values))


class TestSelfTime:
    def test_nested_spans(self, monkeypatch):
        clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.75, 5.0, 10.0])
        monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
        rec = tracing.Recorder()
        with rec.span("a"):  # 0 .. 10
            with rec.span("b"):  # 1 .. 3
                pass
            with rec.span("b"):  # 4 .. 5, holding c for 0.25
                with rec.span("c"):
                    pass
        assert rec.self_time == {"a": 7.0, "b": 2.75, "c": 0.25}

    def test_installed_layers_add_up_to_wall_time(self):
        ds = load_dataset("hospital", n=120, seed=3)
        rec = tracing.Recorder()
        uninstall = tracing.install(rec)
        try:
            rec.enter("root")
            db = ds.fresh_dirty()
            engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), GDRConfig.gdr())
            engine.run(feedback_limit=20)
            wall = rec.exit()
        finally:
            uninstall()
        assert sum(rec.self_time.values()) == pytest.approx(wall, rel=1e-9)
        assert rec.counts["gdr.loss_evals"] > 0 and rec.counts["learner.predicted_rows"] > 0
        assert set(rec.self_time) <= set(tracing.LAYERS) | {"root"}
        assert all(t >= 0 for t in rec.self_time.values())
        # wrappers are gone again
        assert not hasattr(GDREngine.current_loss, "__wrapped__")

    def test_same_layer_reentry_opens_no_second_span(self):
        class Probe:
            def outer(self, cells):
                return [self.inner(c) for c in cells]

            def inner(self, cell):
                return cell

        rec = tracing.Recorder()
        one, length = tracing._one, tracing._len_arg
        Probe.outer = tracing._wrap(rec, Probe.outer, "x", "x.cells", length, ())
        Probe.inner = tracing._wrap(rec, Probe.inner, "x", "x.cells", one, ())
        Probe().outer([1, 2, 3])
        Probe().inner(4)
        assert rec.counts["x.cells"] == 4
        assert list(rec.self_time) == ["x"]


class TestOracle:
    def test_answers_exactly_like_ground_truth_oracle(self):
        ds = load_dataset("hospital", n=150, seed=5)
        attributes = ds.clean.schema.attributes
        truth = [ds.clean.values_snapshot(tid) for tid in sorted(ds.clean.tids())]
        timed = TimedTruthOracle(truth, attributes)
        reference = GroundTruthOracle(ds.clean)
        answers = []

        class Both:
            def review(self, update, current_value):
                mine = timed.review(update, current_value)
                theirs = reference.review(update, current_value)
                answers.append(((mine.kind, mine.correction), (theirs.kind, theirs.correction)))
                return theirs

        engine = GDREngine(ds.fresh_dirty(), ds.rules, Both(), GDRConfig.gdr())
        engine.run(feedback_limit=40)
        assert len(answers) == 40
        assert all(mine == theirs for mine, theirs in answers)
        kinds = {mine[0] for mine, __ in answers}
        assert len(kinds) >= 2  # the instance exercises more than one answer class

    def test_waits_exclude_the_oracles_own_time(self):
        oracle = TimedTruthOracle([], [])
        stamps = itertools.count(1.0, 0.5)
        oracle.asked = [next(stamps) for __ in range(3)]
        oracle.answered = [a + 0.1 for a in oracle.asked]
        assert oracle.waits(0.25) == pytest.approx([0.75, 0.4, 0.4])
