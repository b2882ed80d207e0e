"""One measured repair session; run by ``run.py`` in a fresh interpreter.

Usage::

    python -m gdrbench.child WORKLOAD INPUTS.pkl WORKDIR [--trace] [--quality] [--probe]

The process receives only the generated rows, rules and truth.  It
builds the instance and the engine (``clean_db=None``, as a deployment
would), runs the label budget against :class:`TimedTruthOracle`, and
prints one JSON object on stdout.  Repair quality (Eq. 3 loss,
precision, recall) is computed after every timed region, and only with
``--quality``: it is exact and deterministic, and the repair signature
proves every other session of the run ended in the same instance.
With ``--probe`` the session skips calibration, stops at the first
question and reports only ``setup_s`` and ``first_question_s``: cheap
extra samples of the two metrics a single full session yields only once.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy

from gdrbench.workloads import WORKLOADS, load_inputs

#: Calibration kernels a full session times before set-up and after its run.
CALIBRATION_SAMPLES = 6
#: What the durable workload's numbers include.
FLUSH_POLICY = "journal flushed per record, fsync off; auto-checkpoint every 25 iterations"


def _calibration_kernel() -> int:
    """Fixed interpreter and NumPy work, timed to gauge the host's current speed."""
    codes = numpy.random.default_rng(7).integers(0, 4000, 60_000)
    counts: dict = {}
    for value in codes.tolist():
        key = ("v", value % 997, value)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    lengths = {f"w{value}": value for value in codes[:20_000].tolist()}
    for __ in range(12):
        numpy.bincount(codes, minlength=4000)
        numpy.unique(codes[:15_000])
        numpy.argsort(codes[:15_000], kind="stable")
    return len(ranked) + len(lengths)


def calibrate(samples: int = CALIBRATION_SAMPLES) -> list[float]:
    """Seconds per calibration kernel, after one untimed warm-up call."""
    _calibration_kernel()
    times = []
    for __ in range(samples):
        start = perf_counter()
        _calibration_kernel()
        times.append(perf_counter() - start)
    return times


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _signature(db, result) -> str:
    """Hash of the repair trajectory and the final rows."""
    digest = hashlib.sha256()
    digest.update(repr((result.feedback_used, result.learner_decisions, result.iterations)).encode())
    for point in result.trajectory:
        digest.update(repr((point.feedback, point.learner_decisions, point.loss)).encode())
    for tid in sorted(db.tids()):
        digest.update(repr(db.values_snapshot(tid)).encode())
    return digest.hexdigest()


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _trace_metrics(recorder, engine, result, oracle, run_end, workdir) -> dict:
    from gdrbench.tracing import LAYERS

    metrics = {f"{layer}_s": recorder.self_time.get(layer, 0.0) for layer in LAYERS}
    metrics["other_s"] = recorder.self_time["setup"] + recorder.self_time["run"]
    for name in (
        "db.writes", "constraints.whatif_cells", "repair.generated_cells", "repair.applies",
        "repair.refreshes", "voi.benefit_calls", "learner.retrains", "learner.predicted_rows",
        "gdr.loss_evals", "journal.records", "checkpoints",
    ):
        metrics[name] = recorder.counts[name]
    sig = engine.detector.stats
    metrics["constraints.sig_cache_hit_rate"] = _rate(sig["sig_cache_hits"], sig["sig_cache_misses"])
    sim = engine.sim_cache.stats
    metrics["repair.sim_hit_rate"] = _rate(sim["hits"], sim["misses"])
    metrics["repair.sim_misses"] = sim["misses"]
    gen = engine.generator.stats
    metrics["repair.decision_memo_hit_rate"] = _rate(gen["decision_memo_hits"], gen["decision_memo_misses"])
    cache = engine.health()["cache"]
    metrics["voi.prob_memo_hit_rate"] = _rate(cache.get("prob_memo_hits", 0), cache.get("prob_memo_misses", 0))
    metrics["voi.prob_memo_misses"] = cache.get("prob_memo_misses", 0)
    metrics["gdr.drain_s"] = run_end - oracle.answered[-1] if oracle.answered else 0.0
    journal = os.path.join(workdir, "journal.jsonl")
    checkpoint = os.path.join(workdir, "session.ckpt")
    metrics["journal.bytes"] = os.path.getsize(journal) if os.path.exists(journal) else 0
    metrics["checkpoint_bytes"] = os.path.getsize(checkpoint) if os.path.exists(checkpoint) else 0
    metrics["session.questions"] = len(oracle.asked)
    metrics["session.iterations"] = result.iterations
    metrics["session.learner_decisions"] = result.learner_decisions
    return metrics


class FirstQuestion(Exception):
    """Ends a probe session when the first question arrives."""


def session(
    name: str, inputs_path: str, workdir: str, trace: bool, quality: bool, probe: bool
) -> dict:
    workload = WORKLOADS[name]
    calibration = [] if probe else calibrate()
    inputs = load_inputs(inputs_path)
    recorder = None
    if trace:
        from gdrbench.tracing import Recorder, install

        recorder = Recorder()
        install(recorder)

    from gdrbench.oracle import TimedTruthOracle
    from repro import Database, GDRConfig, GDREngine, RuleSet, Schema, parse_rules

    schema_name, attributes = inputs["schema"]
    schema = Schema(schema_name, attributes)
    rows, truth = inputs["dirty"], inputs["clean"]
    rules = RuleSet(parse_rules("\n".join(inputs["rules"])))
    oracle = TimedTruthOracle(truth, attributes)
    # shards stays at its default (0, single process): naming the knob
    # would break the benchmark once the knob is removed
    options = {"seed": workload.config_seed}
    if workload.durable:
        options.update(
            journal_path=os.path.join(workdir, "journal.jsonl"),
            journal_fsync=False,
            checkpoint_path=os.path.join(workdir, "session.ckpt"),
            checkpoint_every=25,
        )
    config = getattr(GDRConfig, workload.preset)(**options)
    loaded_rss = _rss_mb()

    gc.collect()
    setup_start = perf_counter()
    if recorder:
        recorder.enter("setup")
    db = Database(schema, rows)
    engine = GDREngine(db, rules, oracle, config)
    if recorder:
        recorder.exit()
    setup_s = perf_counter() - setup_start

    gc.collect()
    run_start = perf_counter()
    if probe:
        review = oracle.review

        def first_question(update, current_value):
            review(update, current_value)
            raise FirstQuestion

        oracle.review = first_question
        try:
            engine.run(feedback_limit=workload.budget)
        except FirstQuestion:
            return {"setup_s": setup_s, "first_question_s": setup_s + oracle.asked[0] - run_start}
        raise RuntimeError("the engine asked no question")
    if recorder:
        recorder.enter("run")
    result = engine.run(feedback_limit=workload.budget)
    if recorder:
        recorder.exit()
    run_end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - loaded_rss
    calibration += calibrate()

    out = {
        "setup_s": setup_s,
        # the gc pause between the two regions is not the engine's time
        "first_question_s": setup_s + (oracle.asked[0] - run_start if oracle.asked else run_end - run_start),
        "run_s": run_end - run_start,
        "waits_ms": [1000 * w for w in oracle.waits(run_start)],
        "peak_rss_mb": peak_rss_mb,
        "feedback_used": result.feedback_used,
        "budget": workload.budget,
        "signature": _signature(db, result),
        "calibration_s": calibration,
        "numpy": numpy.__version__,
        "flush_policy": FLUSH_POLICY if workload.durable else None,
    }
    if recorder:
        out["trace"] = _trace_metrics(recorder, engine, result, oracle, run_end, workdir)
    engine.detach()
    if quality:
        from repro import QualityEvaluator, evaluate_repair

        quality_start = perf_counter()
        clean = Database(schema, truth)
        evaluator = QualityEvaluator(clean, rules)
        report = evaluate_repair(engine.initial_db, db, clean)
        out["quality"] = {
            "initial_loss": evaluator.loss_of(engine.initial_db),
            "loss_at_budget": evaluator.loss_of(db),
            "precision": report.precision,
            "recall": report.recall,
        }
        out["quality_s"] = perf_counter() - quality_start
    return out


def main(argv: list[str]) -> int:
    name, inputs_path, workdir = argv[:3]
    try:
        out = session(
            name, inputs_path, workdir, "--trace" in argv, "--quality" in argv, "--probe" in argv
        )
    except Exception as exc:  # reported to run.py as a failed session
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
