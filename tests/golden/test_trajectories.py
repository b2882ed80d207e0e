"""Golden repair trajectories: every preset x dataset pinned by hash.

Each case runs one engine session at smoke size and hashes everything a
repair decision can move: the ``GDRResult`` counters, the trajectory,
the final rows and, for every feedback decision routed through the
consistency manager, the applied value, the revisited cells and the
replacement suggestion. A readable summary sits next to each hash, so a
mismatch says what moved before anyone diffs hashes.

The runtime reference knobs (``suggest="scalar"``, ``pipeline="rebuild"``,
``drain="sequential"``) share the write path's revisit with the default
engine, so parity tests between them cannot see a change there; these
goldens can.

The fixture changes only on purpose, with a stated reason (the same
ratchet policy as the repolint baseline)::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens="why"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset

FIXTURE = Path(__file__).with_name("trajectories.json")

N = 300
BUDGET = 40
DATA_SEED = 0
CONFIG_SEED = 0
PRESETS = ("gdr", "s_learning", "active_learning", "no_learning")

#: case id -> (dataset, preset, journal + auto-checkpoints on)
CASES = {
    **{
        f"{dataset}-{preset}": (dataset, preset, False)
        for dataset in ("hospital", "adult")
        for preset in PRESETS
    },
    "adult-gdr-durable": ("adult", "gdr", True),
}


def run_case(dataset: str, preset: str, durable: bool, workdir: Path) -> dict:
    """Run one golden session; returns its summary and SHA-256."""
    ds = load_dataset(dataset, n=N, seed=DATA_SEED)
    db = ds.fresh_dirty()
    overrides = {}
    if durable:
        overrides = {
            "journal_path": str(workdir / "journal.jsonl"),
            "checkpoint_path": str(workdir / "session.cp"),
            "checkpoint_every": 5,
        }
    config = getattr(GDRConfig, preset)(seed=CONFIG_SEED, **overrides)
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    outcomes = []
    apply_feedback = engine.manager.apply_feedback

    def recording(*args, **kwargs):
        outcome = apply_feedback(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    engine.manager.apply_feedback = recording
    try:
        result = engine.run(feedback_limit=BUDGET)
    finally:
        engine.detach()

    digest = hashlib.sha256()

    def feed(item) -> None:
        digest.update(repr(item).encode())
        digest.update(b"\n")

    feed((
        result.feedback_used,
        result.learner_decisions,
        result.iterations,
        result.initial_loss,
        result.final_loss,
        result.initial_dirty,
        result.remaining_dirty,
        result.report,
    ))
    for point in result.trajectory:
        feed((point.feedback, point.learner_decisions, point.loss))
    for tid in sorted(db.tids()):
        feed((tid, db.values_snapshot(tid)))
    for outcome in outcomes:
        feed((
            outcome.update,
            outcome.feedback,
            outcome.applied_value,
            outcome.revisited_cells,
            outcome.replacement,
        ))
    summary = {
        "feedback_used": result.feedback_used,
        "learner_decisions": result.learner_decisions,
        "iterations": result.iterations,
        "initial_loss": result.initial_loss,
        "final_loss": result.final_loss,
        "remaining_dirty": result.remaining_dirty,
        "trajectory_points": len(result.trajectory),
        "writes": sum(outcome.wrote_database for outcome in outcomes),
        "revisited_cells": sum(len(outcome.revisited_cells) for outcome in outcomes),
    }
    return {"summary": summary, "sha256": digest.hexdigest()}


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(update_goldens):
    if update_goldens:
        pytest.skip("fixture is being regenerated")
    assert set(_load()["cases"]) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_golden(case, tmp_path, update_goldens):
    got = run_case(*CASES[case], tmp_path)
    if update_goldens:
        fixture = _load() if FIXTURE.exists() else {"cases": {}}
        fixture["reason"] = update_goldens
        fixture["cases"][case] = got
        fixture["cases"] = {key: entry for key, entry in fixture["cases"].items() if key in CASES}
        FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        return
    expected = _load()["cases"][case]
    assert got["summary"] == expected["summary"]
    assert got["sha256"] == expected["sha256"]
