"""Golden repair trajectories: every preset x dataset pinned by hash.

Each case runs one engine session at smoke size and hashes everything a
repair decision can move: the ``GDRResult`` counters, the trajectory,
the final rows and, for every feedback decision routed through the
consistency manager, the applied value, the revisited cells and the
replacement suggestion. A readable summary sits next to each hash, so a
mismatch says what moved before anyone diffs hashes.

Besides the preset grid, the fixture pins the instances the engine's
former runtime reference paths (the rebuild pipeline, the sequential
drain, the scalar suggestion engine and the exact-sort learner) were
checked on: Greedy and Random ranking, GDR at two more sizes and seeds,
and the Figure 5 split (``run(drain=False)`` then
``drain_remaining(restrict=False)``). Each of those cases hashed
identically under every reference path before the paths were deleted,
so they carry the end-to-end parity; unit-level oracles (the per-cell
``UpdateGenerator.generate_for_cell``, ``refresh_suggestions_full``,
the cache-free ``VOIEstimator.rank_groups`` and the exact-sort
``RandomForestClassifier``) and the test-side references under
``tests/oracles/`` check each fast kernel.

The fixture changes only on purpose, with a stated reason (the same
ratchet policy as the repolint baseline)::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens="why"
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset

FIXTURE = Path(__file__).with_name("trajectories.json")

N = 300
BUDGET = 40
DATA_SEED = 0
CONFIG_SEED = 0
DATASETS = ("hospital", "adult")
PRESETS = ("gdr", "s_learning", "active_learning", "no_learning")


@dataclass(frozen=True)
class Case:
    """One golden session: a preset on a generated instance."""

    dataset: str
    preset: str
    n: int = N
    data_seed: int = DATA_SEED
    config_seed: int = CONFIG_SEED
    budget: int = BUDGET
    #: extra ``GDRConfig`` fields on top of the preset
    overrides: dict = field(default_factory=dict)
    #: journal + auto-checkpoints on
    durable: bool = False
    #: ``run(drain=False)``, then ``drain_remaining(restrict=False)``
    split_drain: bool = False


CASES = {
    **{
        f"{dataset}-{preset}": Case(dataset, preset)
        for dataset in DATASETS
        for preset in PRESETS
    },
    "adult-gdr-durable": Case("adult", "gdr", durable=True),
    # the baseline rankings, on the instance the rebuild-pipeline
    # parity ran them (no_learning with a ranking override is exactly
    # GDRConfig(ranking=..., learning="none", use_benefit_quota=False))
    "hospital-greedy": Case(
        "hospital", "no_learning", n=150, data_seed=7, config_seed=3,
        overrides={"ranking": "greedy"},
    ),
    "hospital-random": Case(
        "hospital", "no_learning", n=150, data_seed=7, config_seed=3,
        overrides={"ranking": "random"},
    ),
    "hospital-gdr-n150": Case("hospital", "gdr", n=150, data_seed=7, config_seed=3),
    "adult-gdr-n120": Case("adult", "gdr", n=120, data_seed=2, config_seed=1, budget=30),
    # Figure 5: the user stops after F labels, then the learner decides
    # the whole remaining pool
    "hospital-gdr-figure5": Case("hospital", "gdr", budget=100, split_drain=True),
}


def run_case(case: Case, workdir: Path) -> dict:
    """Run one golden session; returns its summary and SHA-256."""
    ds = load_dataset(case.dataset, n=case.n, seed=case.data_seed)
    db = ds.fresh_dirty()
    overrides = dict(case.overrides)
    if case.durable:
        overrides.update(
            journal_path=str(workdir / "journal.jsonl"),
            checkpoint_path=str(workdir / "session.cp"),
            checkpoint_every=5,
        )
    config = getattr(GDRConfig, case.preset)(seed=case.config_seed, **overrides)
    engine = GDREngine(db, ds.rules, GroundTruthOracle(ds.clean), config, clean_db=ds.clean)
    outcomes = []
    apply_feedback = engine.manager.apply_feedback

    def recording(*args, **kwargs):
        outcome = apply_feedback(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    engine.manager.apply_feedback = recording
    try:
        result = engine.run(feedback_limit=case.budget, drain=not case.split_drain)
        drained = engine.drain_remaining(restrict=False) if case.split_drain else None
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
    if drained is not None:
        feed(("drained", drained))
        summary["drained"] = drained
    return {"summary": summary, "sha256": digest.hexdigest()}


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(update_goldens):
    if update_goldens:
        pytest.skip("fixture is being regenerated")
    assert set(_load()["cases"]) == set(CASES)


def test_every_preset_has_a_case_per_dataset():
    """Every ``GDRConfig`` preset classmethod is pinned on both datasets
    as itself (no overrides), so a new preset cannot ship unpinned."""
    presets = {name for name, attr in vars(GDRConfig).items() if isinstance(attr, classmethod)}
    assert presets == set(PRESETS)
    pinned = {(c.dataset, c.preset) for c in CASES.values() if not c.overrides}
    assert {(d, p) for d in DATASETS for p in presets} <= pinned


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_golden(case, tmp_path, update_goldens):
    got = run_case(CASES[case], tmp_path)
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
