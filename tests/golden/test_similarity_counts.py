"""Count gate for Algorithm 1's batched Eq. 7 scoring.

The generator queues the decision-memo misses of a generation pass and
scores them in bounded batches through ``SimilarityCache.scores``. That
must score the same pairs in the same order as scoring every decision on
its own: the same hits and misses, the same memo entries inserted in the
same order, and purges at the same points. The fixture
(``similarity_counts.json``) pins the cache's counters and its first 50
``sample_entries()`` after the golden adult and hospital GDR sessions,
at the default capacity and at a capacity of 64 entries (which purges
hundreds of times a session), as generated with per-decision scoring.

Candidate pools hold sets of strings, so the order of a memo bucket
follows the string hash: each session runs in a child interpreter with
``PYTHONHASHSEED=0``.

The fixture was regenerated once since (its ``reason``): the learner's
``p̃`` path stopped looking up the similarities of members that vote a
stored encoding, and scores the members it still encodes through the
code-space memo instead of the string-keyed one. Its ``previous``
block keeps the default-capacity counts from before, and
:func:`test_regeneration_moved_only_the_learner_lookups` pins what that
change may move: at the default capacity, nothing of the code-space
memo (entries, evictions, sample); hits do not rise; and every miss
saved is a string-keyed entry no longer made.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).with_name("similarity_counts.json")
SAMPLE = 50
CAPACITIES = {"default": None, "capacity-64": 64}


def session_counts(capacity: int | None) -> dict:
    """The cache's counters and first entries after each golden GDR
    session (run in the child interpreter)."""
    from repro.core import GDRConfig, GDREngine, GroundTruthOracle
    from repro.datasets import load_dataset
    from tests.golden.test_trajectories import BUDGET, CONFIG_SEED, DATA_SEED, N

    overrides = {} if capacity is None else {"sim_cache_capacity": capacity}
    out = {}
    for dataset in ("hospital", "adult"):
        ds = load_dataset(dataset, n=N, seed=DATA_SEED)
        engine = GDREngine(
            ds.fresh_dirty(),
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.gdr(seed=CONFIG_SEED, **overrides),
            clean_db=ds.clean,
        )
        try:
            engine.run(feedback_limit=BUDGET)
            stats = engine.health()["sim"]
            out[dataset] = {
                key: stats[key]
                for key in ("hits", "misses", "evictions", "pair_entries", "str_entries")
            }
            out[dataset]["sample"] = [list(e) for e in engine.sim_cache.sample_entries(SAMPLE)]
        finally:
            engine.detach()
    return out


def _run_child(capacity: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    code = (
        "import json, sys\n"
        "from tests.golden.test_similarity_counts import session_counts\n"
        f"print(json.dumps(session_counts({capacity!r})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", sorted(CAPACITIES))
def test_session_similarity_counts(name):
    expected = json.loads(FIXTURE.read_text())["cases"]
    got = _run_child(CAPACITIES[name])
    for dataset, counts in got.items():
        assert counts == expected[f"{dataset}-{name}"], dataset


def test_regeneration_moved_only_the_learner_lookups():
    fixture = json.loads(FIXTURE.read_text())
    for name, before in fixture["previous"].items():
        now = fixture["cases"][name]
        for key in ("evictions", "pair_entries", "sample"):
            assert now[key] == before[key], (name, key)
        assert now["hits"] <= before["hits"], name
        saved = before["misses"] - now["misses"]
        assert saved == before["str_entries"] - now["str_entries"] >= 0, name
