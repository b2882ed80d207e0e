"""Workload definitions and their deterministic, cached inputs.

A workload's inputs are plain data: the schema, the dirty rows, the
ground-truth rows and the rule set as text.  They are generated once
per (workload, generator source) and cached under ``.inputs/`` beside
this file, so the 5*10^5-row instance is not rebuilt for every run.
Every result records the SHA-256 of the cached payload, so two sides
of a comparison can prove they ran the same inputs.

The instance a workload repairs is fixed by the workload itself (its
dataset, size and generator seed), never by ``run.py --seed``:
the repair-quality metrics are required to be bit-identical across
every run, which rules out re-sampling the instance per seed.  The
seed instead fixes ``PYTHONHASHSEED`` of every measured
interpreter (see ``run.py``), which perturbs hashing and container
layout without changing what a deterministic engine computes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUT_DIR = BENCH_DIR / ".inputs"


@dataclass(frozen=True)
class Workload:
    """One closed-loop scenario: a single simulated user, zero think time."""

    name: str
    dataset: str  # "hospital", "adult" or "synth-hospital"
    n: int
    data_seed: int
    preset: str  # GDRConfig classmethod name
    config_seed: int
    budget: int
    durable: bool = False  # journal (fsync off) + auto-checkpoint every 25 iterations
    # first-question probes per full session: extra set-up samples, worth
    # it only where set-up is a small part of a session
    probes: int = 0
    dataset_args: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hospital-loop", "hospital", 2000, 0, "gdr", 0, 300, probes=4),
        Workload("adult-writes", "adult", 2000, 0, "gdr", 0, 200, durable=True, probes=4),
        # measured on request, not gated: its loop lasts well under a
        # second, so its run_s and wait figures swing 20-50% between runs
        Workload(
            "coldstart-500k",
            "synth-hospital",
            500_000,
            11,
            "no_learning",
            3,
            200,
            dataset_args={"base_n": 2000, "dirty_rate": 0.0005},
        ),
    )
}


def _generator_fingerprint() -> str:
    """Hash of the dataset generator sources; a change re-generates inputs."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro" / "datasets").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _generate(workload: Workload) -> dict:
    """Build the workload's plain-data inputs with the program's generators."""
    from repro.constraints import format_cfd
    from repro.datasets import load_dataset
    from repro.datasets.synth import load_synth_dataset

    if workload.dataset == "synth-hospital":
        ds = load_synth_dataset(
            "hospital", n=workload.n, seed=workload.data_seed, **workload.dataset_args
        )
    else:
        ds = load_dataset(
            workload.dataset, n=workload.n, seed=workload.data_seed, **workload.dataset_args
        )
    tids = sorted(ds.dirty.tids())
    if tids != list(range(len(tids))) or sorted(ds.clean.tids()) != tids:
        raise RuntimeError(f"{workload.name}: generated tids are not 0..n-1")
    return {
        "schema": [ds.dirty.schema.name, list(ds.dirty.schema.attributes)],
        "dirty": [ds.dirty.values_snapshot(tid) for tid in tids],
        "clean": [ds.clean.values_snapshot(tid) for tid in tids],
        "rules": [format_cfd(rule) for rule in ds.rules],
    }


def input_path(workload: Workload) -> Path:
    return INPUT_DIR / f"{workload.name}-{_generator_fingerprint()}.pkl"


def ensure_inputs(workload: Workload) -> tuple[Path, str]:
    """Generate (once) and return ``(path, sha256)`` of the cached inputs."""
    path = input_path(workload)
    if not path.exists():
        payload = pickle.dumps(_generate(workload), protocol=pickle.HIGHEST_PROTOCOL)
        INPUT_DIR.mkdir(exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def load_inputs(path: Path) -> dict:
    """Read a payload written by :func:`ensure_inputs` (our own bytes only)."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


if __name__ == "__main__":
    ensure_inputs(WORKLOADS[sys.argv[1]])
