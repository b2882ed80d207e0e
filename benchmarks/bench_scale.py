"""Scale benchmark: the serial violation engine at 10^4–10^6 rows.

Times the violation and ranking work on the deterministic scale-up
instances from :mod:`repro.datasets.synth`:

* ``test_detect`` — a full violation detection pass (the columnar
  rebuild behind ``ViolationDetector.recompute``);
* ``test_what_if`` — a drain-sized batch of what-if probes through
  ``what_if_moved_many_cells`` (the VOI ranking hot path);
* ``test_pipeline_first_group`` — cold start to the first ranked
  group. The timed region starts from raw rows: ``Database``
  construction and dictionary encoding of the code matrix, detector
  build, suggestion generation and one Eq. 6 ranking pass. Only
  generating the synthetic rows themselves happens in untimed setup.

Scale knobs::

    REPRO_SCALE_SIZES   comma-separated row counts   (default 10000)
    REPRO_SCALE_DIRTY   base-block dirty rate        (default 0.3;
                        use ~0.0005 for 10^5-10^6-row pipeline runs)

CI smoke runs the default 10^4 instance; the larger points are recorded
locally, e.g.::

    REPRO_SCALE_SIZES=10000,100000 REPRO_SCALE_DIRTY=0.0005 \\
        python benchmarks/run_bench.py --suite scale
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.constraints.violations import ViolationDetector
from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_synth_dataset
from repro.db.database import Database

SIZES = tuple(
    int(s) for s in os.environ.get("REPRO_SCALE_SIZES", "10000").split(",")
)
DIRTY_RATE = float(os.environ.get("REPRO_SCALE_DIRTY", "0.3"))

#: Probe cells per what-if batch (one VOI ranking pass worth).
PROBE_CELLS = 256
#: Candidate values per probed cell.
PROBE_CANDIDATES = 4

_DATASETS: dict[int, object] = {}
_DETECTORS: dict[int, tuple[object, ViolationDetector]] = {}


def _dataset(n: int):
    ds = _DATASETS.get(n)
    if ds is None:
        ds = _DATASETS[n] = load_synth_dataset(
            "hospital", n=n, base_n=min(2000, n), seed=11, dirty_rate=DIRTY_RATE
        )
    return ds


def _detector(n: int):
    entry = _DETECTORS.get(n)
    if entry is None:
        ds = _dataset(n)
        db = ds.fresh_dirty()
        entry = _DETECTORS[n] = (db, ViolationDetector(db, ds.rules))
    return entry


def _probe_batch(db, seed: int = 17):
    rng = np.random.default_rng(seed)
    tids = sorted(db.tids())
    attrs = list(db.schema.attributes)
    cells = []
    for _ in range(PROBE_CELLS):
        tid = tids[int(rng.integers(0, len(tids)))]
        attr = attrs[int(rng.integers(0, len(attrs)))]
        pos = db.schema.position(attr)
        cols = db.columns
        codes = cols.codes_at(pos, np.ones(len(cols), dtype=bool))
        dom = cols.vocabulary(pos).decode_many(codes.tolist())
        step = max(1, len(dom) // PROBE_CANDIDATES)
        cells.append((tid, attr, [dom[i * step % len(dom)] for i in range(PROBE_CANDIDATES)]))
    return cells


@pytest.mark.parametrize("n", SIZES)
def test_detect(benchmark, n):
    __, detector = _detector(n)
    benchmark(detector.recompute)
    benchmark.extra_info["rows"] = n


@pytest.mark.parametrize("n", SIZES)
def test_what_if(benchmark, n):
    db, detector = _detector(n)
    cells = _probe_batch(db)
    benchmark(detector.what_if_moved_many_cells, cells)
    benchmark.extra_info["cells"] = len(cells)


@pytest.mark.parametrize("n", SIZES)
def test_pipeline_first_group(benchmark, n):
    """Cold start from raw rows to the first ranked group."""
    ds = _dataset(n)
    schema = ds.dirty.schema
    rows, next_tid = ds.dirty.export_rows()

    def first_group():
        db = Database.from_rows(schema, rows, next_tid)
        engine = GDREngine(
            db,
            ds.rules,
            GroundTruthOracle(ds.clean),
            GDRConfig.no_learning(seed=3),
            clean_db=None,
        )
        picked = engine._pick_top_group()
        engine.detach()
        return picked

    group, benefit, __, ranked = benchmark.pedantic(first_group, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = n
    benchmark.extra_info["ranked_groups"] = ranked
    benchmark.extra_info["dirty_rate"] = DIRTY_RATE
