"""Count gate for the write-surviving decision memo.

On the golden adult instance (the ``adult-gdr`` trajectory case) the
generator decides 5,258 bucketed cells. Clearing the memo on every write
re-ran Algorithm 1 657 times; evicting only the entries whose pool a
write moved re-runs it 301 times and leaves 83 entries alive at the end
of the session. The trajectory itself is pinned by the goldens, so these
counts move only when the memo's bookkeeping does: a change that falls
back to clearing on every write raises the misses, one that stops
evicting or lets dead entries pile up raises the size.
"""

from __future__ import annotations

from repro.core import GDRConfig, GDREngine, GroundTruthOracle
from repro.datasets import load_dataset
from tests.golden.test_trajectories import BUDGET, CONFIG_SEED, DATA_SEED, N


def test_adult_session_decision_memo_counts():
    ds = load_dataset("adult", n=N, seed=DATA_SEED)
    engine = GDREngine(
        ds.fresh_dirty(),
        ds.rules,
        GroundTruthOracle(ds.clean),
        GDRConfig.gdr(seed=CONFIG_SEED),
        clean_db=ds.clean,
    )
    try:
        engine.run(feedback_limit=BUDGET)
        stats = engine.health()["generator"]
    finally:
        engine.detach()
    assert stats["decision_memo_hits"] + stats["decision_memo_misses"] == 5258
    assert stats["decision_memo_misses"] == 301
    assert stats["decision_memo_size"] == 83
    assert stats["decision_memo_evictions"] == 218
    assert stats["decision_memo_structural_clears"] == 0
    assert stats["decision_memo_clears"] == 0
