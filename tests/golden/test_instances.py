"""The golden instances: their codes and the rules discovered on them.

The decision memo, the similarity memo and the probe signatures are
keyed by column codes, so the golden trajectories rely on every golden
instance assigning the codes a fresh encode of its rows in tid order
assigns. Rule discovery on the same instances must keep returning the
same rules in the same order.
"""

import hashlib
from functools import cache

import pytest

from repro.constraints.discovery import discover_rules
from repro.datasets import load_dataset
from repro.db import ColumnStore

from tests.golden.test_trajectories import CASES

INSTANCES = sorted({(case.dataset, case.n, case.data_seed) for case in CASES.values()})
IDS = [f"{name}-n{n}-seed{seed}" for name, n, seed in INSTANCES]

#: sha256 over the newline-joined reprs of ``discover_rules(ds.dirty)``
DISCOVERED = {
    ("hospital", 300, 0): (27, "bac3931cad116c1b89b40c509c37f1129392cea1f2cfb365d8c466efaea97b85"),
    ("adult", 300, 0): (16, "af2a9d768e7dc89ba912c1fc6beffafff0b56bc571bd0f7449e3f7218ff9bbae"),
    ("hospital", 150, 7): (46, "aa69ab0fa625572aa68e1e3cb43264cfea807dc0a32198668d2a162cab4ae677"),
    ("adult", 120, 2): (44, "ec08111eb6feda322d4522e92087f07bda1e2813265345d46102c458aaaf7dcf"),
}


@cache
def dataset(name, n, seed):
    return load_dataset(name, n=n, seed=seed)


def test_pins_cover_every_golden_instance():
    assert set(DISCOVERED) == set(INSTANCES)


@pytest.mark.parametrize("instance", INSTANCES, ids=IDS)
def test_fresh_dirty_codes_equal_a_tid_order_encode(instance):
    db = dataset(*instance).fresh_dirty()
    cols = db.columns
    reference = ColumnStore(db.schema, [(tid, db.values_snapshot(tid)) for tid in db.tids()])
    assert cols.tids().tolist() == reference.tids().tolist() == db.tids()
    for pos in range(len(db.schema)):
        vocab, expected = cols.vocabulary(pos), reference.vocabulary(pos)
        assert vocab.decode_many(range(len(vocab))) == expected.decode_many(range(len(expected)))
        assert cols.codes(pos).tolist() == reference.codes(pos).tolist()


@pytest.mark.parametrize("instance", INSTANCES, ids=IDS)
def test_discovered_rules_unchanged(instance):
    rules = discover_rules(dataset(*instance).dirty)
    digest = hashlib.sha256("\n".join(repr(rule) for rule in rules).encode()).hexdigest()
    assert (len(rules), digest) == DISCOVERED[instance]
