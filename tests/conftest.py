"""Shared fixtures: the paper's Figure 1 example and small datasets."""

from __future__ import annotations

import copy

import pytest

from repro.constraints import RuleSet, parse_rules
from repro.datasets import load_dataset
from repro.db import Database, Schema

FIGURE1_ATTRS = ["name", "src", "street", "city", "state", "zip"]

# A Figure 1-like instance: the clean version of the paper's example
# relation (same cities/zips as the paper's tableau).
FIGURE1_CLEAN_ROWS = [
    ["Jim", "H1", "Redwood Dr", "Michigan City", "IN", "46360"],
    ["Tom", "H2", "Redwood Dr", "Michigan City", "IN", "46360"],
    ["Ann", "H2", "Main St", "Michigan City", "IN", "46360"],
    ["Sue", "H2", "Oak Ave", "Michigan City", "IN", "46360"],
    ["Joe", "H3", "Sherden RD", "Fort Wayne", "IN", "46825"],
    ["Max", "H3", "Sherden RD", "Fort Wayne", "IN", "46825"],
    ["Pat", "H4", "Bell Ave", "New Haven", "IN", "46774"],
    ["Ken", "H4", "Bell Ave", "New Haven", "IN", "46774"],
]

FIGURE1_RULES_TEXT = """
phi1: (zip -> city, state, {46360 || 'Michigan City', IN})
phi2: (zip -> city, state, {46774 || 'New Haven', IN})
phi3: (zip -> city, state, {46825 || 'Fort Wayne', IN})
phi4: (zip -> city, state, {46391 || 'Westville', IN})
phi5: (street, city -> zip, {-, - || -})
"""


def make_figure1_dirty_rows() -> list[list[str]]:
    """The clean rows with four planted errors (as in the paper's intro)."""
    rows = copy.deepcopy(FIGURE1_CLEAN_ROWS)
    rows[1][3] = "Westville"  # t1: wrong city for zip 46360
    rows[2][3] = "Westvile"  # t2: misspelled city
    rows[4][5] = "46391"  # t4: wrong zip for Fort Wayne street pair
    rows[6][3] = "FT Wayne"  # t6: recurrent-mistake abbreviation
    return rows


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        default="",
        metavar="REASON",
        help="rewrite tests/golden/trajectories.json, recording REASON in it",
    )


@pytest.fixture()
def update_goldens(request) -> str:
    """The stated reason for regenerating the golden trajectories, or ''."""
    return request.config.getoption("--update-goldens")


@pytest.fixture()
def figure1_schema() -> Schema:
    """Schema of the Figure 1 example relation."""
    return Schema("customer", FIGURE1_ATTRS)


@pytest.fixture()
def figure1_clean(figure1_schema) -> Database:
    """The clean Figure 1 instance."""
    return Database(figure1_schema, copy.deepcopy(FIGURE1_CLEAN_ROWS))


@pytest.fixture()
def figure1_dirty(figure1_schema) -> Database:
    """The dirty Figure 1 instance (four planted errors)."""
    return Database(figure1_schema, make_figure1_dirty_rows())


@pytest.fixture()
def figure1_rules(figure1_schema) -> RuleSet:
    """The Figure 1 rule set in normal form."""
    return RuleSet(parse_rules(FIGURE1_RULES_TEXT), schema=figure1_schema)


@pytest.fixture(scope="session")
def hospital_dataset():
    """A small hospital (Dataset 1 analogue) instance, shared per session."""
    return load_dataset("hospital", n=300, seed=11)


@pytest.fixture(scope="session")
def adult_dataset():
    """A small adult (Dataset 2 analogue) instance, shared per session."""
    return load_dataset("adult", n=300, seed=11)
