"""Synthetic error injection (paper Appendix B protocol).

The paper corrupts its clean base table by randomly picking tuples,
then for each tuple a random subset of attributes, and perturbing each
picked value by **either changing characters or replacing the value
with another value from the attribute's domain**. All experiments run
at 30% dirty tuples.

Additions beyond the paper's protocol:

* *systematic* errors — a hook mapping a tuple to a deterministic wrong
  value, used by the hospital dataset to plant the source-correlated
  recurrent mistakes GDR's learner exploits;
* *detectability enforcement* — optionally keep only corruptions that
  actually violate a rule set, so the ground-truth loss of Eq. 3 is
  fully recoverable by constraint repair.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.constraints.repository import RuleSet
from repro.constraints.violations import ViolationDetector
from repro.db.database import Database
from repro.errors import ConfigError

__all__ = ["CorruptionResult", "CorruptionSpec", "corrupt_database", "perturb_string"]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

#: Optional systematic-error hook: ``fn(row_dict, attribute, rng) -> wrong
#: value or None`` (None falls back to the random perturbation).
SystematicError = Callable[[dict[str, object], str, np.random.Generator], object | None]


def perturb_string(value: object, rng: np.random.Generator) -> str:
    """Character-level perturbation: replace, delete, insert or swap.

    Always returns a string different from ``str(value)`` (guaranteed
    by retrying with an appended character as a last resort).
    """
    text = str(value)
    for _ in range(8):
        if not text:
            candidate = _ALPHABET[int(rng.integers(0, len(_ALPHABET)))]
        else:
            op = int(rng.integers(0, 4))
            pos = int(rng.integers(0, len(text)))
            letter = _ALPHABET[int(rng.integers(0, len(_ALPHABET)))]
            if text[pos].isdigit():
                letter = str(int(rng.integers(0, 10)))
            if op == 0:  # replace
                candidate = text[:pos] + letter + text[pos + 1 :]
            elif op == 1:  # delete
                candidate = text[:pos] + text[pos + 1 :]
            elif op == 2:  # insert
                candidate = text[:pos] + letter + text[pos:]
            else:  # swap with next
                if pos == len(text) - 1:
                    candidate = text[:-1] + letter
                else:
                    candidate = text[:pos] + text[pos + 1] + text[pos] + text[pos + 2 :]
        if candidate != text:
            return candidate
    return text + "x"


@dataclass(slots=True)
class CorruptionSpec:
    """Parameters of the error-injection protocol.

    Attributes
    ----------
    rate:
        Fraction of tuples to dirty (paper: 0.3).
    max_attrs_per_tuple:
        Each dirty tuple gets 1..this many perturbed attributes.
    attributes:
        Candidate attributes to perturb (default: all).
    char_error_prob:
        Probability a perturbation edits characters rather than
        swapping in another domain value.
    systematic:
        Optional hook planting deterministic, context-correlated
        errors; consulted first for every picked cell.
    systematic_prob:
        Probability the hook (when present) is consulted for a cell.
    ensure_detectable:
        When True (requires *rules*), corruptions that do not introduce
        a rule violation are rolled back and retried.
    max_tries:
        Retry budget per tuple when enforcing detectability.
    tuple_weight:
        Optional ``fn(row_dict) -> weight`` biasing which tuples get
        corrupted. Used to model *bursty* sources: a sloppy data-entry
        operator corrupts most of its own tuples, the way the paper
        describes recurrent mistakes ("when SRC = 'H2' the CT attribute
        is incorrect most of the time").
    attribute_picker:
        Optional ``fn(row_dict) -> sequence of attributes`` narrowing
        which attributes a given tuple's errors land on (e.g. a
        city-mangling operator always mangles the city). Falls back to
        *attributes* when it returns nothing.
    attribute_weights:
        Optional relative weights biasing which candidate attribute is
        perturbed (unlisted attributes weigh 1.0).
    """

    rate: float = 0.3
    max_attrs_per_tuple: int = 2
    attributes: Sequence[str] | None = None
    char_error_prob: float = 0.5
    systematic: SystematicError | None = None
    systematic_prob: float = 1.0
    ensure_detectable: bool = False
    max_tries: int = 6
    tuple_weight: Callable[[dict[str, object]], float] | None = None
    attribute_picker: Callable[[dict[str, object]], Sequence[str]] | None = None
    attribute_weights: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_attrs_per_tuple < 1:
            raise ConfigError(f"max_attrs_per_tuple must be >= 1, got {self.max_attrs_per_tuple}")
        if not 0.0 <= self.char_error_prob <= 1.0:
            raise ConfigError(f"char_error_prob must be in [0, 1], got {self.char_error_prob}")


@dataclass(slots=True)
class CorruptionResult:
    """What the injector actually did.

    Attributes
    ----------
    dirty_tuples:
        Tuple ids that received at least one perturbation.
    corrupted_cells:
        Every ``(tid, attribute)`` whose value was changed.
    undetectable_dropped:
        Tuples skipped because no detectable corruption was found
        within the retry budget (only with ``ensure_detectable``).
    """

    dirty_tuples: set[int] = field(default_factory=set)
    corrupted_cells: list[tuple[int, str]] = field(default_factory=list)
    undetectable_dropped: int = 0


def corrupt_database(
    clean: Database,
    spec: CorruptionSpec,
    seed: int = 0,
    rules: RuleSet | None = None,
) -> tuple[Database, CorruptionResult]:
    """Produce a dirty copy of *clean* following *spec*.

    Returns the dirty instance (same schema and tids) and a
    :class:`CorruptionResult` describing the injected errors.

    Examples
    --------
    >>> from repro.db import Database, Schema
    >>> clean = Database(Schema("r", ["a"]), [["alpha"], ["beta"], ["gamma"], ["delta"]])
    >>> dirty, result = corrupt_database(clean, CorruptionSpec(rate=0.5), seed=1)
    >>> len(result.dirty_tuples)
    2
    """
    rng = np.random.default_rng(seed)
    dirty = clean.snapshot()
    result = CorruptionResult()
    attributes = tuple(spec.attributes) if spec.attributes is not None else clean.schema.attributes
    clean.schema.validate_attributes(attributes)
    # domains over the whole schema: the attribute picker may direct
    # errors to attributes outside the default candidate list
    domains = {attr: sorted(map(str, clean.domain(attr))) for attr in clean.schema.attributes}

    tids = dirty.tids()
    n_dirty = int(round(spec.rate * len(tids)))
    if n_dirty and spec.tuple_weight is not None:
        weights = np.array(
            [max(0.0, float(spec.tuple_weight(dirty.row(t).as_dict()))) for t in tids]
        )
        total = weights.sum()
        probabilities = weights / total if total > 0 else None
        picked = rng.choice(len(tids), size=n_dirty, replace=False, p=probabilities)
    elif n_dirty:
        picked = rng.choice(len(tids), size=n_dirty, replace=False)
    else:
        picked = []

    detector: ViolationDetector | None = None
    if spec.ensure_detectable:
        if rules is None:
            raise ConfigError("ensure_detectable requires a rule set")
        detector = ViolationDetector(dirty, rules)

    for index in picked:
        tid = tids[int(index)]
        if _corrupt_tuple(dirty, tid, attributes, domains, spec, rng, result, detector):
            result.dirty_tuples.add(tid)
        else:
            result.undetectable_dropped += 1
    if detector is not None:
        detector.detach()
    # re-encode the final rows in tid order, so the dirty instance's
    # codes do not depend on the order the corruption wrote values in
    rows, next_tid = dirty.export_rows()
    return Database.from_rows(dirty.schema, rows, next_tid), result


def _corrupt_tuple(
    db: Database,
    tid: int,
    attributes: tuple[str, ...],
    domains: dict[str, list[str]],
    spec: CorruptionSpec,
    rng: np.random.Generator,
    result: CorruptionResult,
    detector: ViolationDetector | None,
) -> bool:
    """Perturb one tuple; returns True when a perturbation stuck."""
    tries = spec.max_tries if detector is not None else 1
    candidates = attributes
    if spec.attribute_picker is not None:
        picked_attrs = tuple(spec.attribute_picker(db.row(tid).as_dict()))
        if picked_attrs:
            candidates = picked_attrs
    probabilities = None
    if spec.attribute_weights is not None:
        raw = np.array([spec.attribute_weights.get(a, 1.0) for a in candidates], dtype=float)
        total = raw.sum()
        if total > 0:
            probabilities = raw / total
    for _ in range(tries):
        n_attrs = int(rng.integers(1, spec.max_attrs_per_tuple + 1))
        chosen = rng.choice(
            len(candidates),
            size=min(n_attrs, len(candidates)),
            replace=False,
            p=probabilities,
        )
        writes: list[tuple[str, object, object]] = []
        for ai in chosen:
            attr = candidates[int(ai)]
            old = db.value(tid, attr)
            new = _wrong_value(db, tid, attr, old, domains[attr], spec, rng)
            if new is None or new == old:
                continue
            writes.append((attr, old, new))
        if not writes:
            continue
        for attr, __, new in writes:
            db.set_value(tid, attr, new, source="corruption")
        if detector is not None and not detector.is_dirty(tid):
            for attr, old, __ in writes:  # roll back and retry
                db.set_value(tid, attr, old, source="corruption-rollback")
            continue
        result.corrupted_cells.extend((tid, attr) for attr, __, __2 in writes)
        return True
    return False


def _wrong_value(
    db: Database,
    tid: int,
    attr: str,
    old: object,
    domain: list[str],
    spec: CorruptionSpec,
    rng: np.random.Generator,
) -> object | None:
    if spec.systematic is not None and rng.random() < spec.systematic_prob:
        planted = spec.systematic(db.row(tid).as_dict(), attr, rng)
        if planted is not None and planted != old:
            return planted
    if rng.random() < spec.char_error_prob or len(domain) < 2:
        return perturb_string(old, rng)
    for _ in range(4):
        candidate = domain[int(rng.integers(0, len(domain)))]
        if candidate != str(old):
            return candidate
    return perturb_string(old, rng)
