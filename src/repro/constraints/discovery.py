"""Automatic CFD discovery from (possibly dirty) data.

The paper discovers the rules for Dataset 2 with the technique of Fan
et al. (ICDE 2009) at a 5% support threshold. This module provides the
same capability class:

* :func:`mine_constant_cfds` — a level-wise frequent-pattern miner that
  emits constant CFDs ``(X -> A, (x̄ ‖ a))`` whose LHS pattern has
  support ≥ the threshold and whose RHS value holds with the requested
  confidence on the supporting tuples;
* :func:`discover_variable_cfds` — an FD validator that promotes
  near-functional attribute pairs to variable CFDs (all-wildcard
  pattern) when the violation rate is below a tolerance;
* :func:`discover_rules` — the combined entry point returning a
  :class:`~repro.constraints.repository.RuleSet`.

Because discovery typically runs on dirty data, confidence below 1.0
tolerates the errors the repair process is meant to fix.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence

from repro.constraints.cfd import CFD
from repro.constraints.pattern import ANY
from repro.constraints.repository import RuleSet
from repro.db.database import Database
from repro.errors import ConfigError

__all__ = [
    "discover_rules",
    "discover_variable_cfds",
    "fd_violation_rate",
    "mine_constant_cfds",
]


def mine_constant_cfds(
    db: Database,
    support: float = 0.05,
    confidence: float = 0.95,
    max_lhs: int = 2,
    max_rules: int = 200,
) -> list[CFD]:
    """Mine constant CFDs whose LHS pattern support is ≥ *support*.

    Parameters
    ----------
    db:
        The instance to mine (usually the dirty database, as in the
        paper).
    support:
        Minimum fraction of tuples matching the LHS constants.
    confidence:
        Minimum fraction of supporting tuples sharing the majority RHS
        value; values below 1.0 tolerate dirty cells.
    max_lhs:
        Maximum number of LHS attributes per rule.
    max_rules:
        Hard cap on emitted rules (most-supported first).

    Returns
    -------
    list[CFD]
        Minimal constant rules: a rule is suppressed when a rule with a
        subset LHS pattern already implies the same RHS constant.
    """
    if not 0 < support <= 1:
        raise ConfigError(f"support must be in (0, 1], got {support}")
    if not 0 < confidence <= 1:
        raise ConfigError(f"confidence must be in (0, 1], got {confidence}")
    if max_lhs < 1:
        raise ConfigError(f"max_lhs must be >= 1, got {max_lhs}")
    n = len(db)
    if n == 0:
        return []
    min_count = max(1, int(support * n))
    attrs = db.schema.attributes
    # every column decoded once, keyed by tuple id
    all_tids = db.tids()
    by_tid = {attr: dict(zip(all_tids, db.column(attr))) for attr in attrs}

    # level 1: frequent (attribute, value) items with their tid lists
    tid_lists: dict[tuple[tuple[str, object], ...], set[int]] = {}
    item_index: dict[str, list[tuple[str, object]]] = defaultdict(list)
    for attr in attrs:
        histogram: dict[object, set[int]] = defaultdict(set)
        for tid, value in by_tid[attr].items():
            histogram[value].add(tid)
        for value, tids in histogram.items():
            if len(tids) >= min_count:
                item = (attr, value)
                tid_lists[(item,)] = tids
                item_index[attr].append(item)

    emitted: list[tuple[int, CFD]] = []
    accepted: list[tuple[str, object, dict[str, object]]] = []

    def consider(itemset: tuple[tuple[str, object], ...], tids: set[int]) -> None:
        lhs_attrs = [attr for attr, __ in itemset]
        lhs_pattern = dict(itemset)
        for rhs in attrs:
            if rhs in lhs_pattern:
                continue
            counts = Counter(map(by_tid[rhs].__getitem__, tids))
            value, count = counts.most_common(1)[0]
            if count / len(tids) < confidence:
                continue
            if _is_redundant(accepted, rhs, value, lhs_pattern):
                continue
            pattern = dict(lhs_pattern)
            pattern[rhs] = value
            emitted.append((len(tids), CFD(lhs_attrs, rhs, pattern)))
            accepted.append((rhs, value, lhs_pattern))

    level = sorted(tid_lists)
    for itemset in level:
        consider(itemset, tid_lists[itemset])
    for _size in range(2, max_lhs + 1):
        next_lists: dict[tuple[tuple[str, object], ...], set[int]] = {}
        for itemset in level:
            base_tids = tid_lists[itemset]
            last_attr = itemset[-1][0]
            for attr in attrs:
                if attr <= last_attr or any(a == attr for a, __ in itemset):
                    continue
                for item in item_index.get(attr, ()):  # extend in attr order
                    tids = base_tids & tid_lists[(item,)]
                    if len(tids) >= min_count:
                        next_lists[itemset + (item,)] = tids
        level = sorted(next_lists)
        tid_lists.update(next_lists)
        for itemset in level:
            consider(itemset, next_lists[itemset])

    emitted.sort(key=lambda pair: (-pair[0], repr(pair[1])))
    return [rule for __, rule in emitted[:max_rules]]


def _is_redundant(
    accepted: list[tuple[str, object, dict[str, object]]],
    rhs: str,
    value: object,
    lhs_pattern: dict[str, object],
) -> bool:
    """A rule is redundant if a subset-LHS rule implies the same constant."""
    for acc_rhs, acc_value, acc_lhs in accepted:
        if acc_rhs != rhs or acc_value != value:
            continue
        if all(lhs_pattern.get(a) == v for a, v in acc_lhs.items()):
            return True
    return False


def _lhs_keys(db: Database, lhs: Sequence[str]) -> list[tuple[object, ...]]:
    """Every tuple's *lhs* values, in tid order (one decode per column)."""
    return list(zip(*(db.column(a) for a in lhs))) if lhs else [()] * len(db)


def fd_violation_rate(db: Database, lhs: Sequence[str], rhs: str) -> float:
    """Fraction of tuples deviating from the FD ``lhs -> rhs``.

    For each LHS partition the majority RHS value is taken as the
    consensus; the rate is the fraction of tuples carrying a minority
    value. A true FD over data with an error rate ``e`` scores ≈ ``e``.
    Returns 0.0 on an empty database.
    """
    groups: dict[tuple[object, ...], Counter] = defaultdict(Counter)
    for key, value in zip(_lhs_keys(db, lhs), db.column(rhs)):
        groups[key][value] += 1
    n = len(db)
    if n == 0:
        return 0.0
    minority = sum(
        sum(counts.values()) - counts.most_common(1)[0][1] for counts in groups.values()
    )
    return minority / n


def discover_variable_cfds(
    db: Database,
    candidates: Sequence[tuple[Sequence[str], str]] | None = None,
    max_violation_rate: float = 0.1,
    min_sharing: float = 1.2,
    min_reduction: float = 0.5,
) -> list[CFD]:
    """Promote near-functional dependencies to variable CFDs.

    Parameters
    ----------
    db:
        Instance to validate against.
    candidates:
        ``(lhs_attributes, rhs_attribute)`` pairs to test. Defaults to
        all single-attribute LHS pairs.
    max_violation_rate:
        Maximum tolerated fraction of minority tuples (dirty data still
        deviates from a true FD at roughly the cell error rate).
    min_sharing:
        Minimum average LHS-partition size; an FD whose LHS is nearly a
        key is vacuous for repair and is skipped.
    min_reduction:
        The conditional deviation rate must be at most this fraction of
        the *unconditional* one (the RHS column's own minority mass) —
        otherwise the "FD" explains nothing and a skewed independent
        column would masquerade as functional.
    """
    if candidates is None:
        attrs = db.schema.attributes
        candidates = [([a], b) for a in attrs for b in attrs if a != b]
    rules: list[CFD] = []
    baselines: dict[str, float] = {}
    for lhs, rhs in candidates:
        lhs = list(lhs)
        keys = set(_lhs_keys(db, lhs))
        if not keys or len(db) / len(keys) < min_sharing:
            continue
        rate = fd_violation_rate(db, lhs, rhs)
        if rate > max_violation_rate:
            continue
        baseline = baselines.get(rhs)
        if baseline is None:
            counts = Counter(db.column(rhs))
            n = max(1, len(db))
            baseline = (n - counts.most_common(1)[0][1]) / n if counts else 0.0
            baselines[rhs] = baseline
        if baseline <= 0.0 or rate > min_reduction * baseline:
            continue
        pattern = {a: ANY for a in lhs}
        pattern[rhs] = ANY
        rules.append(CFD(lhs, rhs, pattern))
    return rules


def discover_rules(
    db: Database,
    support: float = 0.05,
    confidence: float = 0.95,
    max_lhs: int = 2,
    max_rules: int = 200,
    variable_candidates: Sequence[tuple[Sequence[str], str]] | None = None,
    max_violation_rate: float = 0.1,
    min_reduction: float = 0.5,
    include_variable: bool = True,
) -> RuleSet:
    """Discover a full rule set (constant miner + FD validator).

    This is the Dataset 2 pipeline of the paper: discover rules from
    the instance itself with a support threshold, then hand them to the
    repair framework.
    """
    rules: list[CFD] = mine_constant_cfds(
        db, support=support, confidence=confidence, max_lhs=max_lhs, max_rules=max_rules
    )
    if include_variable:
        rules.extend(
            discover_variable_cfds(
                db,
                candidates=variable_candidates,
                max_violation_rate=max_violation_rate,
                min_reduction=min_reduction,
            )
        )
    return RuleSet(rules, schema=db.schema)
