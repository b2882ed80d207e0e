"""Grouping of candidate updates for batch inspection (paper §3).

GDR groups suggested updates that share contextual information so the
user can sweep through them quickly and so the learner receives
correlated training examples. The paper's grouping function puts
together all updates proposing the *same value* for the *same
attribute* — e.g. "every tuple where 'Michigan City' is suggested for
CT".

Two implementations coexist:

* :func:`group_updates` rebuilds the partition from scratch — the
  reference the index is verified against;
* :class:`GroupIndex` maintains the partition *incrementally* from
  :class:`~repro.repair.state.RepairState` mutation events, so the
  interactive loop re-groups in O(changed suggestions) instead of
  O(pool). :meth:`GroupIndex.verify` cross-checks the index against a
  fresh rebuild, mirroring ``ViolationDetector.verify``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.repair.candidate import CandidateUpdate
from repro.repair.state import EventKind, RepairState, StateEvent

__all__ = ["GroupIndex", "UpdateGroup", "group_sort_key", "group_updates"]

#: Pseudo-key used when grouping is disabled (plain active learning).
UNGROUPED_KEY: tuple[str, object] = ("*", "*")

GroupKey = tuple[str, object]


def group_sort_key(key: GroupKey) -> tuple[str, str, str, str]:
    """Deterministic total order over group keys, mixed types included.

    The historical sort key ``(attribute, str(value))`` collides for
    values of different types sharing a string form (``1`` vs ``"1"``,
    ``1.0``), leaving their relative order to dict insertion order —
    i.e. nondeterministic across runs. The type name and ``repr`` break
    such ties in a type-aware, stable way.
    """
    attribute, value = key
    return (attribute, str(value), type(value).__name__, repr(value))


@dataclass(slots=True)
class UpdateGroup:
    """A batch of updates sharing one ``(attribute, value)`` key.

    Attributes
    ----------
    key:
        The shared ``(attribute, suggested value)`` pair.
    updates:
        Member updates, ordered by ``(tid, attribute)``.
    """

    key: tuple[str, object]
    updates: list[CandidateUpdate] = field(default_factory=list)

    @property
    def attribute(self) -> str:
        """The attribute all member updates target."""
        return self.key[0]

    @property
    def value(self) -> object:
        """The value all member updates suggest."""
        return self.key[1]

    @property
    def size(self) -> int:
        """Number of member updates."""
        return len(self.updates)

    def mean_score(self) -> float:
        """Average update-evaluation score of the members."""
        if not self.updates:
            return 0.0
        return sum(u.score for u in self.updates) / len(self.updates)

    def describe(self) -> str:
        """Human-readable one-liner for display."""
        return f"{self.attribute} -> {self.value!r} ({self.size} updates)"


def group_updates(
    updates: Iterable[CandidateUpdate],
    grouping: bool = True,
) -> list[UpdateGroup]:
    """Partition updates into groups by ``(attribute, value)``.

    Parameters
    ----------
    updates:
        The live candidate updates.
    grouping:
        When False everything lands in a single pseudo-group — this is
        how the *Active-Learning* baseline of §5.2 (no grouping, no
        VOI) is expressed.

    Returns
    -------
    list[UpdateGroup]
        Groups sorted by key for determinism; members sorted by cell.

    Examples
    --------
    >>> from repro.repair import CandidateUpdate
    >>> groups = group_updates([
    ...     CandidateUpdate(1, "city", "Michigan City", 0.5),
    ...     CandidateUpdate(2, "city", "Michigan City", 0.7),
    ...     CandidateUpdate(1, "zip", "46825", 0.9),
    ... ])
    >>> [(g.key, g.size) for g in groups]
    [(('city', 'Michigan City'), 2), (('zip', '46825'), 1)]
    """
    buckets: dict[tuple[str, object], list[CandidateUpdate]] = {}
    for update in updates:
        key = update.group_key if grouping else UNGROUPED_KEY
        buckets.setdefault(key, []).append(update)
    groups = []
    for key in sorted(buckets, key=group_sort_key):
        members = sorted(buckets[key], key=lambda u: u.cell)
        groups.append(UpdateGroup(key, members))
    return groups


class GroupIndex:
    """Incrementally maintained ``(attribute, value)`` partition.

    Subscribes to the repair state's mutation events and keeps, per
    group key: the member updates (by cell), their count, and their
    score sum — so sizes and mean scores are O(1) and the materialised
    :class:`UpdateGroup` (members sorted by cell) is rebuilt only for
    groups whose membership actually changed.

    Parameters
    ----------
    state:
        The repair state to index; the index attaches itself as a
        listener and seeds from the current pool.
    grouping:
        When False every update lands in the single pseudo-group, as
        in :func:`group_updates`.

    Notes
    -----
    Downstream consumers (the cached VOI ranking) can register a
    *dirty-key cursor* via :meth:`dirty_cursor` /
    :meth:`poll_dirty_keys` to learn which groups' membership moved
    since their last poll.
    """

    def __init__(self, state: RepairState, grouping: bool = True) -> None:
        self.state = state
        self.grouping = grouping
        self._members: dict[GroupKey, dict[tuple[int, str], CandidateUpdate]] = {}
        self._score_sum: dict[GroupKey, float] = {}
        # tid -> group keys holding one of the tuple's suggestions
        self._keys_by_tid: dict[int, set[GroupKey]] = {}
        # materialised UpdateGroup cache, per key
        self._built: dict[GroupKey, UpdateGroup] = {}
        # sorted key list cache (invalidated when the key set changes)
        self._sorted_keys: list[GroupKey] | None = None
        # per-key membership version, for staleness stamps
        self._versions: dict[GroupKey, int] = {}
        self._version_counter = 0
        # dirty-key cursors: sets the event handler fans changes into
        self._cursors: list[set[GroupKey]] = []
        state.add_listener(self._on_event)
        self._rebuild()

    # ------------------------------------------------------------------
    # event maintenance
    # ------------------------------------------------------------------
    def _key_of(self, update: CandidateUpdate) -> GroupKey:
        return update.group_key if self.grouping else UNGROUPED_KEY

    def _mark(self, key: GroupKey) -> None:
        self._version_counter += 1
        self._versions[key] = self._version_counter
        self._built.pop(key, None)
        for cursor in self._cursors:
            cursor.add(key)

    def _on_event(self, event: StateEvent) -> None:
        kind = event.kind
        if kind is EventKind.ADDED:
            update = event.update
            key = self._key_of(update)
            bucket = self._members.get(key)
            if bucket is None:
                bucket = self._members[key] = {}
                self._score_sum[key] = 0.0
                self._sorted_keys = None
            bucket[event.cell] = update
            self._score_sum[key] += update.score
            self._keys_by_tid.setdefault(event.cell[0], set()).add(key)
            self._mark(key)
        elif kind is EventKind.REMOVED:
            update = event.update
            key = self._key_of(update)
            bucket = self._members.get(key)
            if bucket is None or bucket.get(event.cell) != update:
                return  # already superseded (defensive)
            del bucket[event.cell]
            self._score_sum[key] -= update.score
            self._mark(key)
            tid = event.cell[0]
            # with grouping on, a group holds at most one cell per tid
            # (all members share the attribute); only the ungrouped
            # pseudo-group can hold several
            if self.grouping or not any(cell[0] == tid for cell in bucket):
                keys = self._keys_by_tid.get(tid)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del self._keys_by_tid[tid]
            if not bucket:
                del self._members[key]
                del self._score_sum[key]
                del self._versions[key]
                self._sorted_keys = None
        elif kind is EventKind.CLEARED:
            self._rebuild()
        # FROZEN carries no membership information beyond the REMOVED
        # event the freeze already emitted

    def _rebuild(self) -> None:
        """Re-seed the index from the state's current pool."""
        for cursor in self._cursors:
            cursor.update(self._members)  # old keys are all dirty now
        self._members = {}
        self._score_sum = {}
        self._keys_by_tid = {}
        self._built = {}
        self._sorted_keys = None
        self._versions = {}
        for update in self.state.live_updates():
            key = self._key_of(update)
            bucket = self._members.setdefault(key, {})
            bucket[update.cell] = update
            self._score_sum[key] = self._score_sum.get(key, 0.0) + update.score
            self._keys_by_tid.setdefault(update.tid, set()).add(key)
            self._version_counter += 1
            self._versions[key] = self._version_counter
        for cursor in self._cursors:
            cursor.update(self._members)  # new keys too

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: GroupKey) -> bool:
        return key in self._members

    def keys(self) -> list[GroupKey]:
        """All group keys in deterministic (type-aware) sort order."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._members, key=group_sort_key)
        return self._sorted_keys

    def size(self, key: GroupKey) -> int:
        """Member count of one group (0 when absent)."""
        bucket = self._members.get(key)
        return len(bucket) if bucket is not None else 0

    def mean_score(self, key: GroupKey) -> float:
        """Average member score of one group (0.0 when absent)."""
        bucket = self._members.get(key)
        if not bucket:
            return 0.0
        return self._score_sum[key] / len(bucket)

    def version(self, key: GroupKey) -> int:
        """Monotonic membership version of one group (0 when absent)."""
        return self._versions.get(key, 0)

    def keys_for_tid(self, tid: int) -> frozenset[GroupKey]:
        """Groups currently holding a suggestion on tuple *tid*."""
        keys = self._keys_by_tid.get(tid)
        return frozenset(keys) if keys else frozenset()

    def group(self, key: GroupKey) -> UpdateGroup | None:
        """The materialised group for *key* (members sorted by cell).

        Materialisation is cached and only recomputed after the
        group's membership changed.
        """
        bucket = self._members.get(key)
        if bucket is None:
            return None
        built = self._built.get(key)
        if built is None:
            members = [bucket[cell] for cell in sorted(bucket)]
            built = self._built[key] = UpdateGroup(key, members)
        return built

    def groups(self) -> list[UpdateGroup]:
        """All groups, sorted exactly like :func:`group_updates`."""
        return [self.group(key) for key in self.keys()]

    # ------------------------------------------------------------------
    # dirty-key cursors
    # ------------------------------------------------------------------
    def dirty_cursor(self) -> int:
        """Register a dirty-key cursor; returns its handle."""
        self._cursors.append(set(self._members))  # everything starts dirty
        return len(self._cursors) - 1

    def poll_dirty_keys(self, cursor: int) -> set[GroupKey]:
        """Keys whose membership changed since the cursor's last poll.

        May include keys that no longer exist (their groups emptied);
        consumers should treat those as deletions.
        """
        dirty = self._cursors[cursor]
        self._cursors[cursor] = set()
        return dirty

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Cross-check the index against a rebuild from scratch.

        Compares keys, member lists (content and order), sizes, score
        sums and the tid reverse index against
        :func:`group_updates` over the live state. Intended for tests.
        """
        reference = group_updates(self.state.updates(), grouping=self.grouping)
        if [g.key for g in reference] != self.keys():
            return False
        for ref in reference:
            mine = self.group(ref.key)
            if mine is None or mine.updates != ref.updates:
                return False
            if self.size(ref.key) != ref.size:
                return False
            if abs(self._score_sum[ref.key] - sum(u.score for u in ref.updates)) > 1e-9:
                return False
        tids: dict[int, set[GroupKey]] = {}
        for ref in reference:
            for update in ref.updates:
                tids.setdefault(update.tid, set()).add(ref.key)
        return tids == self._keys_by_tid

    def detach(self) -> None:
        """Stop listening to state events."""
        self.state.remove_listener(self._on_event)

    def __repr__(self) -> str:
        return f"GroupIndex({len(self._members)} groups, grouping={self.grouping})"
