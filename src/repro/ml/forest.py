"""Random-forest committee classifier (Breiman 2001, paper §4.2).

The paper builds, per attribute, a WEKA random forest of ``k = 10``
trees: each tree is grown on a bootstrap sample and restricts every
split to a random feature subset. The committee's *vote fractions*
drive both the prediction (majority vote) and the active-learning
uncertainty score (entropy of the fractions, base #classes).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, NotFittedError
from repro.ml.binning import BinnedMatrix, bin_matrix
from repro.ml.metrics import vote_entropy
from repro.ml.tree import (
    _HIST_MAX_BINS,
    _LEAF,
    DecisionTreeClassifier,
    HistogramTreeClassifier,
    _resolve_max_features,
    leaf_proba,
    normalised_importances,
)

__all__ = ["HistogramForestClassifier", "RandomForestClassifier"]

#: Rows per committee walk in ``vote_fractions``; larger batches are
#: walked chunk by chunk, which caps the walk's peak memory.
_VOTE_CHUNK_ROWS = 256


class _NodeArrays:
    """Node arrays of a whole committee, grown in place.

    The batched grower appends every tree's nodes here as it creates
    them. Trees interleave, but each tree's own nodes keep their
    creation order, so a per-tree view numbers them exactly like the
    reference's per-tree lists. Child pointers are ids into these
    arrays, which :meth:`HistogramForestClassifier.vote_fractions`
    walks directly.
    """

    __slots__ = ("size", "owner", "feature", "threshold", "left", "right", "counts")

    def __init__(self, capacity: int, n_classes: int) -> None:
        self.size = 0
        self.owner = np.empty(capacity, dtype=np.int64)
        self.feature = np.full(capacity, _LEAF, dtype=np.int64)
        self.threshold = np.zeros(capacity, dtype=np.float64)
        self.left = np.full(capacity, _LEAF, dtype=np.int64)
        self.right = np.full(capacity, _LEAF, dtype=np.int64)
        self.counts = np.empty((capacity, n_classes), dtype=np.int64)

    def add(self, owners: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Append one leaf per entry of *owners*; returns their ids."""
        start = self.size
        end = start + len(owners)
        if end > len(self.owner):
            self.resize(max(end, 2 * len(self.owner)))
        self.owner[start:end] = owners
        self.counts[start:end] = counts
        self.size = end
        return np.arange(start, end)

    def resize(self, capacity: int) -> None:
        """Reallocate to *capacity* rows, keeping the filled ones."""
        n = min(self.size, capacity)
        for name, fill in (
            ("owner", None), ("feature", _LEAF), ("threshold", 0.0),
            ("left", _LEAF), ("right", _LEAF), ("counts", None),
        ):
            old = getattr(self, name)
            shape = (capacity,) + old.shape[1:]
            new = np.empty(shape, old.dtype) if fill is None else np.full(shape, fill, old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)


def _class_totals(counts: np.ndarray) -> np.ndarray:
    """Sums over the last (class) axis of integer counts.

    Column adds instead of ``.sum(axis=-1)``: the reduction's per-row
    dispatch dominates at three classes, and integer sums are exact in
    any order.
    """
    totals = counts[..., 0].astype(np.int64)
    for c in range(1, counts.shape[-1]):
        totals += counts[..., c]
    return totals


def _square_sum(fractions: np.ndarray) -> np.ndarray:
    """Row sums of squared class fractions, ``(lanes, C) -> (lanes,)``.

    Three classes (the learner's shape) are added left to right, the
    order NumPy sums a length-3 axis in, so the result is bit-identical
    to ``.sum(axis=1)`` without the reduction's dispatch cost.
    """
    squares = fractions**2
    if squares.shape[1] == 3:
        return squares[:, 0] + squares[:, 1] + squares[:, 2]
    return squares.sum(axis=1)


def _grow_forest_batched(
    binned: BinnedMatrix,
    y: np.ndarray,
    samples: list[np.ndarray],
    seeds: list[int],
    n_classes: int,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features,
) -> tuple[_NodeArrays, np.ndarray, np.ndarray]:
    """Grow every tree of the committee simultaneously, bit-identically.

    Each round pops ONE pending node from every tree's DFS stack and
    scores all of them with one fused histogram pass. Per-tree state —
    the RNG stream, the DFS pop order, node numbering, every float64
    operation a node's split search performs — is exactly what
    :meth:`HistogramTreeClassifier.fit_binned` (and therefore the
    exact-sort reference) would produce tree by tree; batching only
    amortises the per-node numpy dispatch overhead across the
    committee. Returns the committee's node arrays, the root id of
    every tree and the per-tree raw importances ``(n_trees, n_feat)``.
    """
    codes_t = np.ascontiguousarray(binned.codes.T).astype(np.int64)
    bins_per_feat = np.array([len(v) for v in binned.bin_values], dtype=np.intp)
    # flattened bin-value table: threshold lookups for a whole round
    # become two gathers instead of per-member ragged indexing
    values_flat = np.concatenate(binned.bin_values)
    value_offsets = np.concatenate(
        [[0], np.cumsum(bins_per_feat)[:-1]]
    )
    n_feat = binned.n_features
    k = _resolve_max_features(max_features, n_feat)
    C = n_classes
    msl = min_samples_leaf
    all_features = np.arange(n_feat)
    # one fixed histogram width per fit: the rectangles stay tiny (the
    # large-vocabulary features are excluded), and every per-round
    # shape computation disappears
    n_bins = max(
        (int(b) for b in bins_per_feat if b <= _HIST_MAX_BINS), default=1
    )
    has_large = bool((bins_per_feat > _HIST_MAX_BINS).any())
    slot_offsets = np.arange(k) * (n_bins * C)
    bins_arange = np.arange(n_bins)
    row_base = n_bins * C * k

    n_trees = len(samples)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n_total = np.array([len(sample) for sample in samples], dtype=np.int64)
    nodes = _NodeArrays(16 * n_trees, C)
    root_counts = np.stack([np.bincount(y[sample], minlength=C) for sample in samples])
    roots = nodes.add(np.arange(n_trees), root_counts)
    def splittable(sizes: np.ndarray, nnz: np.ndarray, depth) -> np.ndarray:
        # the reference's leaf checks; purity (nnz <= 1) implies parent
        # gini exactly 0, and nnz >= 2 implies gini > 0 in float64, so
        # this is also its gini <= 0 bailout. Leaves draw no RNG, so
        # never stacking them keeps every tree's draw order intact.
        ok = (sizes >= min_samples_split) & (nnz > 1)
        if max_depth is not None:
            ok &= depth < max_depth
        return ok

    # DFS stacks of (node, GLOBAL row ids into the shared binned
    # matrix, depth), holding splittable nodes only
    root_ok = splittable(
        n_total, _class_totals(root_counts != 0), np.zeros(n_trees, dtype=np.int64)
    ).tolist()
    stacks: list[list[tuple[int, np.ndarray, int]]] = [
        [(root, sample, 0)] if ok else []
        for root, sample, ok in zip(roots.tolist(), samples, root_ok)
    ]
    imp_trees: list[np.ndarray] = []
    imp_feats: list[np.ndarray] = []
    imp_vals: list[np.ndarray] = []
    pending = list(range(n_trees))
    arange_cache = np.arange(0, dtype=np.int64)
    while True:
        # one node per tree with work left, popped in its DFS order
        pending = [t for t in pending if stacks[t]]
        if not pending:
            break
        act_trees = pending
        act_nodes, act_idx, act_depths = zip(*[stacks[t].pop() for t in pending])
        if k < n_feat:
            cands = [rngs[t].permutation(n_feat)[:k] for t in pending]
        else:
            cands = [all_features] * len(pending)
        B = len(act_nodes)
        node_arr = np.array(act_nodes, dtype=np.int64)
        counts_mat = nodes.counts[node_arr]
        sizes = np.array([len(idx) for idx in act_idx], dtype=np.int64)
        parent_gini = 1.0 - ((counts_mat / sizes[:, None]) ** 2).sum(axis=1)

        cand_mat = np.concatenate(cands).reshape(B, k)
        if has_large:
            slot_large = bins_per_feat[cand_mat] > _HIST_MAX_BINS
            any_large = bool(slot_large.any())
        else:
            any_large = False
        # row-major pair layout: row r of the round owns pair slots
        # r*k .. r*k+k-1, one per candidate — all pair arrays are built
        # with round-level repeats, no per-member loop
        idx_cat = np.concatenate(act_idx)
        total_rows = len(idx_cat)
        if arange_cache.size < total_rows:
            arange_cache = np.arange(
                max(total_rows, 2 * arange_cache.size), dtype=np.int64
            )
        row_member = np.repeat(arange_cache[:B], sizes)
        row_starts = np.empty(B + 1, dtype=np.int64)
        row_starts[0] = 0
        np.cumsum(sizes, out=row_starts[1:])
        R = np.repeat(idx_cat, k)
        F = cand_mat[row_member].ravel()
        codes_pairs = codes_t[F, R]
        y_cat = y[idx_cat]
        if any_large:
            # clamp large-vocabulary slots to bin 0: they are scored by
            # the node-compact path below, not the fused histogram
            hist_codes = np.where(slot_large[row_member].ravel(), 0, codes_pairs)
        else:
            hist_codes = codes_pairs
        # flat histogram index, built row-wise: a row's class label and
        # slot offsets broadcast over its k pair slots
        flat = row_member * row_base + y_cat
        flat = flat[:, None] + slot_offsets
        flat += hist_codes.reshape(-1, k) * C
        hist = np.bincount(flat.ravel(), minlength=B * row_base).reshape(B, k, n_bins, C)
        cum = hist.cumsum(axis=2)  # (B, k, bins, C) left class counts
        bin_totals = _class_totals(hist)
        left_sizes = bin_totals.cumsum(axis=2)
        nb = sizes[:, None, None]
        if msl > 1:
            valid = (
                (bin_totals > 0)
                & (left_sizes < nb)
                & (left_sizes >= msl)
                & (nb - left_sizes >= msl)
            )
        else:
            # min_samples_leaf == 1: both leaf-size bounds are implied
            # by "non-empty, non-final bin"
            valid = (bin_totals > 0) & (left_sizes < nb)
        if any_large:
            valid &= ~slot_large[:, :, None]
        # score the valid lanes only: both children of a valid lane are
        # non-empty, so no lane divides by zero, and each lane's float64
        # operations are the reference's for that boundary
        lanes = np.flatnonzero(valid)
        lane_member = lanes // (k * n_bins)
        lane_n = sizes[lane_member]
        lane_left = left_sizes.ravel()[lanes]
        lane_right = lane_n - lane_left
        left_counts = cum.reshape(-1, C)[lanes]
        gini_left = 1.0 - _square_sum(left_counts / lane_left[:, None])
        right_counts = counts_mat[lane_member] - left_counts
        gini_right = 1.0 - _square_sum(right_counts / lane_right[:, None])
        gains = np.full(B * k * n_bins, -np.inf)
        gains[lanes] = parent_gini[lane_member] - (
            lane_left * gini_left + lane_right * gini_right
        ) / lane_n
        gains = gains.reshape(B, k, n_bins)
        bb = gains.argmax(axis=2)  # (B, k) first-max bin per slot
        slot_best = gains.max(axis=2)

        large_best: dict[tuple[int, int], tuple[np.ndarray, int, np.ndarray]] = {}
        if any_large:
            for b, j in zip(*np.nonzero(slot_large)):
                b, j = int(b), int(j)
                s0, s1 = row_starts[b], row_starts[b + 1]
                col = codes_pairs[s0 * k + j:s1 * k:k]
                present, inverse = np.unique(col, return_inverse=True)
                if present.size < 2:
                    continue
                n = int(sizes[b])
                hist_f = np.bincount(
                    inverse * C + y_cat[s0:s1], minlength=present.size * C
                ).reshape(present.size, C)
                # every present value is non-empty and the last one is
                # cut, so both sides of every boundary are non-empty
                cum_f = hist_f.cumsum(axis=0)[:-1]
                ls = cum_f.sum(axis=1)
                valid_f = (ls >= msl) & (n - ls >= msl)
                if not valid_f.any():
                    continue
                rs = n - ls
                gl = 1.0 - _square_sum(cum_f / ls[:, None])
                rc = counts_mat[b][None, :] - cum_f
                gr = 1.0 - _square_sum(rc / rs[:, None])
                gains_f = parent_gini[b] - (ls * gl + rs * gr) / n
                gains_f[~valid_f] = -np.inf
                pos_f = int(gains_f.argmax())
                slot_best[b, j] = gains_f[pos_f]
                large_best[(b, j)] = (present, pos_f, cum_f[pos_f].copy())

        # first slot holding the overall max = the reference's
        # strictly-greater sweep in candidate order
        win = slot_best.argmax(axis=1)
        b_arange = arange_cache[:B]
        best_gain = slot_best[b_arange, win]
        split_mask = best_gain > 1e-12
        if not split_mask.any():
            continue
        # batched winner decoding: boundary bin, next non-empty bin,
        # midpoint threshold, left partition, child class counts —
        # large-slot winners are patched from the compact path
        boundary_arr = bb[b_arange, win]
        win_totals = bin_totals[b_arange, win]  # (B, n_bins)
        beyond = bins_arange[None, :] > boundary_arr[:, None]
        after_arr = ((win_totals > 0) & beyond).argmax(axis=1)
        left_counts_mat = cum[b_arange, win, boundary_arr]  # (B, C)
        if large_best:
            for (b, j), (present, pos_f, lc) in large_best.items():
                if win[b] == j and split_mask[b]:
                    boundary_arr[b] = present[pos_f]
                    after_arr[b] = present[pos_f + 1]
                    left_counts_mat[b] = lc
        feat_win = cand_mat[b_arange, win]
        offs = value_offsets[feat_win]
        thresholds_arr = 0.5 * (
            values_flat[offs + boundary_arr] + values_flat[offs + after_arr]
        )
        # write the round's splits into the node arrays: every left
        # child, then every right child — a round holds one node per
        # tree, so each tree still creates left before right, like the
        # reference's new_node
        split = np.flatnonzero(split_mask)
        S = len(split)
        parents = node_arr[split]
        owners = np.array(act_trees, dtype=np.int64)[split]
        child_counts = np.empty((2 * S, C), dtype=np.int64)
        child_counts[:S] = left_counts_mat[split]
        np.subtract(counts_mat[split], child_counts[:S], out=child_counts[S:])
        children = nodes.add(np.concatenate([owners, owners]), child_counts)
        nodes.feature[parents] = feat_win[split]
        nodes.threshold[parents] = thresholds_arr[split]
        nodes.left[parents] = children[:S]
        nodes.right[parents] = children[S:]
        imp_trees.append(owners)
        imp_feats.append(feat_win[split])
        imp_vals.append(best_gain[split] * sizes[split] / n_total[owners])
        # partition every member's rows in one pass; a member's left
        # (right) rows are one contiguous run of left_rows (right_rows)
        pair_of_row = arange_cache[:total_rows] * k + win[row_member]
        goes_left = codes_pairs[pair_of_row] <= boundary_arr[row_member]
        left_rows = idx_cat[goes_left]
        right_rows = idx_cat[~goes_left]
        left_starts = np.zeros(B + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_member[goes_left], minlength=B), out=left_starts[1:])
        right_starts = (row_starts - left_starts).tolist()
        left_starts = left_starts.tolist()
        depths = np.array(act_depths, dtype=np.int64)[split] + 1
        grows = splittable(
            _class_totals(child_counts),
            _class_totals(child_counts != 0),
            np.concatenate([depths, depths]),
        ).tolist()
        child_ids = children.tolist()
        for i, b in enumerate(split.tolist()):
            stack = stacks[act_trees[b]]
            depth = act_depths[b] + 1
            if grows[i]:
                stack.append((child_ids[i], left_rows[left_starts[b]:left_starts[b + 1]], depth))
            if grows[S + i]:
                stack.append(
                    (child_ids[S + i], right_rows[right_starts[b]:right_starts[b + 1]], depth)
                )

    nodes.resize(nodes.size)
    importances = np.zeros((n_trees, n_feat), dtype=np.float64)
    if imp_trees:
        # unbuffered adds in split order: per tree, the identical
        # accumulation sequence to the reference's per-split adds
        np.add.at(
            importances,
            (np.concatenate(imp_trees), np.concatenate(imp_feats)),
            np.concatenate(imp_vals),
        )
    return nodes, roots, importances


class RandomForestClassifier:
    """Bagged committee of :class:`DecisionTreeClassifier` trees.

    Parameters
    ----------
    n_estimators:
        Committee size ``k`` (paper default 10).
    max_depth, min_samples_leaf:
        Per-tree growth limits.
    max_features:
        Features sampled per split (default ``"sqrt"``).
    bootstrap_fraction:
        Bootstrap sample size as a fraction of ``n`` (sampled with
        replacement; the paper's ``N' < N``).
    random_state:
        Seed or generator; trees receive independent child seeds.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [0.2], [2.0], [2.2]] * 5)
    >>> y = np.array([0, 0, 1, 1] * 5)
    >>> forest = RandomForestClassifier(n_estimators=5, random_state=7).fit(X, y)
    >>> forest.predict(np.array([[0.1], [2.1]])).tolist()
    [0, 1]
    """

    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap_fraction: float = 1.0,
        random_state=None,
    ) -> None:
        if n_estimators < 1:
            raise ConfigError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < bootstrap_fraction <= 1.0:
            raise ConfigError(f"bootstrap_fraction must be in (0, 1], got {bootstrap_fraction}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap_fraction = bootstrap_fraction
        self._rng = np.random.default_rng(random_state)
        self._trees: list[DecisionTreeClassifier] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        """Grow the committee; returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ConfigError(f"X must be a non-empty 2-D array, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ConfigError(f"y shape {y.shape} incompatible with X shape {X.shape}")
        self.n_classes_ = n_classes if n_classes is not None else int(y.max()) + 1
        n = X.shape[0]
        sample_size = max(1, int(round(self.bootstrap_fraction * n)))
        self._trees = []
        for _ in range(self.n_estimators):
            sample = self._rng.integers(0, n, size=sample_size)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=self._rng.integers(0, 2**32 - 1),
            )
            tree.fit(X[sample], y[sample], n_classes=self.n_classes_)
            self._trees.append(tree)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def vote_fractions(self, X: np.ndarray) -> np.ndarray:
        """Fraction of committee members voting each class, ``(n, C)``."""
        if not self._fitted:
            raise NotFittedError("RandomForestClassifier used before fit")
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((X.shape[0], self.n_classes_), dtype=np.float64)
        for tree in self._trees:
            predictions = tree.predict(X)
            votes[np.arange(X.shape[0]), predictions] += 1.0
        return votes / len(self._trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class labels, shape ``(n,)``."""
        return np.argmax(self.vote_fractions(X), axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Alias of :meth:`vote_fractions` (hard-vote probabilities)."""
        return self.vote_fractions(X)

    def uncertainty(self, X: np.ndarray) -> np.ndarray:
        """Committee disagreement per sample: vote entropy in [0, 1].

        One array expression over the whole batch (equal to mapping
        :func:`~repro.ml.metrics.vote_entropy` row by row, up to libm
        vs numpy ``log`` rounding in the last ulp).
        """
        fractions = self.vote_fractions(X)
        if self.n_classes_ <= 1:
            return np.zeros(fractions.shape[0], dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(fractions > 0.0, fractions * np.log(fractions), 0.0)
        return -terms.sum(axis=1) / np.log(self.n_classes_) + 0.0

    def predict_one(self, features: np.ndarray) -> tuple[int, np.ndarray, float]:
        """Classify one sample: ``(label, vote fractions, uncertainty)``."""
        fractions = self.vote_fractions(features.reshape(1, -1))[0]
        label = int(np.argmax(fractions))
        return label, fractions, vote_entropy(fractions, self.n_classes_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean normalised impurity-decrease importance per feature."""
        if not self._fitted:
            raise NotFittedError("RandomForestClassifier used before fit")
        stacked = np.vstack([tree.feature_importances_ for tree in self._trees])
        return stacked.mean(axis=0)

    @property
    def trees(self) -> list[DecisionTreeClassifier]:
        """The fitted committee members."""
        if not self._fitted:
            raise NotFittedError("RandomForestClassifier used before fit")
        return list(self._trees)


class HistogramForestClassifier(RandomForestClassifier):
    """Histogram-based committee, bit-identical to the exact reference.

    Two structural changes over :class:`RandomForestClassifier`, zero
    behavioural ones:

    * **fit** bins the training matrix once (losslessly — one bin per
      distinct value) and grows every tree from the shared binned
      matrix, bootstrapping by row index, with the fused histogram
      split search of :class:`~repro.ml.tree.HistogramTreeClassifier`
      batched across the committee. It replays the exact CART bit for
      bit (including the RNG stream, so the bootstrap samples, feature
      subsets, and grown trees are *identical* to the reference's),
      and writes every node straight into one set of per-committee
      node arrays.
    * **vote_fractions** walks all trees over the batch simultaneously
      through those node arrays: a single ``(tree, row)`` state matrix
      descends level-synchronously, with votes accumulated by one
      ``bincount`` — instead of one Python-level walk per tree.

    :attr:`trees` cuts per-tree :class:`HistogramTreeClassifier` views
    out of the node arrays on demand (for inspection and parity
    checks); predictions never build them.
    """

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int | None = None,
        binned: BinnedMatrix | None = None,
    ):
        """Grow the committee from one shared binned matrix.

        *binned*, when given, must be the lossless rank encoding of
        ``X`` (the warm-started learner passes its incrementally
        maintained encoding to skip re-binning); otherwise ``X`` is
        binned here, once for all trees.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ConfigError(f"X must be a non-empty 2-D array, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ConfigError(f"y shape {y.shape} incompatible with X shape {X.shape}")
        self.n_classes_ = n_classes if n_classes is not None else int(y.max()) + 1
        if binned is None:
            binned = bin_matrix(X)
        n = X.shape[0]
        sample_size = max(1, int(round(self.bootstrap_fraction * n)))
        samples: list[np.ndarray] = []
        seeds: list[int] = []
        for _ in range(self.n_estimators):
            # same RNG draw order as the reference: sample, then seed
            samples.append(self._rng.integers(0, n, size=sample_size))
            seeds.append(self._rng.integers(0, 2**32 - 1))
        self._nodes, self._roots, self._importances = _grow_forest_batched(
            binned,
            y,
            samples,
            seeds,
            self.n_classes_,
            self.max_depth,
            2,
            self.min_samples_leaf,
            self.max_features,
        )
        self._seeds = seeds
        self.n_features_ = binned.n_features
        # per-node majority label: argmax over the same proba rows the
        # per-tree reference argmaxes at its reached leaves
        self._label = np.argmax(leaf_proba(self._nodes.counts), axis=1)
        self._fitted = True
        return self

    @property
    def trees(self) -> list[HistogramTreeClassifier]:
        """Per-tree views of the committee, numbered like the reference."""
        if not self._fitted:
            raise NotFittedError("RandomForestClassifier used before fit")
        nodes = self._nodes
        local = np.empty(nodes.size, dtype=np.int64)
        trees = []
        for t, seed in enumerate(self._seeds):
            ids = np.flatnonzero(nodes.owner == t)
            local[ids] = np.arange(len(ids))
            leaf = nodes.feature[ids] == _LEAF
            tree = HistogramTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            tree._finalize(
                nodes.feature[ids],
                nodes.threshold[ids],
                np.where(leaf, _LEAF, local[nodes.left[ids]]),
                np.where(leaf, _LEAF, local[nodes.right[ids]]),
                nodes.counts[ids],
                self._importances[t].copy(),
                n_features=self.n_features_,
                n_classes=self.n_classes_,
            )
            trees.append(tree)
        return trees

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean normalised impurity-decrease importance per feature."""
        if not self._fitted:
            raise NotFittedError("RandomForestClassifier used before fit")
        return np.vstack(
            [normalised_importances(row.copy()) for row in self._importances]
        ).mean(axis=0)

    def __getstate__(self) -> dict:
        # the walk tables are derived from the node arrays: leaving them
        # out keeps a pickled committee (a checkpoint) byte-identical
        state = self.__dict__.copy()
        state.pop("_walk", None)
        return state

    def _walk_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The node arrays in the form the mask-free walk reads.

        ``feature`` and ``threshold`` per node; ``children[2 * id]`` is
        the right child and ``children[2 * id + 1]`` the left one, so
        the branch taken is ``children[2 * id + (x <= threshold)]``. A
        leaf reads column 0 and has itself as both children, so a
        ``(tree, row)`` state that reached its leaf stays there. The
        last entry is the committee's height: that many levels bring
        every state to its leaf.
        """
        walk = self.__dict__.get("_walk")
        if walk is None:
            nodes = self._nodes
            ids = np.arange(nodes.size)
            leaf = nodes.feature[: nodes.size] == _LEAF
            children = np.empty(2 * nodes.size, dtype=np.int64)
            children[0::2] = np.where(leaf, ids, nodes.right[: nodes.size])
            children[1::2] = np.where(leaf, ids, nodes.left[: nodes.size])
            height = 0
            frontier = self._roots[~leaf[self._roots]]
            while len(frontier):
                height += 1
                frontier = np.concatenate([nodes.left[frontier], nodes.right[frontier]])
                frontier = frontier[~leaf[frontier]]
            walk = self._walk = (
                np.where(leaf, 0, nodes.feature[: nodes.size]),
                nodes.threshold[: nodes.size],
                children,
                height,
            )
        return walk

    def vote_fractions(self, X: np.ndarray) -> np.ndarray:
        """Fraction of committee members voting each class, ``(n, C)``.

        One level-synchronous descent of every ``(tree, row)`` pair,
        then one ``bincount`` to accumulate the votes — identical
        output to the per-tree reference walk. The descent carries no
        mask: each level is one feature gather, one compare and one
        child gather over the whole state, with leaves looping on
        themselves (:meth:`_walk_tables`), for as many levels as the
        committee is high.
        """
        if not self._fitted:
            raise NotFittedError("RandomForestClassifier used before fit")
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        if n > _VOTE_CHUNK_ROWS:
            # rows are independent: walking them in chunks bounds the
            # (T, n) index arrays each descent level allocates
            return np.concatenate(
                [
                    self.vote_fractions(X[i : i + _VOTE_CHUNK_ROWS])
                    for i in range(0, n, _VOTE_CHUNK_ROWS)
                ]
            )
        feature, threshold, children, height = self._walk_tables()
        flat = np.ascontiguousarray(X).ravel()
        base = np.arange(0, n * X.shape[1], X.shape[1])  # each row's offset in flat
        states = np.repeat(self._roots[:, None], n, axis=1)  # (T, n)
        for _ in range(height):
            go_left = flat[base + feature[states]] <= threshold[states]
            states = children[2 * states + go_left]
        labels = self._label[states]  # (T, n)
        flat_votes = (np.arange(n) * self.n_classes_ + labels).ravel()
        votes = np.bincount(flat_votes, minlength=n * self.n_classes_)
        return votes.reshape(n, self.n_classes_).astype(np.float64) / len(self._roots)
