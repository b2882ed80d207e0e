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
)

__all__ = ["HistogramForestClassifier", "RandomForestClassifier"]

#: Rows per committee walk in ``vote_fractions``; larger batches are
#: walked chunk by chunk, which caps the walk's peak memory.
_VOTE_CHUNK_ROWS = 256


class _TreeState:
    """Growth state of one committee member inside the batched grower."""

    __slots__ = (
        "rng", "n_total", "features", "thresholds", "lefts", "rights",
        "counts", "nnz", "imp_feats", "imp_vals", "stack",
    )

    def __init__(self, rng, sample: np.ndarray, y: np.ndarray, n_feat: int, n_classes: int) -> None:
        self.rng = rng
        self.n_total = len(sample)
        self.features: list[int] = []
        self.thresholds: list[float] = []
        self.lefts: list[int] = []
        self.rights: list[int] = []
        self.counts: list[np.ndarray] = []
        # distinct-class count per node, maintained at creation so the
        # purity gate at pop time is a plain int compare
        self.nnz: list[int] = []
        # per-split importance contributions, accumulated at the end in
        # split order — the same float64 addition sequence as the
        # reference's per-split in-place adds
        self.imp_feats: list[int] = []
        self.imp_vals: list[float] = []
        root_counts = np.bincount(y[sample], minlength=n_classes)
        root = self.new_node(root_counts, int(np.count_nonzero(root_counts)))
        # node index sets are GLOBAL row ids into the shared binned
        # matrix, so batch gathers never go through a per-tree remap
        self.stack: list[tuple[int, np.ndarray, int]] = [(root, sample, 0)]

    def new_node(self, class_counts: np.ndarray, nonzero: int) -> int:
        self.features.append(_LEAF)
        self.thresholds.append(0.0)
        self.lefts.append(_LEAF)
        self.rights.append(_LEAF)
        self.counts.append(class_counts)
        self.nnz.append(nonzero)
        return len(self.features) - 1


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
) -> list[tuple[list, list, list, list, list, np.ndarray]]:
    """Grow every tree of the committee simultaneously, bit-identically.

    Each round pops ONE pending node from every tree's DFS stack and
    scores all of them with one fused histogram pass. Per-tree state —
    the RNG stream, the DFS pop order, node numbering, every float64
    operation a node's split search performs — is exactly what
    :meth:`HistogramTreeClassifier.fit_binned` (and therefore the
    exact-sort reference) would produce tree by tree; batching only
    amortises the per-node numpy dispatch overhead across the
    committee. Returns per-tree ``(features, thresholds, lefts,
    rights, counts, importances)``.
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

    states = [
        _TreeState(np.random.default_rng(seed), sample, y, n_feat, C)
        for sample, seed in zip(samples, seeds)
    ]
    pending = list(states)
    b_arange_all = np.arange(len(states))
    arange_cache = np.arange(0, dtype=np.int64)
    # empty leading bins divide by a zero left size; those lanes are
    # masked as invalid before any value is consumed
    old_err = np.seterr(divide="ignore", invalid="ignore")
    while pending:
        if any(not st.stack for st in pending):
            pending = [st for st in pending if st.stack]
        active: list[tuple[_TreeState, int, np.ndarray, int, np.ndarray]] = []
        cands: list[np.ndarray] = []
        for st in pending:
            # drain leaves eagerly: the leaf gate draws no RNG, so
            # popping past them keeps the per-tree draw order intact
            # while guaranteeing every member contributes one real
            # split search per round
            while st.stack:
                node, idx, depth = st.stack.pop()
                # purity (nnz <= 1) implies parent gini exactly 0, and
                # nnz >= 2 implies gini > 0 in float64 — so this gate
                # is the reference's leaf checks AND its gini <= 0
                # bailout
                if (
                    len(idx) < min_samples_split
                    or (max_depth is not None and depth >= max_depth)
                    or st.nnz[node] <= 1
                ):
                    continue
                cands.append(
                    st.rng.permutation(n_feat)[:k] if k < n_feat else all_features
                )
                active.append((st, node, idx, depth, st.counts[node]))
                break
        if not active:
            continue
        B = len(active)
        counts_mat = np.concatenate([m[4] for m in active]).reshape(B, C)
        sizes = np.array([len(m[2]) for m in active], dtype=np.int64)
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
        idx_cat = np.concatenate([m[2] for m in active])
        total_rows = len(idx_cat)
        if arange_cache.size < total_rows:
            arange_cache = np.arange(
                max(total_rows, 2 * arange_cache.size), dtype=np.int64
            )
        row_member = np.repeat(b_arange_all[:B], sizes)
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
        bin_totals = hist.sum(axis=3)
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
        # invalid lanes (zero left/right sizes) divide to nan/inf and
        # are overwritten below; valid lanes divide by positive sizes,
        # so their float64 values match the reference exactly
        right_sizes = nb - left_sizes
        gini_left = 1.0 - ((cum / left_sizes[..., None]) ** 2).sum(axis=3)
        right_counts = counts_mat[:, None, None, :] - cum
        gini_right = 1.0 - ((right_counts / right_sizes[..., None]) ** 2).sum(axis=3)
        weighted = (left_sizes * gini_left + right_sizes * gini_right) / nb
        gains = parent_gini[:, None, None] - weighted
        gains = np.where(valid, gains, -np.inf)
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
                cum_f = hist_f.cumsum(axis=0)[:-1]
                ls = cum_f.sum(axis=1)
                valid_f = (ls >= msl) & (n - ls >= msl)
                if not valid_f.any():
                    continue
                rs = n - ls
                gl = 1.0 - ((cum_f / ls[:, None]) ** 2).sum(axis=1)
                rc = counts_mat[b][None, :] - cum_f
                gr = 1.0 - ((rc / rs[:, None]) ** 2).sum(axis=1)
                gains_f = parent_gini[b] - (ls * gl + rs * gr) / n
                gains_f[~valid_f] = -np.inf
                pos_f = int(gains_f.argmax())
                slot_best[b, j] = gains_f[pos_f]
                large_best[(b, j)] = (present, pos_f, cum_f[pos_f].copy())

        # first slot holding the overall max = the reference's
        # strictly-greater sweep in candidate order
        win = slot_best.argmax(axis=1)
        b_arange = b_arange_all[:B]
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
        right_counts_mat = counts_mat - left_counts_mat
        left_nnz = (left_counts_mat != 0).sum(axis=1)
        right_nnz = (right_counts_mat != 0).sum(axis=1)
        pair_of_row = arange_cache[:total_rows] * k + win[row_member]
        left_mask_cat = codes_pairs[pair_of_row] <= boundary_arr[row_member]
        right_mask_cat = ~left_mask_cat
        for b in np.nonzero(split_mask)[0].tolist():
            st, node, idx, depth, node_counts = active[b]
            s0, s1 = row_starts[b], row_starts[b + 1]
            left_idx = idx[left_mask_cat[s0:s1]]
            right_idx = idx[right_mask_cat[s0:s1]]
            feature = int(feat_win[b])
            st.imp_feats.append(feature)
            st.imp_vals.append(float(best_gain[b]) * len(idx) / st.n_total)
            st.features[node] = feature
            st.thresholds[node] = float(thresholds_arr[b])
            left = st.new_node(left_counts_mat[b], int(left_nnz[b]))
            right = st.new_node(right_counts_mat[b], int(right_nnz[b]))
            st.lefts[node] = left
            st.rights[node] = right
            st.stack.append((left, left_idx, depth + 1))
            st.stack.append((right, right_idx, depth + 1))
    np.seterr(**old_err)

    grown = []
    for st in states:
        importances = np.zeros(n_feat, dtype=np.float64)
        # unbuffered add in split order: identical accumulation
        # sequence to the reference's per-split in-place adds
        if st.imp_feats:
            np.add.at(importances, st.imp_feats, st.imp_vals)
        grown.append(
            (st.features, st.thresholds, st.lefts, st.rights, st.counts, importances)
        )
    return grown


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
      matrix, bootstrapping by row index; each tree is a
      :class:`~repro.ml.tree.HistogramTreeClassifier` whose fused
      histogram split search replays the exact CART bit for bit
      (including the RNG stream, so the bootstrap samples, feature
      subsets, and grown trees are *identical* to the reference's).
    * **vote_fractions** walks all trees over the batch simultaneously:
      the committee's node arrays are packed into one arena and a
      single ``(tree, row)`` state matrix descends level-synchronously,
      with votes accumulated by one ``bincount`` — instead of one
      Python-level walk per tree.
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
        grown = _grow_forest_batched(
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
        self._trees = []
        for seed, (features, thresholds, lefts, rights, counts, importances) in zip(
            seeds, grown
        ):
            tree = HistogramTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            tree._finalize(
                features, thresholds, lefts, rights, counts, importances,
                n_features=binned.n_features, n_classes=self.n_classes_,
            )
            self._trees.append(tree)
        self._fitted = True
        self._pack()
        return self

    def _pack(self) -> None:
        """Concatenate the committee's node arrays into one walk arena."""
        sizes = np.array([tree.node_count for tree in self._trees], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._arena_roots = offsets
        self._arena_feature = np.concatenate([t._feature for t in self._trees])
        self._arena_threshold = np.concatenate([t._threshold for t in self._trees])
        # child pointers are tree-local; rebase them into the arena
        # (leaf sentinels get rebased too, but leaves are never walked)
        self._arena_left = np.concatenate(
            [t._left + off for t, off in zip(self._trees, offsets)]
        )
        self._arena_right = np.concatenate(
            [t._right + off for t, off in zip(self._trees, offsets)]
        )
        # per-node majority label: argmax over the same proba rows the
        # per-tree reference argmaxes at its reached leaves
        self._arena_label = np.concatenate(
            [np.argmax(t._proba, axis=1) for t in self._trees]
        )

    def vote_fractions(self, X: np.ndarray) -> np.ndarray:
        """Fraction of committee members voting each class, ``(n, C)``.

        One level-synchronous descent of every ``(tree, row)`` pair,
        then one ``bincount`` to accumulate the votes — identical
        output to the per-tree reference walk.
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
        n_trees = len(self._trees)
        states = np.repeat(self._arena_roots[:, None], n, axis=1)  # (T, n)
        rows = np.broadcast_to(np.arange(n)[None, :], (n_trees, n))
        active = self._arena_feature[states] != _LEAF
        while active.any():
            current = states[active]
            go_left = (
                X[rows[active], self._arena_feature[current]]
                <= self._arena_threshold[current]
            )
            states[active] = np.where(
                go_left, self._arena_left[current], self._arena_right[current]
            )
            active = self._arena_feature[states] != _LEAF
        labels = self._arena_label[states]  # (T, n)
        flat = rows.ravel() * self.n_classes_ + labels.ravel()
        votes = np.bincount(flat, minlength=n * self.n_classes_)
        return votes.reshape(n, self.n_classes_).astype(np.float64) / n_trees
