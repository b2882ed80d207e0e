"""CART decision-tree classifier (gini impurity, threshold splits).

A from-scratch replacement for the WEKA trees the paper uses inside its
random forest. Feature subsampling at every split (``max_features``)
provides the extra randomisation Breiman's forest requires.

The implementation is array-based: nodes live in parallel numpy arrays
and prediction walks them iteratively, so deep trees cannot hit Python
recursion limits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, NotFittedError
from repro.ml.binning import BinnedMatrix, bin_matrix

__all__ = ["DecisionTreeClassifier", "HistogramTreeClassifier"]

_LEAF = -1

# vocabulary cutoff for the fused histogram pass: features with more
# distinct values (similarity floats) use the node-compact path instead,
# so histogram allocations never scale with global vocabulary size
_HIST_MAX_BINS = 256


def leaf_proba(counts: np.ndarray) -> np.ndarray:
    """Per-node class frequencies from integer class counts ``(N, C)``."""
    count_matrix = counts.astype(np.float64)
    totals = count_matrix.sum(axis=1, keepdims=True)
    totals[totals == 0.0] = 1.0
    return count_matrix / totals


def normalised_importances(importances: np.ndarray) -> np.ndarray:
    """Scale raw impurity decreases to sum to one, in place."""
    total_importance = importances.sum()
    if total_importance > 0.0:
        importances /= total_importance
    return importances


def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ConfigError(f"max_features fraction must be in (0, 1], got {max_features}")
        return max(1, int(max_features * n_features))
    if isinstance(max_features, int):
        if max_features < 1:
            raise ConfigError(f"max_features must be >= 1, got {max_features}")
        return min(max_features, n_features)
    raise ConfigError(f"unsupported max_features: {max_features!r}")


class DecisionTreeClassifier:
    """Binary-split classification tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` = unbounded).
    min_samples_split:
        Smallest node that may still be split.
    min_samples_leaf:
        Smallest admissible child size.
    max_features:
        Features considered per split: ``None`` (all), ``"sqrt"``,
        ``"log2"``, an int, or a float fraction.
    random_state:
        Seed or :class:`numpy.random.Generator` controlling feature
        subsampling.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [1.0], [2.0], [3.0]])
    >>> y = np.array([0, 0, 1, 1])
    >>> tree = DecisionTreeClassifier().fit(X, y)
    >>> tree.predict(np.array([[0.5], [2.5]])).tolist()
    [0, 1]
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state=None,
    ) -> None:
        if min_samples_split < 2:
            raise ConfigError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ConfigError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_depth is not None and max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = np.random.default_rng(random_state)
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        """Grow the tree on ``X (n, m)`` and integer labels ``y (n,)``.

        Returns ``self`` for chaining. ``n_classes`` fixes the width of
        probability outputs (defaults to ``max(y) + 1``).
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ConfigError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ConfigError(f"y shape {y.shape} incompatible with X shape {X.shape}")
        if X.shape[0] == 0:
            raise ConfigError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        self.n_classes_ = n_classes if n_classes is not None else int(y.max()) + 1
        k = _resolve_max_features(self.max_features, self.n_features_)

        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        counts: list[np.ndarray] = []

        def new_node(class_counts: np.ndarray) -> int:
            features.append(_LEAF)
            thresholds.append(0.0)
            lefts.append(_LEAF)
            rights.append(_LEAF)
            counts.append(class_counts)
            return len(features) - 1

        n_total = X.shape[0]
        importances = np.zeros(self.n_features_, dtype=np.float64)
        root_counts = np.bincount(y, minlength=self.n_classes_)
        stack: list[tuple[int, np.ndarray, int]] = [(new_node(root_counts), np.arange(len(y)), 0)]
        while stack:
            node, idx, depth = stack.pop()
            node_counts = counts[node]
            if (
                len(idx) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or int(np.count_nonzero(node_counts)) <= 1
            ):
                continue
            split = self._best_split(X, y, idx, k)
            if split is None:
                continue
            feature, threshold, left_idx, right_idx, gain = split
            importances[feature] += gain * len(idx) / n_total
            features[node] = feature
            thresholds[node] = threshold
            left_counts = np.bincount(y[left_idx], minlength=self.n_classes_)
            right_counts = node_counts - left_counts
            left = new_node(left_counts)
            right = new_node(right_counts)
            lefts[node] = left
            rights[node] = right
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))

        self._finalize(
            features, thresholds, lefts, rights, counts, importances,
            n_features=self.n_features_, n_classes=self.n_classes_,
        )
        return self

    def _finalize(
        self, features, thresholds, lefts, rights, counts, importances,
        n_features: int, n_classes: int,
    ) -> None:
        """Freeze grown node lists into the fitted array representation."""
        self.n_features_ = n_features
        self.n_classes_ = n_classes
        self._feature = np.array(features, dtype=np.int64)
        self._threshold = np.array(thresholds, dtype=np.float64)
        self._left = np.array(lefts, dtype=np.int64)
        self._right = np.array(rights, dtype=np.int64)
        self._proba = leaf_proba(np.vstack(counts))
        self._importances = normalised_importances(importances)
        self._fitted = True

    def _best_split(self, X, y, idx, k):
        """Best gini split over a random subsample of k features."""
        n = len(idx)
        parent_counts = np.bincount(y[idx], minlength=self.n_classes_)
        parent_gini = 1.0 - np.sum((parent_counts / n) ** 2)
        if parent_gini <= 0.0:
            return None
        best_gain = 1e-12
        best = None
        n_feat = self.n_features_
        candidates = (
            self._rng.permutation(n_feat)[:k] if k < n_feat else np.arange(n_feat)
        )
        one_hot = np.zeros((n, self.n_classes_), dtype=np.float64)
        one_hot[np.arange(n), y[idx]] = 1.0
        for feature in candidates:
            column = X[idx, feature]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            boundaries = np.nonzero(sorted_vals[1:] != sorted_vals[:-1])[0]
            if boundaries.size == 0:
                continue
            cum = np.cumsum(one_hot[order], axis=0)
            left_sizes = boundaries + 1
            valid = (left_sizes >= self.min_samples_leaf) & (
                n - left_sizes >= self.min_samples_leaf
            )
            if not np.any(valid):
                continue
            boundaries = boundaries[valid]
            left_sizes = left_sizes[valid]
            left_counts = cum[boundaries]
            right_counts = parent_counts - left_counts
            right_sizes = n - left_sizes
            gini_left = 1.0 - np.sum((left_counts / left_sizes[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right_counts / right_sizes[:, None]) ** 2, axis=1)
            weighted = (left_sizes * gini_left + right_sizes * gini_right) / n
            gains = parent_gini - weighted
            best_pos = int(np.argmax(gains))
            if gains[best_pos] > best_gain:
                boundary = boundaries[best_pos]
                threshold = 0.5 * (sorted_vals[boundary] + sorted_vals[boundary + 1])
                left_idx = idx[order[: boundary + 1]]
                right_idx = idx[order[boundary + 1 :]]
                best_gain = gains[best_pos]
                best = (int(feature), float(threshold), left_idx, right_idx, float(best_gain))
        return best

    # ------------------------------------------------------------------
    def _leaf_of(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("DecisionTreeClassifier.predict called before fit")
        X = np.asarray(X, dtype=np.float64)
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self._feature[nodes] != _LEAF
        while np.any(active):
            current = nodes[active]
            feats = self._feature[current]
            go_left = X[active, feats] <= self._threshold[current]
            nodes[active] = np.where(go_left, self._left[current], self._right[current])
            active = self._feature[nodes] != _LEAF
        return nodes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class leaf frequencies, shape ``(n, n_classes)``."""
        if not self._fitted:
            raise NotFittedError("DecisionTreeClassifier.predict_proba called before fit")
        return self._proba[self._leaf_of(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most frequent class of the reached leaf, shape ``(n,)``."""
        return np.argmax(self.predict_proba(X), axis=1)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalised impurity-decrease importance per feature."""
        if not self._fitted:
            raise NotFittedError("tree not fitted")
        return self._importances.copy()

    @property
    def node_count(self) -> int:
        """Number of nodes in the grown tree."""
        if not self._fitted:
            raise NotFittedError("tree not fitted")
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Depth of the grown tree (0 = single leaf).

        One vectorized frontier descent per level — O(depth) numpy
        calls instead of a Python loop over every node.
        """
        if not self._fitted:
            raise NotFittedError("tree not fitted")
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        while True:
            internal = frontier[self._feature[frontier] != _LEAF]
            if internal.size == 0:
                return depth
            frontier = np.concatenate([self._left[internal], self._right[internal]])
            depth += 1


class HistogramTreeClassifier(DecisionTreeClassifier):
    """Histogram-based CART, bit-identical to :class:`DecisionTreeClassifier`.

    Features are rank-encoded once per fit (one bin per distinct value
    — lossless, see :mod:`repro.ml.binning`); each node's split search
    is then **one fused** ``np.bincount`` building the class histograms
    of *all* candidate features simultaneously, with gini scored on
    cumulative histograms vectorized over ``(feature, bin)``. No
    per-node argsort, no per-feature Python loop.

    Bit-parity with the exact-sort reference is a hard contract, not an
    approximation: the RNG stream (one feature-subset permutation per
    split attempt, drawn in the same DFS node order), the split
    arithmetic (identical float64 operation sequences on identical
    integer counts), the tie-breaks (first-max argmax per feature,
    first strictly-greater across candidates) and the thresholds
    (midpoint of the node's two adjacent distinct values, reconstructed
    from the bin tables) all reproduce the reference exactly, so the
    two classifiers grow *identical trees*. The per-*node* (rather than
    per-level) histogram pass is forced by that contract: the reference
    consumes the RNG in DFS order, which a level-synchronous pass
    cannot replay. The parity suite asserts node-array equality on
    randomized inputs.
    """

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        """Bin ``X`` (lossless) and grow the tree; returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ConfigError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ConfigError(f"y shape {y.shape} incompatible with X shape {X.shape}")
        if X.shape[0] == 0:
            raise ConfigError("cannot fit on an empty dataset")
        return self.fit_binned(bin_matrix(X), y, n_classes=n_classes)

    def fit_binned(
        self, binned: BinnedMatrix, y: np.ndarray, n_classes: int | None = None
    ):
        """Grow the tree from a pre-binned matrix (shared across a forest)."""
        y = np.asarray(y, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != binned.n_rows:
            raise ConfigError(
                f"y shape {y.shape} incompatible with binned matrix of {binned.n_rows} rows"
            )
        if binned.n_rows == 0:
            raise ConfigError("cannot fit on an empty dataset")
        self.n_features_ = binned.n_features
        self.n_classes_ = n_classes if n_classes is not None else int(y.max()) + 1
        k = _resolve_max_features(self.max_features, self.n_features_)

        # feature-major code layout: one gather per node grabs the
        # (candidates x node rows) submatrix for the fused histogram
        codes_t = np.ascontiguousarray(binned.codes.T)
        bins_per_feat = np.array([len(v) for v in binned.bin_values], dtype=np.intp)

        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        counts: list[np.ndarray] = []

        def new_node(class_counts: np.ndarray) -> int:
            features.append(_LEAF)
            thresholds.append(0.0)
            lefts.append(_LEAF)
            rights.append(_LEAF)
            counts.append(class_counts)
            return len(features) - 1

        n_total = binned.n_rows
        importances = np.zeros(self.n_features_, dtype=np.float64)
        root_counts = np.bincount(y, minlength=self.n_classes_)
        stack: list[tuple[int, np.ndarray, int]] = [
            (new_node(root_counts), np.arange(n_total), 0)
        ]
        while stack:
            node, idx, depth = stack.pop()
            node_counts = counts[node]
            if (
                len(idx) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or int(np.count_nonzero(node_counts)) <= 1
            ):
                continue
            split = self._best_split_hist(
                codes_t, y, idx, k, node_counts, binned.bin_values, bins_per_feat
            )
            if split is None:
                continue
            feature, threshold, left_idx, right_idx, gain, left_counts = split
            importances[feature] += gain * len(idx) / n_total
            features[node] = feature
            thresholds[node] = threshold
            right_counts = node_counts - left_counts
            left = new_node(left_counts)
            right = new_node(right_counts)
            lefts[node] = left
            rights[node] = right
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))

        self._finalize(
            features, thresholds, lefts, rights, counts, importances,
            n_features=self.n_features_, n_classes=self.n_classes_,
        )
        return self

    def _best_split_hist(self, codes_t, y, idx, k, node_counts, bin_values, bins_per_feat):
        """Fused best-gini split over a random subsample of k features.

        Low-vocabulary candidates (``<= _HIST_MAX_BINS`` distinct
        values — every dictionary-code column) are scored by ONE fused
        ``bincount`` building all their per-bin class histograms at
        once. High-vocabulary candidates (similarity floats, whose bin
        tables scale with the training size) fall back to a
        node-compact counting pass: histogram over the values *present
        in the node* only, so deep nodes never pay a vocabulary-sized
        memset. Both paths produce the same integer count sequences the
        exact path derives from sorted one-hot prefixes and score them
        with the same float64 operation order, so gains — and therefore
        the grown tree — are bit-identical to the reference.
        """
        n = len(idx)
        # node_counts equals bincount(y[idx]): maintained by the parent
        # split, so the reference's per-node recount is skipped
        parent_gini = 1.0 - np.sum((node_counts / n) ** 2)
        if parent_gini <= 0.0:
            return None
        n_feat = self.n_features_
        candidates = (
            self._rng.permutation(n_feat)[:k] if k < n_feat else np.arange(n_feat)
        )
        n_classes = self.n_classes_
        msl = self.min_samples_leaf
        y_node = y[idx]
        sub = codes_t[np.ix_(candidates, idx)]  # (k, n) bin codes
        cand_bins = bins_per_feat[candidates]
        k_eff = len(candidates)
        best_gains = np.full(k_eff, -np.inf)
        best_bound = np.zeros(k_eff, dtype=np.intp)

        hist_rows = np.nonzero(cand_bins <= _HIST_MAX_BINS)[0]
        cum = bin_totals = None
        if hist_rows.size:
            kh = len(hist_rows)
            n_bins = int(cand_bins[hist_rows].max())
            stride = n_bins * n_classes
            flat = sub[hist_rows].astype(np.intp) * n_classes
            flat += y_node
            flat += (np.arange(kh, dtype=np.intp) * stride)[:, None]
            hist = np.bincount(flat.ravel(), minlength=kh * stride).reshape(
                kh, n_bins, n_classes
            )
            cum = hist.cumsum(axis=1)  # (kh, bins, classes) left class counts
            left_sizes = cum.sum(axis=2)
            bin_totals = hist.sum(axis=2)
            # a split boundary sits after every *distinct node value*
            # except the last — every non-empty, non-final bin
            valid = (
                (bin_totals > 0)
                & (left_sizes < n)
                & (left_sizes >= msl)
                & (n - left_sizes >= msl)
            )
            if valid.any():
                safe_left = np.where(left_sizes > 0, left_sizes, 1)
                right_sizes = n - left_sizes
                safe_right = np.where(right_sizes > 0, right_sizes, 1)
                gini_left = 1.0 - np.sum((cum / safe_left[:, :, None]) ** 2, axis=2)
                right_counts = node_counts[None, None, :] - cum
                gini_right = 1.0 - np.sum(
                    (right_counts / safe_right[:, :, None]) ** 2, axis=2
                )
                weighted = (left_sizes * gini_left + right_sizes * gini_right) / n
                gains = parent_gini - weighted
                gains[~valid] = -np.inf
                bb = np.argmax(gains, axis=1)  # first max per feature
                best_gains[hist_rows] = gains[np.arange(kh), bb]
                best_bound[hist_rows] = bb

        large_info: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
        for i in np.nonzero(cand_bins > _HIST_MAX_BINS)[0]:
            present, inverse = np.unique(sub[i], return_inverse=True)
            if present.size < 2:
                continue
            hist_f = np.bincount(
                inverse * n_classes + y_node, minlength=present.size * n_classes
            ).reshape(present.size, n_classes)
            cum_f = np.cumsum(hist_f, axis=0)[:-1]
            left_sizes_f = cum_f.sum(axis=1)
            valid_f = (left_sizes_f >= msl) & (n - left_sizes_f >= msl)
            if not valid_f.any():
                continue
            right_sizes_f = n - left_sizes_f
            gini_left_f = 1.0 - np.sum((cum_f / left_sizes_f[:, None]) ** 2, axis=1)
            right_counts_f = node_counts[None, :] - cum_f
            gini_right_f = 1.0 - np.sum(
                (right_counts_f / right_sizes_f[:, None]) ** 2, axis=1
            )
            gains_f = parent_gini - (
                left_sizes_f * gini_left_f + right_sizes_f * gini_right_f
            ) / n
            gains_f[~valid_f] = -np.inf
            pos_f = int(np.argmax(gains_f))
            best_gains[i] = gains_f[pos_f]
            large_info[i] = (present, pos_f, cum_f[pos_f].copy())

        # first candidate holding the overall max = the reference's
        # strictly-greater sweep in candidate order
        pos = int(np.argmax(best_gains))
        best_gain = float(best_gains[pos])
        if not best_gain > 1e-12:
            return None
        feature = int(candidates[pos])
        values = bin_values[feature]
        if pos in large_info:
            present, pos_f, left_counts = large_info[pos]
            boundary = int(present[pos_f])
            after = int(present[pos_f + 1])
        else:
            hp = int(np.searchsorted(hist_rows, pos))
            boundary = int(best_bound[pos])
            nonempty = np.nonzero(bin_totals[hp])[0]
            after = int(nonempty[int(np.searchsorted(nonempty, boundary)) + 1])
            left_counts = cum[hp, boundary].copy()
        threshold = 0.5 * (values[boundary] + values[after])
        left_mask = sub[pos] <= boundary
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        return feature, float(threshold), left_idx, right_idx, best_gain, left_counts
