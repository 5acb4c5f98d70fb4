"""Random forest regression, from scratch in numpy.

The paper trains "a random forest regression model to predict the weights
based on the statistics" (§4.1.1) using Python's scipy stack; neither
scipy nor scikit-learn is installed in this container, so this module
implements the estimator itself: variance-reduction CART trees grown on
bootstrap samples with per-split feature subsampling, averaged at predict
time.

Each node finds its split with one search over all of its sampled
features at once: the ``(k, n)`` block of those features is sorted row by
row (stable), prefix sums of y and y^2 along each row give the
within-child squared error of every threshold, and one ``argmin`` over
the ``(k, n - 1)`` matrix picks the first feature in draw order, then the
first position, among the least errors. That is the textbook
regression-tree criterion, with ties broken as a loop over the features
with a strict ``<`` would break them. A split lies between two different
values and leaves ``min_samples_leaf`` rows on each side. A node whose
target holds a NaN or an infinity has only NaN errors and stays a leaf.

The fitted forest is one flat list of nodes, the trees one after
another, with 1-D ``feature``, ``threshold``, ``left`` and ``value``
arrays and each tree's ``roots`` index. A split's two children sit side
by side, so the right child is ``left + 1``. A leaf splits on feature 0
at NaN with ``left`` one before itself: every row, a NaN one included,
fails ``x <= NaN`` and steps to ``left + 1``, the leaf. So ``max_depth``
steps of one gather and one add move every row of every tree to its leaf
at once; a NaN feature goes right.
"""
from __future__ import annotations

import numpy as np


def _grow(XT: np.ndarray, y: np.ndarray, depth: int, nodes: list[list],
          slot: int, rng: np.random.Generator, max_depth: int, min_leaf: int,
          max_features: float) -> None:
    """Grow one subtree depth first into ``nodes`` (rows of feature,
    threshold, left, value), its root at ``slot``, from the node's samples
    ``XT`` (one row per feature) and targets ``y``."""
    n = y.size
    # y.mean(), summed and divided as it does, without its Python overhead
    nodes[slot] = node = [0, np.nan, slot - 1, float(np.add.reduce(y)) / n]
    lo = max(1, min_leaf)  # the fewest rows a child may have
    if depth >= max_depth or n < 2 * lo or y.max() - y.min() == 0:
        return
    n_feat = XT.shape[0]
    k = max(1, int(round(max_features * n_feat)))
    feats = rng.choice(n_feat, size=k, replace=False)
    # row c of xs and ys: feature feats[c] and y, in that feature's order
    sub = XT.take(feats, axis=0)
    order = sub.argsort(axis=1, kind="stable")
    xs = sub.take(order + np.arange(0, k * n, n)[:, None])
    ys = y.take(order)
    csum = np.add.accumulate(ys, axis=1)
    csq = np.add.accumulate(ys * ys, axis=1)
    # column i - lo splits after the i-th smallest value, lo <= i <= n - lo
    nl = np.arange(lo, n - lo + 1, dtype=np.float64)
    nr = n - nl
    sl, ql = csum[:, lo - 1:n - lo], csq[:, lo - 1:n - lo]
    sr, qr = csum[:, -1:] - sl, csq[:, -1:] - ql
    sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
    sse[xs[:, lo:n - lo + 1] == xs[:, lo - 1:n - lo]] = np.inf  # inside a tie
    j = int(np.argmin(sse))  # first feature in draw order, then position
    # a NaN error: the node's target holds a NaN or an infinity
    if not sse.flat[j] < np.inf:
        return
    c, i = divmod(j, sse.shape[1])
    i += lo
    f, thr = int(feats[c]), float(0.5 * (xs[c, i - 1] + xs[c, i]))
    mask = XT[f] <= thr
    if not 0 < np.count_nonzero(mask) < n:  # a NaN or rounded-up threshold
        return
    left = len(nodes)
    node[:3] = f, thr, left
    nodes += (None, None)
    grow = (rng, max_depth, min_leaf, max_features)
    _grow(XT.compress(mask, axis=1), y[mask], depth + 1, nodes, left, *grow)
    mask = ~mask
    _grow(XT.compress(mask, axis=1), y[mask], depth + 1, nodes, left + 1, *grow)


class RandomForestRegressor:
    """Bootstrap-aggregated CART regressor (drop-in minimal estimator).

    Parameters mirror the scikit-learn names so the cost model reads
    naturally: ``n_estimators`` trees, each grown to ``max_depth`` on a
    bootstrap resample, considering ``max_features`` of the features per
    split; predictions are the mean over trees.
    """

    def __init__(self, n_estimators: int = 30, max_depth: int = 12,
                 min_samples_leaf: int = 2, max_features: float = 0.7,
                 seed: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.value: np.ndarray | None = None  # each node's mean, by node

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise ValueError(f"bad shapes X={X.shape} y={y.shape}")
        rng = np.random.default_rng(self.seed)
        n = y.size
        XT = np.ascontiguousarray(X.T)
        nodes: list[list] = []
        roots = []
        # non-finite data gives NaN thresholds and errors, which rule out
        # their split
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(self.n_estimators):
                idx = rng.integers(0, n, n)
                roots.append(len(nodes))
                nodes.append(None)
                _grow(XT.take(idx, axis=1), y[idx], 0, nodes, roots[-1], rng,
                      self.max_depth, self.min_samples_leaf, self.max_features)
        self.n_features = X.shape[1]
        self.roots = np.array(roots)
        # one array of all nodes: a zip(*nodes) would make one iterator per
        # node, and that many tracked objects set off the cyclic GC
        feature, self.threshold, left, self.value = np.array(nodes).T.copy()
        self.feature, self.left = feature.astype(np.intp), left.astype(np.intp)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.value is None:
            raise RuntimeError("predict() before fit()")
        if X.shape[1] != self.n_features:
            raise ValueError(f"X has {X.shape[1]} features, fit had {self.n_features}")
        flat = X.ravel()
        first = np.arange(X.shape[0]) * X.shape[1]  # each row's offset in flat
        feature, threshold, left = self.feature, self.threshold, self.left
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.max_depth):
            node = left.take(node) + ~(flat.take(first + feature.take(node))
                                       <= threshold.take(node))
        # a running sum in tree order: a pairwise mean rounds differently
        return np.add.accumulate(self.value.take(node), axis=0)[-1] / self.roots.size
