"""From-scratch random forest: fits known functions, beats mean predictor."""
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml import random_forest as rf_module
from repro.ml.random_forest import RandomForestRegressor


def _r2(y, pred):
    ss = ((y - pred) ** 2).sum()
    tot = ((y - y.mean()) ** 2).sum()
    return 1 - ss / tot


def test_fits_piecewise_constant():
    rng = np.random.default_rng(0)
    X = rng.random((600, 2))
    y = np.where(X[:, 0] > 0.5, 10.0, 1.0) + np.where(X[:, 1] > 0.3, 5.0, 0.0)
    m = RandomForestRegressor(n_estimators=20, max_depth=6, seed=1).fit(X, y)
    assert _r2(y, m.predict(X)) > 0.95


def test_fits_nonlinear_interaction():
    rng = np.random.default_rng(2)
    X = rng.random((800, 3))
    y = X[:, 0] * X[:, 1] * 10 + np.sin(X[:, 2] * 6)
    m = RandomForestRegressor(n_estimators=30, max_depth=10, seed=3).fit(X, y)
    te_X = rng.random((200, 3))
    te_y = te_X[:, 0] * te_X[:, 1] * 10 + np.sin(te_X[:, 2] * 6)
    assert _r2(te_y, m.predict(te_X)) > 0.8


def test_generalizes_not_just_memorizes():
    rng = np.random.default_rng(4)
    X = rng.random((500, 2))
    y = 3 * X[:, 0] + rng.normal(0, 0.05, 500)
    m = RandomForestRegressor(n_estimators=25, max_depth=8, seed=5).fit(X, y)
    Xt = rng.random((200, 2))
    assert _r2(3 * Xt[:, 0], m.predict(Xt)) > 0.9


def test_deterministic_given_seed():
    rng = np.random.default_rng(6)
    X, y = rng.random((200, 2)), rng.random(200)
    a = RandomForestRegressor(n_estimators=5, seed=9).fit(X, y).predict(X[:20])
    b = RandomForestRegressor(n_estimators=5, seed=9).fit(X, y).predict(X[:20])
    assert np.array_equal(a, b)


def test_constant_target():
    X = np.random.default_rng(7).random((100, 2))
    m = RandomForestRegressor(n_estimators=3, seed=0).fit(X, np.full(100, 4.2))
    assert np.allclose(m.predict(X[:10]), 4.2)


def test_single_row_prediction_shape():
    rng = np.random.default_rng(8)
    X, y = rng.random((50, 3)), rng.random(50)
    m = RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)
    assert m.predict(X[0]).shape == (1,)


def test_shape_validation():
    m = RandomForestRegressor()
    with pytest.raises(ValueError):
        m.fit(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict(np.zeros((1, 2)))


def _reference_predict(m, X):
    """One row and one tree at a time: follow the splits until a node is
    its own child, then add the trees' leaves in tree order."""
    feature, threshold = m.feature.ravel(), m.threshold.ravel()
    left, right, value = m.left.ravel(), m.right.ravel(), m.value.ravel()
    n_trees, max_nodes = m.value.shape
    out = []
    for x in np.atleast_2d(X):
        acc = 0.0
        for t in range(n_trees):
            node = t * max_nodes
            while left[node] != node:
                node = left[node] if x[feature[node]] <= threshold[node] else right[node]
            acc += value[node]
        out.append(acc / n_trees)
    return np.array(out)


def test_packed_predict_equals_per_row_walk():
    rng = np.random.default_rng(10)
    X = rng.random((300, 3))
    y = np.where(X[:, 0] > 0.4, 3.0, 1.0) * X[:, 1] + rng.normal(0, 0.1, 300)
    m = RandomForestRegressor(n_estimators=7, max_depth=6, seed=11).fit(X, y)
    # the trees differ in size, so all but the longest are padded
    own = np.arange(m.left.size).reshape(m.left.shape)
    assert np.unique((m.left != own).sum(axis=1)).size > 1
    Xt = rng.random((60, 3)) * 1.4 - 0.2
    Xt[::4, 0] = np.nan
    Xt[1::4, 1] = np.inf
    Xt[2::4, 2] = -np.inf
    Xt[3] = np.nan
    Xt[7] = np.inf
    Xt[11] = -np.inf
    assert np.array_equal(m.predict(Xt), _reference_predict(m, Xt))
    assert np.array_equal(m.predict(X), _reference_predict(m, X))


def test_depth_zero_forest_averages_bootstrap_means():
    rng = np.random.default_rng(12)
    X, y = rng.random((40, 2)), rng.random(40)
    m = RandomForestRegressor(n_estimators=4, max_depth=0, seed=13).fit(X, y)
    assert m.value.shape == (4, 1)
    # no split draws: each tree is the mean of its bootstrap sample
    boot = np.random.default_rng(13)
    means = [y[boot.integers(0, 40, 40)].mean() for _ in range(4)]
    Xt = np.vstack([X[:5], [[np.nan, np.inf]]])
    assert np.array_equal(m.predict(Xt), np.full(6, sum(means) / 4))
    assert np.array_equal(m.predict(Xt), _reference_predict(m, Xt))


def _reference_grow(X, y, depth, nodes, rng, max_depth, min_leaf, max_features):
    """The split search as one loop over the sampled features: each is
    sorted on its own, and a later feature wins only with a strictly
    smaller error. ``X`` holds one row per sample."""
    node = len(nodes)
    nodes.append([0, np.inf, node, node, float(y.mean())])  # a leaf
    n = y.size
    if depth >= max_depth or n < 2 * min_leaf or np.ptp(y) == 0:
        return node
    n_feat = X.shape[1]
    k = max(1, int(round(max_features * n_feat)))
    feats = rng.choice(n_feat, size=k, replace=False)
    best = (np.inf, -1, 0.0)  # (weighted sse, feature, threshold)
    for f in feats:
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        # candidate split after position i (1..n-1) where value changes
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        idx = np.arange(1, n)
        valid = xs[1:] != xs[:-1]
        idx = idx[valid]
        idx = idx[(idx >= min_leaf) & (idx <= n - min_leaf)]
        if idx.size == 0:
            continue
        nl = idx.astype(np.float64)
        nr = n - nl
        sl, sr = csum[idx - 1], csum[-1] - csum[idx - 1]
        ql, qr = csq[idx - 1], csq[-1] - csq[idx - 1]
        sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
        j = int(np.argmin(sse))
        if sse[j] < best[0]:
            thr = 0.5 * (xs[idx[j] - 1] + xs[idx[j]])
            best = (float(sse[j]), int(f), float(thr))
    if best[1] < 0:
        return node
    f, thr = best[1], best[2]
    mask = X[:, f] <= thr
    if mask.all() or not mask.any():
        return node
    grow = (rng, max_depth, min_leaf, max_features)
    left = _reference_grow(X[mask], y[mask], depth + 1, nodes, *grow)
    right = _reference_grow(X[~mask], y[~mask], depth + 1, nodes, *grow)
    nodes[node][:4] = [f, thr, left, right]
    return node


_PACKED = ("feature", "threshold", "left", "right", "value")


def _fit_both(monkeypatch, X, y, **params):
    """Fit with the one-search grower, then again with the per-feature
    reference grower plugged into the same ``fit``."""
    got = RandomForestRegressor(**params).fit(X, y)
    with monkeypatch.context() as m:
        m.setattr(rf_module, "_grow",
                  lambda XT, y, *rest: _reference_grow(XT.T, y, *rest))
        want = RandomForestRegressor(**params).fit(X, y)
    return got, want


def _fit_data(kind, seed=20):
    rng = np.random.default_rng(seed)
    n = 90
    X = rng.integers(0, 5, (n, 4)).astype(np.float64)  # ties everywhere
    y = 2 * X[:, 0] + X[:, 1] + rng.integers(0, 3, n)
    if kind == "ties":
        X[:, 2] = 3.0  # a constant column
    elif kind == "nonfinite_x":
        X = X + rng.random((n, 4))
        for col, vals in ((0, (np.nan,)), (1, (np.inf, -np.inf)),
                          (3, (np.nan, np.inf, -np.inf))):
            rows = rng.choice(n, 20, replace=False)
            X[rows, col] = rng.choice(vals, 20)
        X[:, 2] = np.where(rng.random(n) < 0.5, -np.inf, np.inf)
    elif kind == "nonfinite_y":
        y[rng.choice(n, 6, replace=False)] = [np.nan, np.inf, -np.inf,
                                              np.inf, -np.inf, np.nan]
    elif kind == "one_nonfinite_row":
        X, y = X[:1], np.array([np.inf])
    return X, y


@pytest.mark.parametrize("kind", ["ties", "nonfinite_x", "nonfinite_y",
                                  "one_nonfinite_row"])
@pytest.mark.parametrize("min_leaf", [0, 1, 2, 5])
@pytest.mark.parametrize("max_features", [0.01, 0.5, 1.0])  # k = 1, 2, 4
@pytest.mark.parametrize("max_depth", [0, 1, 10])
def test_fit_grows_the_per_feature_reference_trees(monkeypatch, kind, min_leaf,
                                                   max_features, max_depth):
    X, y = _fit_data(kind)
    got, want = _fit_both(monkeypatch, X, y, n_estimators=4, max_depth=max_depth,
                          min_samples_leaf=min_leaf, max_features=max_features,
                          seed=21)
    for name in _PACKED:
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=True), name
    if max_depth and kind in ("ties", "nonfinite_x"):
        assert (got.left != np.arange(got.left.size).reshape(got.left.shape)).any()


def test_fit_grows_the_reference_trees_on_the_calibration_sample(monkeypatch):
    path = Path(__file__).parents[1] / "perfbench/fixed_model/calibration_sample.json"
    sample = json.loads(path.read_text())
    X = np.asarray(sample["X"], dtype=np.float64)
    for fit in sample["fits"].values():
        got, want = _fit_both(monkeypatch, X, np.asarray(fit["y"]), **fit["params"])
        for name in _PACKED:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
