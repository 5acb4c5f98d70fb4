"""From-scratch random forest: fits known functions, beats mean predictor."""
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml import random_forest as rf_module
from repro.ml.random_forest import RandomForestRegressor

_CALIBRATION_SAMPLE = (Path(__file__).parents[1]
                       / "perfbench/fixed_model/calibration_sample.json")


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
    """One row and one tree at a time: from the tree's root, go left or
    to ``left + 1`` until a leaf (a NaN threshold), then add the trees'
    leaves in tree order."""
    out = []
    for x in np.atleast_2d(X):
        acc = 0.0
        for root in m.roots:
            node = root
            while not np.isnan(m.threshold[node]):
                node = m.left[node] + (not x[m.feature[node]] <= m.threshold[node])
            acc += m.value[node]
        out.append(acc / m.roots.size)
    return np.array(out)


def test_packed_predict_equals_per_row_walk():
    rng = np.random.default_rng(10)
    X = rng.random((300, 3))
    y = np.where(X[:, 0] > 0.4, 3.0, 1.0) * X[:, 1] + rng.normal(0, 0.1, 300)
    m = RandomForestRegressor(n_estimators=7, max_depth=6, seed=11).fit(X, y)
    # the trees differ in node count
    assert np.unique(np.diff(np.append(m.roots, m.value.size))).size > 1
    Xt = rng.random((60, 3)) * 1.4 - 0.2
    Xt[::4, 0] = np.nan
    Xt[1::4, 1] = np.inf
    Xt[2::4, 2] = -np.inf
    Xt[3] = np.nan
    Xt[7] = np.inf
    Xt[11] = -np.inf
    assert np.array_equal(m.predict(Xt), _reference_predict(m, Xt))
    assert np.array_equal(m.predict(X), _reference_predict(m, X))
    # the three cost-model forests, on their sample plus NaN and +-inf rows
    sample = json.loads(_CALIBRATION_SAMPLE.read_text())
    X = np.asarray(sample["X"], dtype=np.float64)
    odd = np.repeat(X[:3], 3, axis=0)
    odd[0::3] = np.nan
    odd[1::3] = np.inf
    odd[2::3] = -np.inf
    odd[0, 0] = X[0, 0]  # NaN in all but one feature
    Xt = np.vstack([X, odd])
    for fit in sample["fits"].values():
        m = RandomForestRegressor(**fit["params"]).fit(X, np.asarray(fit["y"]))
        assert np.array_equal(m.predict(Xt), _reference_predict(m, Xt), equal_nan=True)


def test_predict_rejects_another_feature_count():
    rng = np.random.default_rng(14)
    X, y = rng.random((50, 3)), rng.random(50)
    m = RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)
    for width in (2, 4):
        with pytest.raises(ValueError):
            m.predict(rng.random((5, width)))


def test_depth_zero_forest_averages_bootstrap_means():
    rng = np.random.default_rng(12)
    X, y = rng.random((40, 2)), rng.random(40)
    m = RandomForestRegressor(n_estimators=4, max_depth=0, seed=13).fit(X, y)
    assert m.value.shape == (4,)
    assert np.array_equal(m.roots, np.arange(4))
    # no split draws: each tree is the mean of its bootstrap sample
    boot = np.random.default_rng(13)
    means = [y[boot.integers(0, 40, 40)].mean() for _ in range(4)]
    Xt = np.vstack([X[:5], [[np.nan, np.inf]]])
    assert np.array_equal(m.predict(Xt), np.full(6, sum(means) / 4))
    assert np.array_equal(m.predict(Xt), _reference_predict(m, Xt))


def _reference_grow(X, y, depth, nodes, slot, rng, max_depth, min_leaf,
                    max_features):
    """The split search as one loop over the sampled features: each is
    sorted on its own, and a later feature wins only with a strictly
    smaller error. ``X`` holds one row per sample."""
    nodes[slot] = [0, np.nan, slot - 1, float(y.mean())]  # a leaf
    n = y.size
    if depth >= max_depth or n < 2 * min_leaf or np.ptp(y) == 0:
        return
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
        return
    f, thr = best[1], best[2]
    mask = X[:, f] <= thr
    if mask.all() or not mask.any():
        return
    left = len(nodes)
    nodes[slot][:3] = [f, thr, left]
    nodes.extend([None, None])  # the two children, side by side
    grow = (rng, max_depth, min_leaf, max_features)
    _reference_grow(X[mask], y[mask], depth + 1, nodes, left, *grow)
    _reference_grow(X[~mask], y[~mask], depth + 1, nodes, left + 1, *grow)


_PACKED = ("feature", "threshold", "left", "value", "roots")


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
        assert (got.left != np.arange(got.left.size) - 1).any()


def test_fit_grows_the_reference_trees_on_the_calibration_sample(monkeypatch):
    sample = json.loads(_CALIBRATION_SAMPLE.read_text())
    X = np.asarray(sample["X"], dtype=np.float64)
    for fit in sample["fits"].values():
        got, want = _fit_both(monkeypatch, X, np.asarray(fit["y"]), **fit["params"])
        for name in _PACKED:
            assert np.array_equal(getattr(got, name), getattr(want, name),
                                  equal_nan=True), name
