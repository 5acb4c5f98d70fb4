"""From-scratch random forest: fits known functions, beats mean predictor."""
import numpy as np
import pytest

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
