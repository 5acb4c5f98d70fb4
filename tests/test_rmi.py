"""RMI CDF model: exactness of cdf/lookup_range, prediction error bounds."""
import numpy as np
import pytest

from repro.core.rmi import RMI


@pytest.fixture(params=["uniform", "lognormal", "clustered", "discrete"])
def keys(request):
    rng = np.random.default_rng(7)
    if request.param == "uniform":
        return rng.random(5000) * 100
    if request.param == "lognormal":
        return rng.lognormal(0, 2, 5000)
    if request.param == "clustered":
        return np.concatenate([rng.normal(c, 0.1, 1000) for c in (0, 5, 50)])
    return rng.integers(0, 50, 5000).astype(float)


def test_cdf_is_exact_empirical_cdf(keys):
    m = RMI(keys)
    probe = np.quantile(keys, [0.0, 0.1, 0.33, 0.5, 0.9, 1.0])
    srt = np.sort(keys)
    expect = np.searchsorted(srt, probe, side="right") / keys.size
    assert np.allclose(m.cdf(probe), expect)


def test_cdf_monotone(keys):
    m = RMI(keys)
    xs = np.linspace(keys.min() - 1, keys.max() + 1, 200)
    c = m.cdf(xs)
    assert (np.diff(c) >= 0).all()
    assert c[0] == 0.0 and c[-1] == 1.0


def test_predict_within_reported_error(keys):
    m = RMI(keys)
    srt = np.sort(keys)
    sample = np.random.default_rng(1).choice(srt, 300)
    pred = m.predict(sample)
    err = m.max_error(sample)
    true = np.searchsorted(srt, sample, side="left")
    assert (np.abs(pred - true) <= err + 1).all()


def test_lookup_range_matches_searchsorted(keys):
    m = RMI(keys)
    srt = np.sort(keys)
    rng = np.random.default_rng(3)
    for _ in range(25):
        lo, hi = np.sort(rng.choice(srt, 2))
        s, e = m.lookup_range(float(lo), float(hi))
        assert s == np.searchsorted(srt, lo, side="left")
        assert e == np.searchsorted(srt, hi, side="right")
        assert ((srt[s:e] >= lo) & (srt[s:e] <= hi)).all()


def test_lookup_range_open_bounds():
    m = RMI(np.arange(100.0))
    assert m.lookup_range(-np.inf, np.inf) == (0, 100)


@pytest.mark.parametrize("n_finite", [0, 1, 500])
def test_lookup_range_with_non_finite_keys(n_finite):
    """The model covers the finite keys; ±inf and NaN keys and bounds are
    found by exact search, so every lookup equals searchsorted."""
    rng = np.random.default_rng(4)
    keys = np.concatenate([rng.random(n_finite) * 10, [np.inf] * 5, [-np.inf] * 4,
                           [np.nan] * 3])
    m = RMI(keys)
    srt = np.sort(keys)
    probes = [-np.inf, np.inf, np.nan, 0.0, 2.5, 9.99, 11.0]
    for lo in probes:
        for hi in probes:
            want = (np.searchsorted(srt, lo, side="left"),
                    np.searchsorted(srt, hi, side="right"))
            assert m.lookup_range(lo, hi) == want, (lo, hi)


def test_single_key():
    m = RMI(np.array([42.0]))
    assert m.cdf(41.0)[0] == 0.0
    assert m.cdf(42.0)[0] == 1.0


def test_constant_keys():
    m = RMI(np.full(100, 7.0))
    assert m.cdf(7.0)[0] == 1.0
    assert m.cdf(6.999)[0] == 0.0
    s, e = m.lookup_range(7.0, 7.0)
    assert (s, e) == (0, 100)


def test_empty_keys_rejected():
    with pytest.raises(ValueError):
        RMI(np.array([]))
