"""Query dataclass semantics: filtered dims, masks, validation."""
import numpy as np
import pytest

from repro.core.query import AGG_SUM, Query, query_from_dict


def test_filtered_dims_detects_finite_bounds():
    q = query_from_dict(4, {1: (0.0, 1.0), 3: (2.0, np.inf)})
    assert list(q.filtered_dims) == [1, 3]
    assert q.filters(1) and q.filters(3)
    assert not q.filters(0) and not q.filters(2)


def test_mask_matches_manual_filter():
    rng = np.random.default_rng(0)
    data = rng.random((500, 3))
    q = query_from_dict(3, {0: (0.2, 0.7), 2: (0.5, 1.0)})
    m = q.mask(data)
    expected = (data[:, 0] >= 0.2) & (data[:, 0] <= 0.7) & (data[:, 2] >= 0.5)
    assert np.array_equal(m, expected)


def test_equality_predicate_is_degenerate_range():
    data = np.array([[1.0], [2.0], [2.0], [3.0]])
    q = query_from_dict(1, {0: (2.0, 2.0)})
    assert q.mask(data).sum() == 2


def test_unfiltered_query_matches_everything():
    data = np.arange(12.0).reshape(6, 2)
    q = query_from_dict(2, {})
    assert q.mask(data).all()


@pytest.mark.parametrize("bad", [np.zeros((3,)), np.zeros((2, 3))])
def test_bad_ranges_shape_rejected(bad):
    with pytest.raises(ValueError):
        Query(bad)


def test_bad_agg_rejected():
    with pytest.raises(ValueError):
        Query(np.zeros((2, 2)), agg="avg")


def test_sum_agg_fields():
    q = query_from_dict(3, {0: (0, 1)}, agg=AGG_SUM, agg_dim=2)
    assert q.agg == AGG_SUM and q.agg_dim == 2


@pytest.mark.parametrize("agg_dim", [-1, 3, 7])
def test_agg_dim_outside_dims_rejected(agg_dim):
    """-1 would silently sum the last column and 7 fail inside the scan."""
    with pytest.raises(ValueError, match="agg_dim"):
        query_from_dict(3, {}, agg=AGG_SUM, agg_dim=agg_dim)
    with pytest.raises(ValueError, match="agg_dim"):
        Query(np.zeros((3, 2)), agg_dim=agg_dim)
