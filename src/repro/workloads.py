"""Query workload generators (§7.3).

Each dataset has a set of *query types* — templates naming the filtered
dims, which get range vs equality predicates, and a relative frequency.
Queries instantiate a type with ranges placed uniformly in flattened
(quantile) space and scaled so the average overall selectivity is the
target (paper: 0.1% ± small); equality dims pick an observed value and
the range dims absorb the remaining selectivity budget. Train and test
workloads come from the same distribution with different seeds (§7.3).

The sales types concentrate on one very selective dimension (the paper's
sales workload is the regime where a clustered index is near-optimal);
tpch spreads filters over many dims; osm uses 1–3 dims with equality on
type/category; perfmon mixes time ranges with machine equality.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import AGG_SUM, Query, query_from_dict

# (dims..., set of equality dims, weight); dims index into datasets.DIMS
QUERY_TYPES: dict[str, list[tuple[tuple[int, ...], frozenset[int], float]]] = {
    # customer appears in every query: the paper's sales analysts filter
    # on customer throughout (Table 2 shows clustered SO 3.18 — near-exact
    # — and Flood SO 1.82, the only regime where clustered is competitive)
    "sales": [
        ((0,), frozenset(), 0.40),            # per-customer report
        ((0, 3), frozenset(), 0.25),          # customer + date window
        ((0, 1, 3), frozenset(), 0.10),       # customer + product + date
        ((0, 2), frozenset(), 0.10),          # customer + amount
        ((0, 1), frozenset(), 0.10),          # customer + product
        ((0, 4, 3), frozenset({4}), 0.05),    # customer + region + date
    ],
    "tpch": [
        ((0,), frozenset(), 0.15),            # shipdate
        ((0, 3), frozenset(), 0.15),          # shipdate + discount
        ((0, 2, 3), frozenset(), 0.15),       # Q6-style
        ((1, 2), frozenset(), 0.15),          # receiptdate + quantity
        ((4,), frozenset(), 0.15),            # orderkey
        ((5, 0), frozenset(), 0.15),          # suppkey + shipdate
        ((2, 3, 5), frozenset(), 0.10),
    ],
    "osm": [
        ((2, 3), frozenset(), 0.40),          # lat-lon rectangle
        ((1,), frozenset(), 0.25),            # time interval
        ((1, 4), frozenset({4}), 0.20),       # nodes added in interval
        ((2, 3, 5), frozenset({5}), 0.15),    # buildings in rectangle
    ],
    "perfmon": [
        ((0,), frozenset(), 0.25),            # time window
        ((0, 1), frozenset({1}), 0.25),       # machine over time
        ((2, 3), frozenset(), 0.20),          # hot cpu + mem
        ((0, 5), frozenset(), 0.15),          # load over time
        ((1, 2), frozenset({1}), 0.15),
    ],
}


#: the average overall selectivity of a dataset's queries (paper: 0.1%)
TARGET_SELECTIVITY = 1e-3
#: cost-model calibration's random workload: up to this many query types,
#: each of up to this many dims, at this selectivity
RANDOM_TYPES = 8
RANDOM_MAX_DIMS = 4
RANDOM_SELECTIVITY = 5e-3


def make_workload(data: np.ndarray, name: str, n_queries: int, seed: int = 0) -> list[Query]:
    """Instantiate ``n_queries`` queries of the dataset's types."""
    return _generate(data, QUERY_TYPES[name], n_queries, TARGET_SELECTIVITY, seed)


def random_workload(data: np.ndarray, n_queries: int, seed: int = 0) -> list[Query]:
    """Random query types, for cost model calibration: up to
    ``RANDOM_TYPES`` types of up to ``RANDOM_MAX_DIMS`` dims."""
    rng = np.random.default_rng(seed)
    d = data.shape[1]
    types = []
    for _ in range(RANDOM_TYPES):
        k = int(rng.integers(1, min(RANDOM_MAX_DIMS, d) + 1))
        dims = tuple(int(x) for x in rng.choice(d, size=k, replace=False))
        types.append((dims, frozenset(), 1.0))
    return _generate(data, types, n_queries, RANDOM_SELECTIVITY, seed + 1)


def _generate(data: np.ndarray, types, n_queries, target, seed):
    rng = np.random.default_rng(seed)
    n, d = data.shape
    sorted_cols = [np.sort(data[:, j]) for j in range(d)]
    weights = np.array([t[2] for t in types], dtype=float)
    weights /= weights.sum()
    out: list[Query] = []
    for _ in range(n_queries):
        dims, eq_dims, _w = types[rng.choice(len(types), p=weights)]
        bounds: dict[int, tuple[float, float]] = {}
        budget = target
        range_dims = [dm for dm in dims if dm not in eq_dims]
        for dm in dims:
            if dm in eq_dims:
                v = float(rng.choice(data[:, dm]))
                bounds[dm] = (v, v)
                col = sorted_cols[dm]
                mass = (
                    np.searchsorted(col, v, "right") - np.searchsorted(col, v, "left")
                ) / n
                budget = min(1.0, budget / max(mass, 1e-6))
        w = min(1.0, budget ** (1 / len(range_dims))) if range_dims else 0.0
        for dm in range_dims:
            col = sorted_cols[dm]
            u0 = rng.uniform(0, max(1e-9, 1 - w))
            lo = float(col[int(u0 * (n - 1))])
            hi = float(col[min(int((u0 + w) * (n - 1)), n - 1)])
            bounds[dm] = (lo, hi)
        agg = AGG_SUM if rng.random() < 0.5 else "count"  # half SUMs, half COUNTs
        out.append(
            query_from_dict(d, bounds, agg=agg, agg_dim=int(rng.integers(0, d)))
        )
    return out


def workload_selectivity(data: np.ndarray, workload: list[Query]) -> float:
    """Average fraction of rows matched — for checking the 0.1% target."""
    return float(np.mean([q.mask(data).mean() for q in workload]))
