"""The four evaluation datasets (§7.3), as numpy matrices + dim names.

The paper's sales / osm / perfmon datasets are proprietary or huge; each
is synthesized here to preserve the property that drives its result in
the paper (see DESIGN.md §4 for the substitution table):

* **sales** — fairly uniform attributes; the workload (repro.workloads)
  concentrates selectivity on one dimension, the regime where a clustered
  single-dim index is nearly optimal.
* **tpch** — the extended TPC-H-lite lineitem (synth_data.lineitem_columns):
  dates, quantity, discount, keys; near-uniform data but workload spread
  over many dims, the regime where a clustered index collapses.
* **osm** — Gaussian-mixture lat/lon clusters (city density), recency-
  skewed timestamps, equality-coded type/category — heavy skew: the
  flattening showcase.
* **perfmon** — machine-log shapes: zipfian machine ids, bursty time,
  bimodal CPU, lognormal memory/load, mostly-zero swap.

Sizes default to ~SF0.1-equivalent row counts scaled to this substrate
(paper: 30–300 M rows in C++; ours: 1–3 ×10⁵ in numpy — same ratios
between datasets). Every generator is deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np

from repro.synth_data import lineitem_columns

#: benchmark-scale row counts, ∝ the paper's 30M/300M/105M/230M (×250
#: smaller; large enough that scan time dominates per-query overheads)
BENCH_ROWS = {"sales": 120_000, "tpch": 1_200_000, "osm": 420_000, "perfmon": 920_000}
#: unit-test scale
TEST_ROWS = {k: v // 20 for k, v in BENCH_ROWS.items()}

DIMS = {
    "sales": ["customer", "product", "amount", "date", "region", "rep"],
    "tpch": ["shipdate", "receiptdate", "quantity", "discount",
             "orderkey", "suppkey", "extendedprice"],
    "osm": ["id", "timestamp", "lat", "lon", "type", "category"],
    "perfmon": ["time", "machine", "cpu", "mem", "swap", "load"],
}


def sales(n: int = 30_000, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed)
    return np.column_stack(
        [
            g.integers(1, max(2, n // 3), n).astype(float),   # customer id
            g.integers(1, 5000, n).astype(float),             # product id
            (g.random(n) * 9000 + 10).round(2),               # order amount
            g.integers(0, 1461, n).astype(float),             # day since epoch
            g.integers(0, 12, n).astype(float),               # region
            g.integers(1, 400, n).astype(float),              # sales rep
        ]
    )


def tpch(n: int = 300_000, seed: int = 0) -> np.ndarray:
    cols = lineitem_columns(sf=n / 6_000_000, seed=seed)
    # the integer columns (days, keys) promote to float64
    return np.column_stack([cols["l_" + k] for k in DIMS["tpch"]])[:n]


def osm(n: int = 105_000, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed)
    # lat/lon: mixture of "city" clusters over the US northeast box
    k = 12
    centers = np.column_stack(
        [g.uniform(40.0, 45.0, k), g.uniform(-75.0, -67.0, k)]
    )
    weights = 1.0 / np.arange(1, k + 1) ** 1.2
    weights /= weights.sum()
    comp = g.choice(k, n, p=weights)
    lat = centers[comp, 0] + g.normal(0, 0.15, n)
    lon = centers[comp, 1] + g.normal(0, 0.2, n)
    # timestamps skewed toward recent edits (OSM grows over time)
    ts = (1.0 - g.power(3.0, n)) * 4e8 + 1.1e9
    return np.column_stack(
        [
            np.arange(1, n + 1, dtype=float),                 # element id
            ts,                                               # timestamp
            lat,
            lon,
            g.choice(3, n, p=[0.88, 0.09, 0.03]).astype(float),   # node/way/rel
            np.minimum(g.zipf(1.6, n), 200).astype(float),    # landmark cat.
        ]
    )


def perfmon(n: int = 230_000, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed)
    # bursty time: day-scale bursts over a year of seconds
    bursts = g.choice(365, n, p=_burst_profile(g)) * 86400.0
    time_col = bursts + g.random(n) * 86400.0
    cpu = np.where(g.random(n) < 0.7, g.beta(1.2, 8, n), g.beta(8, 1.5, n)) * 100
    return np.column_stack(
        [
            time_col,
            np.minimum(g.zipf(1.3, n), 2000).astype(float),   # machine id
            cpu.round(1),
            np.minimum(g.lognormal(1.5, 1.0, n), 64.0).round(2),   # mem GB
            np.where(g.random(n) < 0.8, 0.0, g.lognormal(0, 1.5, n)).round(2),
            np.minimum(g.lognormal(0.0, 1.2, n), 64.0).round(2),   # load avg
        ]
    )


def _burst_profile(g: np.random.Generator) -> np.ndarray:
    w = g.lognormal(0, 1.5, 365)
    return w / w.sum()


GENERATORS = {"sales": sales, "tpch": tpch, "osm": osm, "perfmon": perfmon}


def load(name: str, n: int | None = None, seed: int = 0) -> tuple[np.ndarray, list[str]]:
    """Dataset matrix + dim names at the requested size, or at the
    benchmark size when ``n`` is None; ``n = 0`` gives no rows."""
    if name not in GENERATORS:
        raise KeyError(f"unknown dataset {name!r}; have {sorted(GENERATORS)}")
    if n is None:
        n = BENCH_ROWS[name]
    elif n < 0:
        raise ValueError(f"row count must be >= 0, got {n}")
    return GENERATORS[name](n=n, seed=seed), DIMS[name]
