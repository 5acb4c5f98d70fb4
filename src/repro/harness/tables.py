"""Reproductions of the paper's evaluation tables (§7).

Each ``tableN`` function regenerates the corresponding table at a chosen
scale and returns plain dicts; ``format_table`` renders the same rows the
paper prints. jobs/ wraps these for spark-submit-style invocation and
EXPERIMENTS.md records paper-vs-measured values.

Scale note: the paper runs 30–300 M rows in a C++ column store; this
substrate is numpy on one core, so row counts are scaled by ~1000× with
the *ratios between datasets preserved* (datasets.BENCH_ROWS). Shapes —
which index wins per dataset, by what factor, SO orderings — are the
reproduction target, not absolute milliseconds.
"""
from __future__ import annotations

import time

import numpy as np

from repro import datasets
from repro.core.cost_model import CostModel
from repro.harness.bench import (ALL_INDEXES, BASELINES, Metrics,
                                 build_baseline, build_flood,
                                 default_cost_model, run_workload)
from repro.workloads import make_workload, workload_selectivity

#: paper Table 1 reference values
PAPER_TABLE1 = {
    "sales": {"records": "30M", "queries": 1000, "dimensions": 6, "size_gb": 1.44},
    "tpch": {"records": "300M", "queries": 700, "dimensions": 7, "size_gb": 16.8},
    "osm": {"records": "105M", "queries": 1000, "dimensions": 6, "size_gb": 5.04},
    "perfmon": {"records": "230M", "queries": 800, "dimensions": 6, "size_gb": 11},
}

#: paper Table 2's total-time (TT, ms) and scan-overhead (SO) reference values
PAPER_TABLE2_TT = {
    "sales": {"full_scan": 92.8, "clustered": 0.463, "zorder": 10.9, "ubtree": 38.1,
              "hyperoctree": 6.46, "kdtree": 7.34, "grid_file": 7.99, "flood": 0.128},
    "tpch": {"full_scan": 1620, "clustered": 662, "zorder": 34.8, "ubtree": 75.3,
             "hyperoctree": 29.6, "kdtree": 56.2, "grid_file": 61.5, "flood": 12.0},
    "osm": {"full_scan": 406, "clustered": 208, "zorder": 5.52, "ubtree": 67.6,
            "hyperoctree": 1.07, "kdtree": 2.84, "grid_file": None, "flood": 1.05},
    "perfmon": {"full_scan": 843, "clustered": 144, "zorder": 9.66, "ubtree": 204,
                "hyperoctree": 41.7, "kdtree": 14.1, "grid_file": None, "flood": 3.17},
}

#: datasets where the paper reports Grid File as N/A (construction > 1 hour
#: on heavily skewed data); we mirror the same cells.
GRID_FILE_NA = frozenset({"osm", "perfmon"})

#: the paper omits the R*-tree from Table 2 ("instrumentation for
#: collecting statistics was inadequate") and marks it N/A in Table 4 on
#: tpch/perfmon (out-of-memory on larger datasets); mirrored here.
TABLE2_INDEXES = tuple(x for x in ALL_INDEXES if x != "rstar")
RSTAR_NA = frozenset({"tpch", "perfmon"})

DATASETS = ("sales", "tpch", "osm", "perfmon")


def _load(name: str, scale: str):
    n = datasets.BENCH_ROWS[name] if scale == "bench" else datasets.TEST_ROWS[name]
    data, dims = datasets.load(name, n=n)
    return data, dims


def _workloads(data, name, n_train, n_test):
    train = make_workload(data, name, n_train, seed=1)
    test = make_workload(data, name, n_test, seed=2)
    return train, test


# -- Table 1 -----------------------------------------------------------------
def table1(scale: str = "bench", n_queries: int = 100) -> dict:
    """Dataset and query characteristics (records, queries, dims, size)."""
    out = {}
    for name in DATASETS:
        data, dims = _load(name, scale)
        wl = make_workload(data, name, n_queries, seed=2)
        out[name] = {
            "records": data.shape[0],
            "queries": len(wl),
            "dimensions": len(dims),
            "size_gb": data.nbytes / 1e9,
            "avg_selectivity": workload_selectivity(data, wl),
            "paper": PAPER_TABLE1[name],
        }
    return out


# -- Table 2 -----------------------------------------------------------------
def table2(scale: str = "bench", names=DATASETS, n_train: int = 100,
           n_test: int = 100, cost_model: CostModel | None = None,
           tune: bool = True) -> dict:
    """Performance breakdown: SO / TPS / ST / IT / TT per index per dataset."""
    cm = cost_model or default_cost_model()
    out: dict[str, dict[str, Metrics | None]] = {}
    for name in names:
        data, _ = _load(name, scale)
        train, test = _workloads(data, name, n_train, n_test)
        row: dict[str, Metrics | None] = {}
        for idx_name in TABLE2_INDEXES:
            if idx_name == "grid_file" and name in GRID_FILE_NA:
                row[idx_name] = None  # mirror the paper's N/A cells
                continue
            if idx_name == "flood":
                idx, _, _ = build_flood(data, train, cm)
            else:
                idx = build_baseline(idx_name, data, train, tune=tune)
            row[idx_name] = run_workload(idx, test)
        out[name] = row
    return out


# -- Table 3 -----------------------------------------------------------------
def table3(scale: str = "bench", names=DATASETS, n_train: int = 60,
           n_test: int = 60, n_layouts: int = 6) -> dict:
    """Cost-model robustness: calibrate a model on each dataset, learn
    layouts for every dataset with every model, run the test workloads.
    The paper finds < ~10% off-diagonal penalty (Table 3)."""
    loaded = {}
    for name in names:
        data, _ = _load(name, scale)
        train, test = _workloads(data, name, n_train, n_test)
        loaded[name] = (data, train, test)
    # Calibration measures per-cell / per-point *rates* (machine
    # properties); a 100k-row subsample keeps the 4 calibrations fast
    # without changing what the weights mean.
    models = {}
    for name in names:
        data, train, _ = loaded[name]
        cal = data[:100_000]
        models[name] = CostModel().calibrate(cal, train, n_layouts=n_layouts,
                                             seed=7)
    out: dict[str, dict[str, float]] = {m: {} for m in names}
    for model_name in names:          # rows: models trained on
        for data_name in names:       # cols: layout learned for
            data, train, test = loaded[data_name]
            idx, _, _ = build_flood(data, train, models[model_name])
            out[model_name][data_name] = run_workload(idx, test).tt_ms
    return out


# -- Table 4 -----------------------------------------------------------------
def table4(scale: str = "bench", names=DATASETS, n_train: int = 100,
           cost_model: CostModel | None = None) -> dict:
    """Index creation time: Flood learning + loading vs baseline builds,
    each baseline at its default page size."""
    cm = cost_model or default_cost_model()
    out: dict[str, dict[str, float | None]] = {}
    for name in names:
        data, _ = _load(name, scale)
        train, _ = _workloads(data, name, n_train, 1)
        row: dict[str, float | None] = {}
        _, learn, load = build_flood(data, train, cm)
        row["flood_learning"] = learn
        row["flood_loading"] = load
        row["flood_total"] = learn + load
        for idx_name in BASELINES:
            if idx_name == "grid_file" and name in GRID_FILE_NA:
                row[idx_name] = None
                continue
            if idx_name == "rstar" and name in RSTAR_NA:
                row[idx_name] = None  # paper: R* ran out of memory here
                continue
            t0 = time.perf_counter()
            build_baseline(idx_name, data, train, tune=False)
            row[idx_name] = time.perf_counter() - t0
        out[name] = row
    return out


# -- rendering ---------------------------------------------------------------
def format_table2(result: dict) -> str:
    cols = ["SO", "TPS", "ST", "IT", "TT"]
    lines = []
    for name, row in result.items():
        lines.append(f"== {name} ==")
        lines.append(f"{'index':<12}" + "".join(f"{c:>12}" for c in cols))
        for idx_name in ALL_INDEXES:
            if idx_name not in row:
                continue
            m = row[idx_name]
            if m is None:
                lines.append(f"{idx_name:<12}" + "".join(f"{'N/A':>12}" for _ in cols))
            else:
                r = m.row()
                lines.append(f"{idx_name:<12}" + "".join(f"{r[c]:>12}" for c in cols))
        lines.append("")
    return "\n".join(lines)


def format_matrix(result: dict, fmt: str = "{:.3f}") -> str:
    names = list(result)
    lines = [f"{'':<12}" + "".join(f"{n:>12}" for n in names)]
    for r in names:
        cells = [
            fmt.format(result[r][c]) if result[r].get(c) is not None else "N/A"
            for c in names
        ]
        lines.append(f"{r:<12}" + "".join(f"{c:>12}" for c in cells))
    return "\n".join(lines)


def format_table4(result: dict) -> str:
    rows = ["flood_learning", "flood_loading", "flood_total"] + [
        b for b in BASELINES if b != "full_scan"
    ]
    names = list(result)
    lines = [f"{'':<16}" + "".join(f"{n:>12}" for n in names)]
    for r in rows:
        cells = []
        for n in names:
            v = result[n].get(r)
            cells.append("N/A" if v is None else f"{v:.3f}")
        lines.append(f"{r:<16}" + "".join(f"{c:>12}" for c in cells))
    return "\n".join(lines)
