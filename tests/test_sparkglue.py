"""Spark layer: Flood layout as partitioning/sort + data-skipping scans.

Results are oracle-checked against DuckDB over the same input
(repro.oracle.assert_equivalent), and the layout's structural invariants
(cell clustering, within-partition sort order, skipping effectiveness)
are asserted on the materialized DataFrame.
"""
import importlib.util
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.indexes.flood import FloodIndex, Grid, Layout
from repro.oracle import assert_equivalent
from repro.sparkglue.layout import (CELL_COL, SparkFloodLayout, apply_flood_layout,
                                    cell_id_function, cell_runs_for_query, learn_boundaries)
from repro.sparkglue.scan import flood_scan, scan_counts

DIM_COLS = ["l_orderkey", "l_quantity", "l_discount", "l_extendedprice"]
LAYOUT = Layout(order=[0, 1, 2, 3], cols=[8, 4, 4])  # sort dim: extendedprice
# 20k cells; a narrow extendedprice range visits one cell in 20 of each
# orderkey column: 1000 cell runs
FINE_LAYOUT = Layout(order=[0, 3, 1, 2], cols=[1000, 20, 1])
FINE_QUERY = {"l_extendedprice": (10000.0, 10500.0)}


@pytest.fixture(scope="module")
def li_pdf():
    return synth_data.lineitem_pdf(sf=0.005, seed=0)


@pytest.fixture(scope="module")
def laid(spark, li_pdf):
    df = spark.createDataFrame(li_pdf)
    sfl = learn_boundaries(df, LAYOUT, DIM_COLS, sample_rows=20_000)
    out = apply_flood_layout(df, sfl, num_partitions=8).cache()
    out.count()  # materialize
    yield out, sfl
    out.unpersist()


@pytest.fixture(scope="module")
def fine(spark, li_pdf):
    df = spark.createDataFrame(li_pdf)
    sfl = learn_boundaries(df, FINE_LAYOUT, DIM_COLS, sample_rows=2 * len(li_pdf))
    out = apply_flood_layout(df, sfl, num_partitions=8).cache()
    out.count()
    yield out, sfl
    out.unpersist()


QUERIES = [
    {"l_quantity": (10.0, 20.0)},
    {"l_orderkey": (100.0, 900.0)},
    {"l_orderkey": (500.0, 2000.0), "l_discount": (0.02, 0.05)},
    {"l_quantity": (1.0, 5.0), "l_extendedprice": (1000.0, 30000.0)},
    {"l_discount": (0.05, 0.05)},  # equality
    {"l_orderkey": (100.0, 200.0), "l_quantity": (5.0, 25.0),
     "l_extendedprice": (900.0, 50000.0)},
    {"l_orderkey": (900.0, 100.0)},  # inverted: no row matches
]


def _sql_where(bounds):
    return " AND ".join(
        f"({c} >= {lo} AND {c} <= {hi})" for c, (lo, hi) in bounds.items()
    )


@pytest.mark.parametrize("bounds", QUERIES)
def test_count_matches_duckdb_oracle(laid, li_pdf, bounds):
    df, sfl = laid
    got = flood_scan(df, sfl, bounds).agg(F.count("*").alias("cnt"))
    assert_equivalent(
        got,
        f"SELECT count(*) AS cnt FROM lineitem WHERE {_sql_where(bounds)}",
        lineitem=li_pdf,
    )


@pytest.mark.parametrize("bounds", QUERIES[:3])
def test_sum_matches_duckdb_oracle(laid, li_pdf, bounds):
    df, sfl = laid
    got = flood_scan(df, sfl, bounds).agg(
        F.round(F.sum("l_extendedprice"), 2).alias("s")
    )
    assert_equivalent(
        got,
        "SELECT round(sum(l_extendedprice), 2) AS s FROM lineitem "
        f"WHERE {_sql_where(bounds)}",
        lineitem=li_pdf,
    )


def test_row_level_equivalence(laid, li_pdf):
    """Full matching-row set (not just aggregates) equals DuckDB's."""
    df, sfl = laid
    bounds = {"l_orderkey": (100.0, 300.0), "l_quantity": (10.0, 40.0)}
    got = (
        flood_scan(df, sfl, bounds)
        .select("l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice")
    )
    assert_equivalent(
        got,
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
        f"FROM lineitem WHERE {_sql_where(bounds)}",
        lineitem=li_pdf,
    )


def test_layout_clusters_cells(laid):
    """Each cell id must live in exactly one partition-contiguous run:
    sortWithinPartitions(cell, sort) ⇒ cells sorted inside partitions."""
    df, _ = laid

    def check(pdf_iter):
        for pdf in pdf_iter:
            cells = pdf[CELL_COL].to_numpy()
            ok = bool((np.diff(cells) >= 0).all()) if len(cells) else True
            yield pd.DataFrame({"ok": [ok]})

    res = df.mapInPandas(check, schema="ok boolean").collect()
    assert all(r["ok"] for r in res)


def test_sort_dim_ordered_within_cells(laid):
    df, sfl = laid

    def check(pdf_iter):
        for pdf in pdf_iter:
            ok = True
            for _, grp in pdf.groupby(CELL_COL):
                v = grp[sfl.sort_col].to_numpy()
                if (np.diff(v) < 0).any():
                    ok = False
            yield pd.DataFrame({"ok": [ok]})

    res = df.mapInPandas(check, schema="ok boolean").collect()
    assert all(r["ok"] for r in res)


def test_selective_query_skips_most_rows(laid):
    df, sfl = laid
    frac = scan_counts(df, sfl, {"l_orderkey": (100.0, 300.0)})["skipped_fraction"]
    assert frac > 0.5  # 8 columns on orderkey → ≥ 7/8 of cells skippable


def test_inverted_range_skips_every_row(laid):
    df, sfl = laid
    assert scan_counts(df, sfl, {"l_orderkey": (900.0, 100.0)})["skipped_fraction"] == 1.0


def test_unselective_query_skips_nothing(laid):
    df, sfl = laid
    assert scan_counts(df, sfl, {})["skipped_fraction"] == 0.0


def test_fine_layout_with_a_thousand_runs_matches_duckdb(fine, li_pdf):
    """A layout of 20k cells whose query visits 1000 cell runs: the cell
    predicate stays a few terms, however many runs there are."""
    df, sfl = fine
    assert FINE_LAYOUT.n_cells == 20_000
    assert len(cell_runs_for_query(sfl, FINE_QUERY)) == 1000
    got = flood_scan(df, sfl, FINE_QUERY).agg(F.count("*").alias("cnt"))
    assert_equivalent(
        got,
        f"SELECT count(*) AS cnt FROM lineitem WHERE {_sql_where(FINE_QUERY)}",
        lineitem=li_pdf,
    )


@pytest.mark.parametrize("case", [("laid", b) for b in QUERIES] + [("fine", FINE_QUERY)])
def test_scan_counts_scan_exactly_the_projected_cells(request, spark, li_pdf, case):
    """``n_scanned`` is the number of rows in the projection's cell runs,
    and ``n_matched`` equals DuckDB's count."""
    df, sfl = request.getfixturevalue(case[0])
    bounds = case[1]
    r = scan_counts(df, sfl, bounds)
    cells = np.sort(df.select(CELL_COL).toPandas()[CELL_COL].to_numpy())
    runs = np.asarray(cell_runs_for_query(sfl, bounds), dtype=np.int64).reshape(-1, 2)
    in_runs = (np.searchsorted(cells, runs[:, 1], "right")
               - np.searchsorted(cells, runs[:, 0], "left")).sum()
    assert r["n_rows"] == len(li_pdf)
    assert r["n_scanned"] == in_runs
    assert r["n_matched"] <= r["n_scanned"] <= r["n_rows"]
    assert r["scan_overhead"] == r["n_scanned"] / max(1, r["n_matched"])
    assert_equivalent(
        spark.createDataFrame([(r["n_matched"],)], "cnt long"),
        f"SELECT count(*) AS cnt FROM lineitem WHERE {_sql_where(bounds)}",
        lineitem=li_pdf,
    )


def test_cell_runs_merge_contiguous():
    layout = Layout(order=[0, 1, 2], cols=[4, 4])
    edges = [np.array([1.0, 2.0, 3.0])] * 2
    sfl = SparkFloodLayout(grid=Grid(layout, edges, [False, False]), dim_cols=["a", "b", "c"])
    # no filters → one run covering all 16 cells
    assert cell_runs_for_query(sfl, {}) == [(0, 15)]
    # filter selecting b in one column → 4 disjoint runs
    runs = cell_runs_for_query(sfl, {"b": (0.0, 0.5)})
    assert runs == [(0, 0), (4, 4), (8, 8), (12, 12)]
    # filter on the leading dim → one contiguous run
    runs = cell_runs_for_query(sfl, {"a": (0.0, 1.5)})
    assert runs == [(0, 7)]
    # an empty range, on a grid or the sort dim, gives no runs
    for bounds in ({"a": (0.9, 0.1)}, {"a": (2.5, 0.5)}, {"c": (5.0, 1.0)},
                   {"b": (float("nan"), 1.0)}, {"c": (float("nan"), float("nan"))}):
        assert cell_runs_for_query(sfl, bounds) == []


def test_flatten_false_uses_equal_width(spark, li_pdf):
    df = spark.createDataFrame(li_pdf)
    lay = Layout(order=[0, 1, 2, 3], cols=[4, 2, 2], flatten=False)
    sfl = learn_boundaries(df, lay, DIM_COLS, sample_rows=5000)
    b = sfl.grid.edges[0]  # l_orderkey, the first grid dim
    widths = np.diff(np.concatenate(([li_pdf["l_orderkey"].min()], b,
                                     [li_pdf["l_orderkey"].max()])))
    assert widths.std() / widths.mean() < 0.1


def test_learn_boundaries_repeat(spark, li_pdf):
    """A sample smaller than the table holds the same rows on every call,
    so two calls learn the same edges."""
    df = spark.createDataFrame(li_pdf)
    a, b = (learn_boundaries(df, LAYOUT, DIM_COLS, sample_rows=20_000).grid.edges
            for _ in range(2))
    assert len(a) == len(b) == len(LAYOUT.cols)
    for ea, eb in zip(a, b):
        np.testing.assert_array_equal(ea, eb)


@pytest.mark.parametrize("flatten", [True, False])
def test_spark_and_numpy_assign_every_row_the_same_cell(spark, li_pdf, flatten):
    """Learned from the whole table, Spark's ``__flood_cell`` of every row
    equals the cell ``FloodIndex`` puts it in: both use one edge primitive."""
    lay = Layout(order=[3, 2, 0, 1], cols=[6, 6, 4], flatten=flatten)
    sfl = learn_boundaries(spark.createDataFrame(li_pdf), lay, DIM_COLS,
                           sample_rows=2 * len(li_pdf))
    got = (apply_flood_layout(spark.createDataFrame(li_pdf), sfl, num_partitions=4)
           .select(*DIM_COLS, CELL_COL).toPandas())
    assert len(got) == len(li_pdf)
    idx = FloodIndex(layout=lay).build(li_pdf[DIM_COLS].to_numpy(dtype=np.float64))
    want = idx._cell_ids(got[DIM_COLS].to_numpy(dtype=np.float64))
    np.testing.assert_array_equal(got[CELL_COL].to_numpy(), want)


def test_one_dimensional_layout_is_one_cell(spark):
    """A layout of only a sort dim has no grid dim, so its one cell holds
    every row and the UDF, which has no column to read, is not called."""
    pdf = pd.DataFrame({"a": np.r_[np.arange(50.0), np.nan]})
    df = spark.createDataFrame(pdf)
    sfl = learn_boundaries(df, Layout(order=[0], cols=[]), ["a"])
    laid = apply_flood_layout(df, sfl, num_partitions=2)
    assert laid.select(CELL_COL).distinct().collect() == [(0,)]
    r = scan_counts(laid, sfl, {"a": (10.0, 19.5)})
    assert (r["n_rows"], r["n_scanned"], r["n_matched"]) == (51, 51, 10)


def test_empty_table_is_laid_out(spark, li_pdf):
    """A table with no rows learns ``c − 1`` zero edges per grid dim,
    which place no row: its layout scans nothing and matches DuckDB."""
    pdf = li_pdf.iloc[:0]
    df = spark.createDataFrame(li_pdf).limit(0)
    sfl = learn_boundaries(df, Layout(order=[0, 1, 2], cols=[4, 2]), DIM_COLS[:3])
    for edges, c in zip(sfl.grid.edges, (4, 2)):
        np.testing.assert_array_equal(edges, np.zeros(c - 1))
    laid = apply_flood_layout(df, sfl, num_partitions=2)
    for bounds in ({}, {"l_orderkey": (100.0, 900.0)}, {"l_discount": (0.05, 0.05)}):
        r = scan_counts(laid, sfl, bounds)
        assert (r["n_rows"], r["n_scanned"], r["n_matched"]) == (0, 0, 0), bounds
        got = flood_scan(laid, sfl, bounds).agg(F.count("*").alias("cnt"))
        where = _sql_where(bounds) if bounds else "true"
        assert_equivalent(got, f"SELECT count(*) AS cnt FROM lineitem WHERE {where}",
                          lineitem=pdf)


#: unpickles a cell-id function and its input Series from stdin, with any
#: import of ``repro`` failing, and pickles its output and whether
#: ``repro`` got imported to stdout
_WORKER = """
import pickle, sys

class NoRepro:
    def find_spec(self, name, path=None, target=None):
        if name == "repro" or name.startswith("repro."):
            raise ImportError("repro is not importable here")

sys.meta_path.insert(0, NoRepro())
fn, series = pickle.load(sys.stdin.buffer)
out = fn(*series)
pickle.dump((out, "repro" in sys.modules), sys.stdout.buffer)
"""


@pytest.mark.parametrize("flatten", [True, False])
def test_cell_id_function_runs_where_repro_does_not_import(li_pdf, tmp_path, flatten):
    """Spark's Python workers get the cell-id UDF pickled and may not find
    ``repro``: the function, unpickled in a process that cannot import it,
    still gives every row the cell ``Grid.cell_ids`` gives it."""
    from pyspark import cloudpickle

    lay = Layout(order=[3, 2, 0, 1], cols=[6, 6, 4], flatten=flatten)
    data = li_pdf[DIM_COLS].to_numpy(dtype=np.float64, copy=True)
    data[::97, 3] = np.nan
    grid = FloodIndex(layout=lay).build(data).grid
    fn = cell_id_function(grid.edges, grid.strides)
    series = [pd.Series(data[:, dim]) for dim in lay.grid_dims]
    env = {"PATH": "/usr/bin:/bin", "HOME": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-c", _WORKER], cwd=tmp_path, env=env,
                          input=cloudpickle.dumps((fn, series)), capture_output=True,
                          check=True)
    out, imported_repro = pickle.loads(proc.stdout)
    assert not imported_repro
    np.testing.assert_array_equal(out.to_numpy(), grid.cell_ids(data))


def test_spark_flood_layout_job_runs(spark, capsys):
    """Smoke test of ``jobs/spark_flood_layout.py``: it learns a layout,
    lays the table out and counts every query correctly."""
    path = Path(__file__).resolve().parents[1] / "jobs" / "spark_flood_layout.py"
    spec = importlib.util.spec_from_file_location("spark_flood_layout", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    counts = job.run(spark, sf=0.002, partitions=4)
    pdf = synth_data.lineitem_pdf(sf=0.002)
    assert len(counts) == len(job.QUERIES)
    for bounds, c in zip(job.QUERIES, counts):
        m = np.ones(len(pdf), dtype=bool)
        for col, (lo, hi) in bounds.items():
            m &= pdf[col].between(lo, hi).to_numpy()
        assert c["n_rows"] == len(pdf)
        assert c["n_matched"] == m.sum() <= c["n_scanned"]
    assert "learned layout" in capsys.readouterr().out
