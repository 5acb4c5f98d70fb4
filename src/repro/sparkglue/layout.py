"""Flood's learned layout as a Spark partitioning/sort scheme.

This is the distributed realization of §3.1 (per the reproduction band:
"a custom partitioning/sort scheme applied per-partition then scanned via
DataFrame filters with data skipping"):

1. :func:`learn_boundaries` — a :class:`repro.indexes.flood.Grid` whose
   column edges (:func:`repro.indexes.flood.column_edges`) are learned
   from a sample, so a full sample puts every row in the cell
   ``FloodIndex`` gives it.
2. :func:`apply_flood_layout` — a pandas UDF assigns each row its cell id
   (``Grid.cell_ids``, inlined over the grid's edges and strides), then
   ``repartitionByRange(cell_id)`` +
   ``sortWithinPartitions(cell_id, sort_dim)`` materializes exactly
   Flood's storage order: cells contiguous, sort-dim ordered within.
3. :func:`project_bounds` — Flood's own projection of a query onto the
   grid, which ``repro.sparkglue.scan`` turns into a cell-id predicate.

The resulting DataFrame is clustered on ``cell_id``; range predicates on
it are pushed into the in-memory columnar scan where batch-level min/max
stats skip non-matching batches (Spark's cached-relation pruning), the
DataFrame analogue of Flood's cell table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType

from repro.core.query import query_from_dict
from repro.indexes.flood import Grid, Layout, column_edges

CELL_COL = "__flood_cell"


@dataclass
class SparkFloodLayout:
    """A learned grid + the column names its dims index."""

    grid: Grid
    dim_cols: list[str]                    # dataframe column per dim index

    @property
    def sort_col(self) -> str:
        return self.dim_cols[self.grid.layout.sort_dim]


def learn_boundaries(df: DataFrame, layout: Layout, dim_cols: list[str],
                     sample_rows: int = 50_000) -> SparkFloodLayout:
    """Equi-mass (flattened) or equal-width column boundaries per grid dim.

    They are learned from every row when there are at most ``sample_rows``;
    otherwise from the about ``sample_rows`` rows whose hash of the dim
    columns, modulo the row count, is below ``sample_rows``. Either way the
    sample depends only on the rows, so every call learns the same edges.
    """
    n = df.count()
    rows = df.select(*dim_cols)
    if n > sample_rows:
        rows = rows.where(F.pmod(F.xxhash64(*dim_cols), F.lit(n)) < sample_rows)
    sample = rows.toPandas()
    edges = [column_edges(sample[dim_cols[dim]].to_numpy(dtype=np.float64), c, layout.flatten)
             for dim, c in zip(layout.grid_dims, layout.cols)]
    # Spark claims no cell exact, so every grid dim counts as holding NaN
    grid = Grid(layout, edges, [False] * len(edges))
    return SparkFloodLayout(grid=grid, dim_cols=dim_cols)


def cell_id_function(edges: list[np.ndarray], strides: list[int]):
    """``Grid.cell_ids`` over one pandas Series per grid dim, in layout
    order: a closure over plain arrays and ints that imports nothing from
    ``repro``, since Spark's Python workers may not find it."""

    def cell_ids(*series: pd.Series) -> pd.Series:
        ids = np.zeros(len(series[0]), dtype=np.int64)
        for s, e, stride in zip(series, edges, strides):
            ids += np.searchsorted(e, s.to_numpy(dtype=np.float64), side="right") * stride
        return pd.Series(ids)

    return cell_ids


def cell_id_expr(sfl: SparkFloodLayout):
    """Pandas UDF computing each row's mixed-radix cell id."""
    from pyspark.sql.functions import pandas_udf

    grid = sfl.grid
    if not grid.strides:  # no grid dim: every row is in cell 0
        return F.lit(0).cast(LongType())
    cell_ids = pandas_udf(cell_id_function(grid.edges, grid.strides), LongType())
    return cell_ids(*[F.col(sfl.dim_cols[dm]) for dm in grid.layout.grid_dims])


def apply_flood_layout(df: DataFrame, sfl: SparkFloodLayout,
                       num_partitions: int | None = None) -> DataFrame:
    """Materialize Flood's storage order as a Spark DataFrame.

    Rows gain ``__flood_cell``; partitions hold contiguous cell-id ranges
    (repartitionByRange) and rows within each partition are sorted by
    (cell id, sort dim) — Fig 2's serialization order, distributed.
    """
    with_cell = df.withColumn(CELL_COL, cell_id_expr(sfl))
    parted = (
        with_cell.repartitionByRange(num_partitions, CELL_COL)
        if num_partitions
        else with_cell.repartitionByRange(CELL_COL)
    )
    return parted.sortWithinPartitions(CELL_COL, sfl.sort_col)


def project_bounds(sfl: SparkFloodLayout, bounds: dict[str, tuple[float, float]]):
    """Flood's projection (:meth:`repro.indexes.flood.Grid.project`,
    §3.2.1) of a query given as column name -> range; names outside the
    layout are left to the residual filter."""
    dim_of = {name: dim for dim, name in enumerate(sfl.dim_cols)}
    q = query_from_dict(len(sfl.dim_cols),
                        {dim_of[c]: b for c, b in bounds.items() if c in dim_of})
    return sfl.grid.project(q)


def cell_runs_for_query(sfl: SparkFloodLayout,
                        bounds: dict[str, tuple[float, float]]) -> list[tuple[int, int]]:
    """Contiguous [lo, hi] runs of the cell ids the query visits; an empty
    (inverted or NaN) range visits no cell, so it gives no runs."""
    cells = project_bounds(sfl, bounds)[0]  # ascending
    if not cells.size:
        return []
    cut = np.flatnonzero(np.diff(cells) != 1) + 1
    starts, ends = cells[np.r_[0, cut]], cells[np.r_[cut - 1, cells.size - 1]]
    return list(zip(starts.tolist(), ends.tolist()))
