"""Flood's learned layout as a Spark partitioning/sort scheme.

This is the distributed realization of §3.1 (per the reproduction band:
"a custom partitioning/sort scheme applied per-partition then scanned via
DataFrame filters with data skipping"):

1. :func:`learn_boundaries` — per grid dimension, the column edges of
   :func:`repro.indexes.flood.column_edges` learned from a sample, so a
   full sample puts every row in the cell ``FloodIndex`` gives it.
2. :func:`apply_flood_layout` — a pandas UDF assigns each row its cell id
   (``column_of`` against the broadcast boundaries, mixed-radix over
   grid dims), then ``repartitionByRange(cell_id)`` +
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

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType

from repro.core.query import query_from_dict
from repro.indexes.flood import Layout, column_edges, edge_list, project

CELL_COL = "__flood_cell"


@dataclass
class SparkFloodLayout:
    """Layout + learned boundaries + the column names they index."""

    layout: Layout
    dim_cols: list[str]                    # dataframe column per dim index
    boundaries: dict[int, np.ndarray]      # grid dim -> ascending thresholds
    edge_lists: list[list[float]] = field(init=False)  # per grid dim, for project

    def __post_init__(self) -> None:
        self.edge_lists = [edge_list(self.boundaries[d]) for d in self.layout.grid_dims]

    @property
    def sort_col(self) -> str:
        return self.dim_cols[self.layout.sort_dim]


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
    boundaries: dict[int, np.ndarray] = {}
    for dim, c in zip(layout.grid_dims, layout.cols):
        col = sample[dim_cols[dim]].to_numpy(dtype=np.float64)
        boundaries[dim] = column_edges(col, c, layout.flatten)
    return SparkFloodLayout(layout=layout, dim_cols=dim_cols, boundaries=boundaries)


def cell_id_expr(sfl: SparkFloodLayout):
    """Pandas UDF computing each row's mixed-radix cell id."""
    from pyspark.sql.functions import pandas_udf

    layout, boundaries = sfl.layout, sfl.boundaries
    grid_dims, cols = list(layout.grid_dims), list(layout.cols)
    bounds = [boundaries[dm] for dm in grid_dims]

    @pandas_udf(LongType())
    def _cell(*series: pd.Series) -> pd.Series:
        ids = np.zeros(len(series[0]), dtype=np.int64)
        stride = 1
        for s, b, c in zip(reversed(series), reversed(bounds), reversed(cols)):
            # column_of, inlined: Python workers need not import repro
            ids += np.searchsorted(b, s.to_numpy(dtype=np.float64), side="right") * stride
            stride *= c
        return pd.Series(ids)

    return _cell(*[F.col(sfl.dim_cols[dm]) for dm in grid_dims])


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
    """Flood's projection (:func:`repro.indexes.flood.project`, §3.2.1) of
    a query given as column name -> range; names outside the layout are
    left to the residual filter. Spark claims no cell exact, so every grid
    dim counts as holding NaN."""
    dim_of = {name: dim for dim, name in enumerate(sfl.dim_cols)}
    q = query_from_dict(len(sfl.dim_cols),
                        {dim_of[c]: b for c, b in bounds.items() if c in dim_of})
    return project(sfl.layout, sfl.edge_lists, [False] * len(sfl.edge_lists), q)


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
