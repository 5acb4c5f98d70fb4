"""Query execution over the Flood-partitioned DataFrame.

* :func:`flood_scan` — pure Catalyst: Flood's projection of the query
  becomes a fixed-size predicate on the clustered ``__flood_cell`` column
  (data skipping over the clustered layout), ANDed with the residual
  per-dimension predicates. Correctness is oracle-checked against DuckDB
  in tests.
* :func:`scan_counts` — one aggregation counting the rows, the rows the
  cell predicate keeps and the rows the query matches: the layout's
  skipped fraction and scan overhead.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column, DataFrame, functions as F

# cell_runs_for_query stays importable here: perfbench's spark tracer wraps it by name
from repro.sparkglue.layout import (CELL_COL, SparkFloodLayout, cell_runs_for_query,
                                    project_bounds)


def _cell_predicate(sfl: SparkFloodLayout, bounds: dict[str, tuple[float, float]]) -> Column:
    """Rows in the cells the query visits, in O(d) terms however many
    cell runs there are: the cell id lies between the first and the last
    visited cell (the part batch min/max statistics can skip on), and in
    every grid dim whose column range is narrower than its ``c`` columns,
    the cell's column ``(cell div stride) % c`` lies in that range."""
    cells, col_ranges, _ = project_bounds(sfl, bounds)
    if not cells.size:
        return F.lit(False)
    pred = F.col(CELL_COL).between(int(cells[0]), int(cells[-1]))
    stride = 1
    for (clo, chi), c in zip(reversed(col_ranges), reversed(sfl.layout.cols)):
        if chi - clo + 1 < c:
            pred = pred & F.expr(f"({CELL_COL} div {stride}) % {c}").between(clo, chi)
        stride *= c
    return pred


def _residual_predicate(bounds: dict[str, tuple[float, float]]) -> Column:
    """Rows within every range. As in ``Query``, only (-inf, +inf) filters
    nothing and an empty (inverted or NaN) range matches no row."""
    pred = F.lit(True)
    for name, (lo, hi) in bounds.items():
        if not lo <= hi:
            return F.lit(False)
        if not (lo == -np.inf and hi == np.inf):
            pred = pred & F.col(name).between(float(lo), float(hi))
    return pred


def flood_scan(laid: DataFrame, sfl: SparkFloodLayout,
               bounds: dict[str, tuple[float, float]]) -> DataFrame:
    """Rows matching the query, reached through cell-id data skipping."""
    return laid.filter(_cell_predicate(sfl, bounds)).filter(_residual_predicate(bounds))


def scan_counts(laid: DataFrame, sfl: SparkFloodLayout,
                bounds: dict[str, tuple[float, float]]) -> dict:
    """One pass over the layout: ``n_rows``, ``n_scanned`` (rows in the
    visited cells) and ``n_matched``, plus ``skipped_fraction`` (the rows
    the layout lets the scan skip, not what Spark's batch statistics
    skipped) and ``scan_overhead`` = scanned / matched."""
    cell = _cell_predicate(sfl, bounds)
    row = laid.agg(F.count("*"), F.count_if(cell),
                   F.count_if(cell & _residual_predicate(bounds))).first()
    n, scanned, matched = (int(x) for x in row)
    return {
        "n_rows": n,
        "n_scanned": scanned,
        "n_matched": matched,
        "skipped_fraction": 1.0 - scanned / max(n, 1),
        "scan_overhead": scanned / max(1, matched),
    }
