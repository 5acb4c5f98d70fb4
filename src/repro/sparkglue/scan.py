"""Query execution over the Flood-partitioned DataFrame.

Two executors:

* :func:`flood_scan` — pure Catalyst: the projection's cell-id runs
  become a range-predicate disjunction on the clustered ``__flood_cell``
  column (data skipping over the clustered layout), ANDed with the
  residual per-dimension predicates. Correctness is oracle-checked
  against DuckDB in tests.
* :func:`distributed_breakdown` — ``mapInPandas`` running Flood's
  per-cell scan inside each partition (cells never span partitions by
  construction of repartitionByRange... they may, at range boundaries,
  but each row is counted exactly once since partitions are disjoint).
  Returns (scanned, matched) per partition — §8's "different cells can be
  refined and scanned simultaneously" parallelism, and the distributed
  scan-overhead measurement.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, functions as F

from repro.sparkglue.layout import CELL_COL, SparkFloodLayout, cell_runs_for_query


def _runs_predicate(runs: list[tuple[int, int]]) -> Column:
    """Rows whose cell lies in one of the runs; no runs keep no row."""
    pred = None
    for lo, hi in runs:
        c = F.col(CELL_COL).between(int(lo), int(hi))
        pred = c if pred is None else (pred | c)
    return pred if pred is not None else F.lit(False)


def _residual_predicate(bounds: dict[str, tuple[float, float]]) -> Column:
    pred = F.lit(True)
    for name, (lo, hi) in bounds.items():
        if np.isfinite(lo):
            pred = pred & (F.col(name) >= float(lo))
        if np.isfinite(hi):
            pred = pred & (F.col(name) <= float(hi))
    return pred


def flood_scan(laid: DataFrame, sfl: SparkFloodLayout,
               bounds: dict[str, tuple[float, float]]) -> DataFrame:
    """Rows matching the query, reached through cell-run data skipping."""
    runs = cell_runs_for_query(sfl, bounds)
    return laid.filter(_runs_predicate(runs)).filter(_residual_predicate(bounds))


def skipped_fraction(laid: DataFrame, sfl: SparkFloodLayout,
                     bounds: dict[str, tuple[float, float]]) -> float:
    """Fraction of rows excluded by the cell-run predicate alone — the
    data-skipping effectiveness of the learned layout (scan-overhead
    complement, before residual filters)."""
    total = laid.count()
    runs = cell_runs_for_query(sfl, bounds)
    kept = laid.filter(_runs_predicate(runs)).count()
    return 1.0 - kept / max(total, 1)


def distributed_breakdown(laid: DataFrame, sfl: SparkFloodLayout,
                          bounds: dict[str, tuple[float, float]]) -> dict:
    """Per-partition Flood scan via mapInPandas: each worker projects the
    query onto its partition's cells, applies residual filters, and emits
    (scanned, matched); the driver sums. SO here equals the single-node
    harness's SO for the same layout modulo boundary-column membership."""
    runs = cell_runs_for_query(sfl, bounds)
    runs_arr = np.asarray(runs, dtype=np.int64)
    fcols = list(bounds.keys())
    franges = np.asarray([bounds[c] for c in fcols], dtype=np.float64)

    def part(batches):
        scanned = 0
        matched = 0
        for pdf in batches:
            cells = pdf[CELL_COL].to_numpy(dtype=np.int64)
            in_run = np.zeros(cells.size, dtype=bool)
            for lo, hi in runs_arr:
                in_run |= (cells >= lo) & (cells <= hi)
            scanned += int(in_run.sum())
            if in_run.any():
                sub = pdf.loc[in_run]
                m = np.ones(int(in_run.sum()), dtype=bool)
                for name, (lo, hi) in zip(fcols, franges):
                    col = sub[name].to_numpy(dtype=np.float64)
                    m &= (col >= lo) & (col <= hi)
                matched += int(m.sum())
        yield pd.DataFrame({"scanned": [scanned], "matched": [matched]})

    out = laid.mapInPandas(part, schema="scanned long, matched long")
    agg = out.agg(
        F.sum("scanned").alias("scanned"), F.sum("matched").alias("matched")
    ).collect()[0]
    scanned = int(agg["scanned"] or 0)
    matched = int(agg["matched"] or 0)
    return {
        "n_scanned": scanned,
        "n_matched": matched,
        "scan_overhead": scanned / max(1, matched),
    }
