"""spark-submit entrypoint: Flood's learned layout + data-skipping scan on Spark.

Builds the TPC-H-lite lineitem at a scale factor, learns a Flood layout
for it and a few range queries (Algorithm 1 with the calibrated cost
model), applies the layout as a repartitionByRange + sortWithinPartitions
scheme, and prints each query's counts through the cell-skipping scan:
rows, rows in the visited cells, matches, skipped fraction and scan
overhead.

Usage: ``spark-submit jobs/spark_flood_layout.py [--sf 0.01] [--partitions 16]``
"""
import argparse

import numpy as np
from pyspark.sql import SparkSession

from repro import synth_data
from repro.core.optimizer import optimize_layout
from repro.core.query import query_from_dict
from repro.harness.bench import default_cost_model
from repro.sparkglue.layout import apply_flood_layout, learn_boundaries
from repro.sparkglue.scan import scan_counts

DIM_COLS = ["l_orderkey", "l_quantity", "l_discount", "l_extendedprice"]
QUERIES = [
    {"l_orderkey": (100.0, 2000.0)},
    {"l_quantity": (10.0, 15.0), "l_discount": (0.02, 0.04)},
    {"l_orderkey": (500.0, 1500.0), "l_extendedprice": (1000.0, 20000.0)},
]


def run(spark: SparkSession, sf: float, partitions: int) -> list[dict]:
    """Learn, lay out and query; returns each query's ``scan_counts``.
    The session stays open."""
    pdf = synth_data.lineitem_pdf(sf=sf)
    data = pdf[DIM_COLS].to_numpy(dtype=np.float64)
    workload = [query_from_dict(len(DIM_COLS), {DIM_COLS.index(c): b for c, b in q.items()})
                for q in QUERIES]
    layout = optimize_layout(data, workload, default_cost_model()).layout
    print(f"learned layout: order={[DIM_COLS[d] for d in layout.order]} cols={layout.cols}")
    df = spark.createDataFrame(pdf)
    sfl = learn_boundaries(df, layout, DIM_COLS)
    laid = apply_flood_layout(df, sfl, num_partitions=partitions).cache()
    print(f"laid out {laid.count()} rows over {laid.rdd.getNumPartitions()} partitions")
    out = []
    for bounds in QUERIES:
        c = scan_counts(laid, sfl, bounds)
        print(f"query {bounds}")
        print(f"  rows={c['n_rows']} scanned={c['n_scanned']} matched={c['n_matched']} "
              f"skipped_frac={c['skipped_fraction']:.3f} SO={c['scan_overhead']:.2f}")
        out.append(c)
    laid.unpersist()
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--partitions", type=int, default=16)
    args = ap.parse_args()
    spark = SparkSession.builder.appName("flood-layout").getOrCreate()
    run(spark, args.sf, args.partitions)
    spark.stop()


if __name__ == "__main__":
    main()
