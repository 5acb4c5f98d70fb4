"""The spark-osm workload: Flood's recorded osm layout through ``sparkglue``.

One run: set up ``SETUPS`` times (inputs, fixed cost model,
DataFrame, learned boundaries, laid-out and cached DataFrame; the first
set-up also starts the Spark session), learn once, one warm-up pass that
checks every count, then a closed loop of ``flood_scan(...).count()``
queries for the requested seconds. Spark runs in local mode, in this
process's JVM child, with its scratch space under ``perfbench/out/``.
"""
from __future__ import annotations

import contextlib
import os
import resource
import statistics
import tempfile
import time
import traceback

import numpy as np

from common import OUT_DIR, fixed_cost_model, inputs, layout_to_dict, load_json, recorded_layout
from floodbench import SETUPS, Report, percentile

PARTITIONS = 8


def master() -> str:
    return f"local[{min(2, len(os.sched_getaffinity(0)))}]"


def start_session():
    """A local Spark session whose files all stay under ``perfbench/out``."""
    tmp = OUT_DIR / "spark-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master {master()} --driver-memory 1g pyspark-shell"
    from pyspark.sql import SparkSession

    spark = (SparkSession.builder.master(master()).appName("perfbench")
             .config("spark.ui.enabled", "false")
             .config("spark.ui.showConsoleProgress", "false")
             .config("spark.driver.host", "127.0.0.1")
             .config("spark.local.dir", str(tmp))
             .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
             .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
             .config("spark.sql.shuffle.partitions", str(PARTITIONS))
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def bounds_of(q, dims) -> dict[str, tuple[float, float]]:
    return {dims[d]: (float(q.ranges[d, 0]), float(q.ranges[d, 1])) for d in q.filtered_dims}


def run(workload: str, seed: int, seconds: float, tracer=None) -> Report:
    import pandas as pd
    from repro.core import optimizer
    from repro.sparkglue import layout as sl
    from repro.sparkglue import scan as ss

    phase = tracer.phase if tracer else (lambda name: contextlib.nullcontext())
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        tracer.install()
    rep = Report(env={"spark_master": master()},
                 notes={"answer_check": "each count equals the Query.mask count"})
    layout = recorded_layout(workload)
    spark = laid = None
    setups, layouts = [], []
    try:
        for _ in range(SETUPS):
            if laid is not None:
                laid.unpersist(blocking=True)
            with phase("setup"):
                t0 = time.perf_counter()
                data, dims, train, test = inputs(workload, seed)
                cm = fixed_cost_model()
                if spark is None:
                    spark = start_session()
                    rep.notes["spark_session_start_s"] = time.perf_counter() - t0
                df = spark.createDataFrame(pd.DataFrame(data, columns=dims))
                t1 = time.perf_counter()
                sfl = sl.learn_boundaries(df, layout, dims)
                with span("sparkglue.materialize"):
                    laid = sl.apply_flood_layout(df, sfl, num_partitions=PARTITIONS).cache()
                    laid.count()
                t2 = time.perf_counter()
            setups.append(t2 - t0)
            layouts.append(t2 - t1)

        with phase("learn"):
            t0 = time.perf_counter()
            learned = optimizer.optimize_layout(data, train, cm, seed=0).layout
            learn_s = time.perf_counter() - t0
        recorded = load_json("layouts.json")["workloads"][workload]
        rep.notes.update(layout=recorded["layout"], learned_layout=layout_to_dict(learned))
        rep.notes["layout_reproduced"] = rep.notes["learned_layout"] == recorded["layout"]

        # brute-force counts, and the rows each query's cell runs keep, read
        # from the cell ids Spark assigned
        expected = [int(q.mask(data).sum()) for q in test]
        bounds = [bounds_of(q, dims) for q in test]
        cells = np.sort(laid.select(sl.CELL_COL).toPandas()[sl.CELL_COL].to_numpy())
        kept_rows, n_runs = [], []
        for b in bounds:
            runs = np.asarray(sl.cell_runs_for_query(sfl, b))
            lo = np.searchsorted(cells, runs[:, 0], "left")
            hi = np.searchsorted(cells, runs[:, 1], "right")
            kept_rows.append(int((hi - lo).sum()))
            n_runs.append(len(runs))
        so = sum(kept_rows) / max(1, sum(expected))

        def query(i: int) -> int | None:
            try:
                return ss.flood_scan(laid, sfl, bounds[i]).count()
            except Exception:
                traceback.print_exc()
                return None

        with phase("warmup"):
            for i in range(len(test)):
                rep.count(1, query(i) != expected[i])

        lat: list[int] = []
        plain: list[int] = []
        i = 0
        wall = 0
        with phase("query"):
            while wall < seconds * 1e9:
                traced = tracer is not None and i % 2 == 1
                if tracer is not None:
                    (tracer.install if traced else tracer.uninstall)()
                qi = i % len(test)
                t0 = time.perf_counter_ns()
                got = query(qi)
                dt = time.perf_counter_ns() - t0
                wall += dt
                rep.count(1, got != expected[qi])
                (lat if traced or tracer is None else plain).append(dt)
                i += 1
        if tracer is not None:
            tracer.uninstall()
    finally:
        if spark is not None:
            stop_session(spark)
    rep.notes["timed_queries"] = len(lat) + len(plain)

    if tracer is None:
        rep.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "learn_s": (learn_s, "s"),
            "spark_layout_s": (statistics.median(layouts), "s"),
            "spark_query_p50_ms": (percentile(lat, 50) / 1e6, "ms"),
            "spark_query_p90_ms": (percentile(lat, 90) / 1e6, "ms"),
            "scan_overhead": (so, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        return rep
    import tracing

    n = len(data)
    rep.metrics = tracing.spark_metrics(tracer.spans)
    rep.metrics["sparkglue.runs_per_query"] = (float(np.median(n_runs)), "count")
    rep.metrics["sparkglue.skipped_fraction"] = (
        float(np.median([1 - k / n for k in kept_rows])), "fraction")
    rep.metrics["trace.query_p50_us"] = (percentile(lat, 50) / 1e3, "us")
    rep.metrics["trace.overhead_us"] = (
        (percentile(lat, 50) - percentile(plain, 50)) / 1e3, "us")
    return rep
