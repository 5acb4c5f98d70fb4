"""Flood workloads (tpch-scan, sales-lookup).

Every answer is checked against brute force outside the timed region.
"""
from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from common import fixed_cost_model, inputs, layout_to_dict, load_json, recorded_layout

#: a SUM answer may differ from ``math.fsum`` over the matching rows by at
#: most this share of the fsum of their absolute values
SUM_REL_TOL = 1e-9
SETUPS = 3
SLICES = 3
CLUSTERED_QUERIES = 200
#: how often the closed loop moves to the core that is least slowed now
REPIN_NS = 500_000_000


@dataclass
class Expected:
    count: int
    total: float       # the COUNT, or the fsum of the aggregated column
    abs_total: float   # fsum of |aggregated column|: the SUM tolerance base
    is_sum: bool


def oracle(data: np.ndarray, queries) -> list[Expected]:
    """Brute-force answers from ``Query.mask``, independent of any index.

    Each query's mask is taken over the rows that pass its narrowest
    single-dimension range, found by binary search in a sorted copy of
    that column; every other row fails that range, so fails the mask too.
    """
    n, d = data.shape
    # pick each query's narrowest filtered dimension, one column at a time
    narrowest = [(n + 1, -1)] * len(queries)
    for dim in range(d):
        col = np.sort(data[:, dim])
        for i, q in enumerate(queries):
            if dim in q.filtered_dims:
                lo, hi = q.ranges[dim]
                width = int(np.searchsorted(col, hi, "right") - np.searchsorted(col, lo, "left"))
                narrowest[i] = min(narrowest[i], (width, dim))
    out: list[Expected | None] = [None] * len(queries)
    for dim in range(-1, d):
        todo = [i for i, (_, best) in enumerate(narrowest) if best == dim]
        if not todo:
            continue
        by_dim = data if dim < 0 else data[np.argsort(data[:, dim])]
        col = by_dim[:, dim]
        for i in todo:
            q = queries[i]
            rows = by_dim
            if dim >= 0:
                lo, hi = q.ranges[dim]
                rows = by_dim[np.searchsorted(col, lo, "left"):
                              np.searchsorted(col, hi, "right")]
            m = q.mask(rows)
            count = int(m.sum())
            if q.agg == "sum":
                vals = rows[m, q.agg_dim]
                out[i] = Expected(count, math.fsum(vals), math.fsum(np.abs(vals)), True)
            else:
                out[i] = Expected(count, float(count), float(count), False)
    return out


def answer_ok(exp: Expected, value: float, n_matched: int) -> bool:
    if n_matched != exp.count:
        return False
    if exp.is_sum:
        return abs(value - exp.total) <= SUM_REL_TOL * exp.abs_total
    return value == exp.total


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    scanned: int = 0
    matched: int = 0
    exact: int = 0
    max_sum_rel_err: float = 0.0

    @property
    def scan_overhead(self) -> float:
        return self.scanned / max(1, self.matched)

    @property
    def exact_frac(self) -> float:
        return self.exact / max(1, self.scanned)


def answer_pass(index, queries, expected) -> PassResult:
    """Run every query once and check it; the warm-up pass of a run."""
    res = PassResult()
    for q, exp in zip(queries, expected):
        res.attempted += 1
        try:
            r = index.query(q)
        except Exception:
            traceback.print_exc()
            res.failed += 1
            continue
        res.scanned += r.n_scanned
        res.matched += r.n_matched
        res.exact += r.n_exact
        if exp.is_sum and exp.abs_total:
            err = abs(r.value - exp.total) / exp.abs_total
            res.max_sum_rel_err = max(res.max_sum_rel_err, err)
        res.failed += not answer_ok(exp, r.value, r.n_matched)
    return res


class ClosedLoop:
    """One client sends each query after the previous answer returns.

    Each ``run(seconds)`` cycles through ``queries`` for ``seconds`` of
    wall time, from where the previous call stopped, with the cycle
    collector off, and checks the answers after the clock stops. Every
    query keeps its best latency over the times it was sent: on a shared
    machine a query is slowed by whatever else runs then, and its best
    time is the one least disturbed. With a tracer, every other query is
    traced (odd ones on even passes, even ones on odd passes), so traced
    and untraced latencies come from one window; the tracer is switched
    off the clock. Every ``REPIN_NS`` the loop moves, between two
    queries, to the core that is least slowed at that moment.
    """

    def __init__(self, index, queries, expected, tracer=None):
        self.index, self.queries, self.expected, self.tracer = index, queries, expected, tracer
        n = len(queries)
        self.best_ns = [math.inf] * n         # untraced, per query
        self.traced_best_ns = [math.inf] * n  # traced, per query
        self.sent = 0         # untraced queries timed
        self.wall_ns = 0      # wall time of the untraced and traced queries
        self.attempted = 0
        self.failed = 0
        self.kept: list = []  # results of the traced queries
        self._k = 0           # queries sent so far: the position in the cycle

    def run(self, seconds: float) -> None:
        queries, tracer, n = self.queries, self.tracer, len(self.queries)
        best, traced_best = self.best_ns, self.traced_best_ns
        answers: list[tuple[int, float, int]] = []
        errors = 0
        clock = time.perf_counter_ns
        k = self._k
        cpus = sorted(os.sched_getaffinity(0))
        repin_at = 0
        gc.collect()
        gc.disable()
        try:
            start = clock()
            while clock() - start < seconds * 1e9:
                if len(cpus) > 1 and clock() >= repin_at:
                    pin_to_fastest(cpus)
                    repin_at = clock() + REPIN_NS
                qi = k % n
                traced = tracer is not None and (k // n + qi) % 2 == 1
                if tracer is not None:
                    (tracer.install if traced else tracer.uninstall)()
                k += 1
                t0 = clock()
                try:
                    r = self.index.query(queries[qi])
                except Exception:
                    traceback.print_exc()
                    errors += 1
                    continue
                took = clock() - t0
                answers.append((qi, r.value, r.n_matched))
                if traced:
                    traced_best[qi] = min(traced_best[qi], took)
                    self.kept.append(r)
                else:
                    best[qi] = min(best[qi], took)
                    self.sent += 1
            self.wall_ns += clock() - start
        finally:
            gc.enable()
            os.sched_setaffinity(0, cpus)
        self._k = k
        self.attempted += len(answers) + errors
        self.failed += errors + sum(not answer_ok(self.expected[qi], v, m)
                                    for qi, v, m in answers)


def _probe_ns() -> int:
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(5000):
        acc += i * i
    return time.perf_counter_ns() - t0


def pin_to_fastest(cpus) -> None:
    """Move this process to the core of ``cpus`` that runs a short probe
    fastest. The cores of a shared host are slowed in turn, for seconds
    at a time, by whatever other tenants run beside them."""
    took = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        _probe_ns()
        took[cpu] = min(_probe_ns(), _probe_ns())
    os.sched_setaffinity(0, {min(took, key=took.get)})


def best_us(best_ns) -> np.ndarray:
    """Best latency in microseconds of each query that was timed."""
    got = np.asarray(best_ns, dtype=np.float64)
    return got[np.isfinite(got)] / 1e3


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


@dataclass
class Report:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run(workload: str, seed: int, seconds: float, tracer=None) -> Report:
    """Set up ``SETUPS`` times, each on the core least slowed at its
    start, and check every answer in a warm-up pass,
    then run ``SLICES`` slices of ``seconds / SLICES`` closed-loop queries.
    A traced run also calibrates and learns before each slice. Set-up
    times are medians over their repeats; latencies are each query's best
    over the whole run, so a slow spell of the shared machine does not
    set them."""
    from repro.core import optimizer
    from repro.harness import bench
    from repro.indexes.flood import FloodIndex

    phase = tracer.phase if tracer else (lambda name: contextlib.nullcontext())
    rep = Report(notes={"answer_check": (
        f"COUNT equals the Query.mask count; SUM is within {SUM_REL_TOL:g} x "
        "fsum(|x|) of math.fsum over the matching rows")})
    recorded = load_json("layouts.json")["workloads"][workload]
    layout = recorded_layout(workload)
    setups, loads, calibrations, learns, learned = [], [], [], [], []
    if tracer:
        tracer.install()

    idx = data = None
    cpus = sorted(os.sched_getaffinity(0))
    for _ in range(SETUPS):
        idx = data = None  # free the previous copy before making the next
        if len(cpus) > 1:
            pin_to_fastest(cpus)
        with phase("setup"):
            t0 = time.perf_counter()
            data, _, train, test = inputs(workload, seed)
            cm = fixed_cost_model()
            t1 = time.perf_counter()
            idx = FloodIndex(layout=layout).build(data, train)
            t2 = time.perf_counter()
        setups.append(t2 - t0)
        loads.append(t2 - t1)
    os.sched_setaffinity(0, cpus)
    expected = oracle(data, test)
    with phase("warmup"):
        first = answer_pass(idx, test, expected)
    rep.count(first.attempted, first.failed)
    rep.notes.update(layout=recorded["layout"], max_sum_rel_err=first.max_sum_rel_err)
    if seed == 0:
        rep.notes["scan_overhead_repeats"] = (
            first.scan_overhead == recorded["scan_overhead_seed0"])

    loop = ClosedLoop(idx, test, expected, tracer)
    for _ in range(SLICES):
        if tracer:
            tracer.install()
            with phase("calibrate"):
                t0 = time.perf_counter()
                bench.default_cost_model()
                calibrations.append(time.perf_counter() - t0)
            with phase("learn"):
                t0 = time.perf_counter()
                learned.append(layout_to_dict(
                    optimizer.optimize_layout(data, train, cm, seed=0).layout))
                learns.append(time.perf_counter() - t0)
        with phase("query"):
            loop.run(seconds / SLICES)
    rep.count(loop.attempted, loop.failed)
    if tracer:
        tracer.uninstall()
    rep.notes["repeats_s"] = {"setup": setups, "load": loads}

    lat = best_us(loop.best_ns)
    rep.notes["timed"] = {"queries": len(lat), "of": len(test), "sent": loop.sent,
                          "wall_qps": loop.attempted / (loop.wall_ns / 1e9)}
    if tracer is None:
        rep.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_p50_us": (percentile(lat, 50), "us"),
            "query_p99_us": (percentile(lat, 99), "us"),
            "throughput_qps": (len(lat) / (lat.sum() / 1e6), "1/s"),
            "scan_overhead": (first.scan_overhead, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        return rep

    import tracing

    rep.notes.update(learned_layout=learned[0],
                     layout_reproduced=all(x == recorded["layout"] for x in learned))
    rep.notes["repeats_s"].update(calibrate=calibrations, learn=learns)
    traced = best_us(loop.traced_best_ns)
    rep.metrics = {
        "calibrate_s": (statistics.median(calibrations), "s"),
        "learn_s": (statistics.median(learns), "s"),
        "load_s": (statistics.median(loads), "s"),
    }
    rep.metrics.update(tracing.flood_metrics(tracer, loop.kept))
    rep.metrics["columnstore.exact_frac"] = (first.exact_frac, "fraction")
    rep.metrics["flood.index_bytes"] = (idx.index_size_bytes(), "bytes")
    rep.metrics["trace.query_p50_us"] = (percentile(traced, 50), "us")
    rep.metrics["trace.overhead_us"] = (percentile(traced, 50) - percentile(lat, 50), "us")

    # the single-dimensional clustered index on the same rows and queries:
    # the bar Flood must beat (it scans whole columns when the query skips
    # its one dimension, so only the first CLUSTERED_QUERIES are timed)
    from repro.indexes.clustered import ClusteredIndex

    clustered = ClusteredIndex().build(data, train)
    sub, sub_exp = test[:CLUSTERED_QUERIES], expected[:CLUSTERED_QUERIES]
    c_first = answer_pass(clustered, sub, sub_exp)
    c_loop = ClosedLoop(clustered, sub, sub_exp)
    c_loop.run(seconds / SLICES)
    rep.count(c_first.attempted + c_loop.attempted, c_first.failed + c_loop.failed)
    rep.metrics["indexes.clustered.query_p50_us"] = (percentile(best_us(c_loop.best_ns), 50), "us")
    return rep
