"""Spans recorded around calls into the program's layers.

The tracer wraps public callables of each layer (and a few named steps
such as ``FloodIndex._cell_ids``) from outside, by replacing the class or
module attribute while installed. Each span is
``[name, start_ns, end_ns, parent, request, phase, count, ok]``: the
parent is the enclosing span, the request is the enclosing query span
(so every span of one query shares it), the phase is the enclosing
``phase.<step>`` span of the benchmark, and ``count`` is a per-call
count such as rows predicted. Indexes are positions in the span list.
Spans stay in memory and are written out at the end of the run.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._parent = -1
        self._request = -1
        self._phase = -1
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------
    def _enter(self, name: str, request: bool, count: int) -> list:
        i = len(self.spans)
        if request:
            self._request = i
        rec = [name, 0, 0, self._parent, self._request, self._phase, count, True]
        self.spans.append(rec)
        self._parent = i
        rec[1] = time.perf_counter_ns()
        return rec

    def _wrapper(self, fn, name: str, request: bool, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, req = tracer._parent, tracer._request
            rec = tracer._enter(name, request, count(*args, **kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[7] = False
                raise
            finally:
                rec[2] = time.perf_counter_ns()
                tracer._parent, tracer._request = parent, req

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        parent, req = self._parent, self._request
        rec = self._enter(name, False, 0)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._parent, self._request = parent, req

    @contextmanager
    def phase(self, name: str):
        """A benchmark step: a span ``phase.<name>`` that everything
        recorded inside it points to as its phase."""
        saved = self._phase
        try:
            with self.span("phase." + name):
                self._phase = self._parent
                yield
        finally:
            self._phase = saved

    # -- installing ----------------------------------------------------------
    def target(self, owner, attr: str, name: str, request: bool = False,
               count=None) -> None:
        self._targets.append((owner, attr, name, request, count))

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, request, count in self._targets:
            own = attr in vars(owner)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, self._wrapper(fn, name, request, count))

    def uninstall(self) -> None:
        for owner, attr, own, orig in reversed(self._saved):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._saved = []

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request", "phase", "count", "ok"],
                       "spans": self.spans}, f)


def flood_tracer() -> Tracer:
    """A tracer over every layer a Flood workload calls into."""
    from repro import datasets, workloads
    from repro.columnstore.store import ColumnStore
    from repro.core import optimizer
    from repro.core.cost_model import CostModel
    from repro.core.plm import PLM
    from repro.core.rmi import RMI
    from repro.indexes.flood import FloodIndex
    from repro.ml.random_forest import RandomForestRegressor

    t = Tracer()
    t.target(datasets, "load", "datasets.load")
    t.target(workloads, "make_workload", "workloads.make_workload")
    t.target(FloodIndex, "build", "flood.build")
    t.target(FloodIndex, "_cell_ids", "flood.cell_ids")
    t.target(FloodIndex, "query", "flood.query", request=True)
    t.target(RMI, "__init__", "rmi.fit")
    t.target(RMI, "cdf", "rmi.cdf")
    t.target(PLM, "__init__", "plm.fit")
    t.target(ColumnStore, "__init__", "columnstore.build")
    t.target(ColumnStore, "scan", "columnstore.scan")
    t.target(ColumnStore, "scan_gather", "columnstore.scan_gather")
    t.target(CostModel, "calibrate", "cost_model.calibrate")
    t.target(CostModel, "predict_time", "cost_model.predict")
    t.target(RandomForestRegressor, "fit", "random_forest.fit")
    t.target(RandomForestRegressor, "predict", "random_forest.predict",
             count=lambda self, X: int(np.atleast_2d(X).shape[0]))
    t.target(optimizer, "optimize_layout", "optimizer.optimize_layout")
    t.target(optimizer, "_flat_bounds", "optimizer.flat_bounds")
    return t


def spark_tracer() -> Tracer:
    """A tracer over the ``sparkglue`` functions the spark-osm workload calls."""
    from repro.core import optimizer
    from repro.sparkglue import layout, scan

    t = Tracer()
    t.target(layout, "learn_boundaries", "sparkglue.learn_boundaries")
    t.target(layout, "apply_flood_layout", "sparkglue.apply_flood_layout")
    t.target(scan, "flood_scan", "sparkglue.flood_scan", request=True)
    t.target(scan, "cell_runs_for_query", "sparkglue.cell_runs_for_query")
    t.target(optimizer, "optimize_layout", "optimizer.optimize_layout")
    return t


# -- per-layer metrics ------------------------------------------------------
def _dur(s) -> float:
    return (s[2] - s[1]) / 1e9


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _phases(spans, phase: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s[0] == "phase." + phase]


def _in(spans, phases: list[int], name: str) -> list[int]:
    """Indexes of the ``name`` spans inside any of ``phases``."""
    ps = set(phases)
    return [i for i, s in enumerate(spans) if s[5] in ps and s[0] == name]


def _per_phase(spans, phase: str, name: str, value=_dur) -> float:
    """Median over the ``phase`` steps of the summed ``value`` of the
    ``name`` spans in each step."""
    return _median([sum(value(spans[i]) for i in _in(spans, [p], name))
                    for p in _phases(spans, phase)])


class _Tree:
    def __init__(self, spans) -> None:
        self.spans = spans
        self.kids: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            self.kids.setdefault(s[3], []).append(i)

    def child_time(self, i: int, name: str | None = None) -> float:
        return sum(_dur(self.spans[c]) for c in self.kids.get(i, [])
                   if name is None or self.spans[c][0] == name)

    def child_calls(self, i: int, name: str) -> int:
        return sum(self.spans[c][0] == name for c in self.kids.get(i, []))

    def self_time(self, i: int) -> float:
        return _dur(self.spans[i]) - self.child_time(i)


def flood_metrics(tracer: Tracer, kept) -> dict:
    """Per-layer metrics of a traced Flood run, as name -> (value, unit).

    Set-up and build figures are medians over the set-ups; calibration
    and learning figures are medians over their calls; query figures are
    medians per query over the traced queries, whose successful
    ``flood.query`` spans line up with ``kept``.
    """
    spans = tracer.spans
    tree = _Tree(spans)
    count = lambda s: s[6]  # noqa: E731
    out = {
        "datasets.generate_s": (_per_phase(spans, "setup", "datasets.load"), "s"),
        "workloads.generate_s": (_per_phase(spans, "setup", "workloads.make_workload"), "s"),
        "fixed_model.fit_s": (_per_phase(spans, "setup", "random_forest.fit"), "s"),
    }

    builds = _in(spans, _phases(spans, "setup"), "flood.build")
    for name, unit, fn in (
        ("flood.build.rmi_fit_s", "s", lambda i: tree.child_time(i, "rmi.fit")),
        ("flood.build.cell_assign_s", "s", lambda i: tree.child_time(i, "flood.cell_ids")),
        ("flood.build.plm_s", "s", lambda i: tree.child_time(i, "plm.fit")),
        ("plm.models_built", "count", lambda i: tree.child_calls(i, "plm.fit")),
        ("columnstore.build_s", "s", lambda i: tree.child_time(i, "columnstore.build")),
        ("flood.build.self_s", "s", tree.self_time),
    ):
        out[name] = (_median([fn(i) for i in builds]), unit)

    out["cost_model.calibrate.build_s"] = (_per_phase(spans, "calibrate", "flood.build"), "s")
    out["cost_model.calibrate.query_s"] = (_per_phase(spans, "calibrate", "flood.query"), "s")
    out["cost_model.calibrate.fit_s"] = (
        _per_phase(spans, "calibrate", "random_forest.fit"), "s")

    opts = _in(spans, _phases(spans, "learn"), "optimizer.optimize_layout")
    out["optimizer.flat_bounds_s"] = (_per_phase(spans, "learn", "optimizer.flat_bounds"), "s")
    out["cost_model.predict_s"] = (_per_phase(spans, "learn", "cost_model.predict"), "s")
    out["cost_model.predict_calls"] = (
        _per_phase(spans, "learn", "cost_model.predict", lambda s: 1), "count")
    out["random_forest.predict_s"] = (_per_phase(spans, "learn", "random_forest.predict"), "s")
    out["random_forest.rows_predicted"] = (
        _per_phase(spans, "learn", "random_forest.predict", count), "count")
    out["optimizer.self_s"] = (_median([tree.self_time(i) for i in opts]), "s")

    query_phases = set(_phases(spans, "query"))
    queries = [i for i, s in enumerate(spans)
               if s[5] in query_phases and s[0] == "flood.query" and s[7]]
    per_query: dict[int, dict[str, list]] = {}
    for s in spans:
        if s[5] in query_phases and s[4] >= 0 and s[0] != "flood.query":
            acc = per_query.setdefault(s[4], {}).setdefault(s[0], [0.0, 0])
            acc[0] += _dur(s)
            acc[1] += 1
    cols: dict[str, list] = {k: [] for k in (
        "proj", "refine", "scan", "cells", "points", "ns_pp", "cdf_us", "cdf_n",
        "gather", "self")}
    for i, r in zip(queries, kept):
        sub = per_query.get(i, {})
        p, f, sc = r.extra["proj_time"], r.extra["refine_time"], r.scan_time
        cdf = sub.get("rmi.cdf", [0.0, 0])
        cols["proj"].append(p * 1e6)
        cols["refine"].append(f * 1e6)
        cols["scan"].append(sc * 1e6)
        cols["cells"].append(r.n_cells)
        cols["points"].append(r.n_scanned)
        if r.n_scanned:
            cols["ns_pp"].append(sc / r.n_scanned * 1e9)
        cols["cdf_us"].append(cdf[0] * 1e6)
        cols["cdf_n"].append(cdf[1])
        cols["gather"].append("columnstore.scan_gather" in sub)
        cols["self"].append((_dur(spans[i]) - p - f - sc) * 1e6)
    out.update({
        "flood.project_us": (_median(cols["proj"]), "us"),
        "rmi.cdf_us": (_median(cols["cdf_us"]), "us"),
        "rmi.cdf_calls": (_median(cols["cdf_n"]), "count"),
        "flood.refine_us": (_median(cols["refine"]), "us"),
        "flood.cells_visited": (_median(cols["cells"]), "count"),
        "columnstore.scan_us": (_median(cols["scan"]), "us"),
        "columnstore.ns_per_point": (_median(cols["ns_pp"]), "ns"),
        "columnstore.gather_frac": (float(np.mean(cols["gather"])) if kept else 0.0,
                                    "fraction"),
        "columnstore.points_scanned": (_median(cols["points"]), "count"),
        "flood.query_self_us": (_median(cols["self"]), "us"),
    })
    return out


def spark_metrics(spans) -> dict:
    """Per-layer metrics of a traced spark-osm run, as name -> (value, unit)."""
    setups = _phases(spans, "setup")
    durs = lambda phases, name: [_dur(spans[i]) for i in _in(spans, phases, name)]  # noqa: E731
    runs = [d * 1e6 for d in durs(_phases(spans, "query"), "sparkglue.cell_runs_for_query")]
    return {
        "sparkglue.learn_boundaries_s": (
            _median(durs(setups, "sparkglue.learn_boundaries")), "s"),
        "sparkglue.apply_layout_s": (_median(durs(setups, "sparkglue.materialize")), "s"),
        "sparkglue.cell_runs_us": (_median(runs), "us"),
    }
