"""Shared pieces of the benchmark: workload inputs, the fixed cost model
and the recorded layouts.

The cost model that ``CostModel.calibrate`` fits depends on wall-clock
timings, so every process would learn a different layout. The benchmark
instead refits the repo's own ``RandomForestRegressor`` on a calibration
sample captured once (``capture.py``) and checked in under
``fixed_model/``; the query workloads run on the layouts that this fixed
model learns from each workload's rows and training queries
(``fixed_model/layouts.json``).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXED_DIR = BENCH_DIR / "fixed_model"
OUT_DIR = BENCH_DIR / "out"


def use_repo_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, ahead of any
    installed copy. Exits non-zero when the checkout has no program."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: one entry per Flood workload: dataset, rows, train/test query counts
WORKLOADS = {
    "tpch-scan": {"dataset": "tpch", "rows": 1_200_000, "n_train": 200, "n_test": 1500},
    "sales-lookup": {"dataset": "sales", "rows": 120_000, "n_train": 200, "n_test": 2000},
    "spark-osm": {"dataset": "osm", "rows": 200_000, "n_train": 200, "n_test": 100},
}


def inputs(workload: str, seed: int):
    """Rows, training queries and test queries of a workload.

    The rows and the training queries are the workload's fixed table and
    the queries its index is learned for; ``seed`` draws the test
    queries, the stream the benchmark times. Seed 0 gives the inputs the
    recorded scan overheads were measured on.
    """
    from repro import datasets, workloads

    spec = WORKLOADS[workload]
    name = spec["dataset"]
    data, dims = datasets.load(name, n=spec["rows"], seed=0)
    train = workloads.make_workload(data, name, spec["n_train"], seed=1)
    test = workloads.make_workload(data, name, spec["n_test"], seed=1000 * seed + 2)
    return data, dims, train, test


def load_json(name: str) -> dict:
    with open(FIXED_DIR / name) as f:
        return json.load(f)


def fit_forests(sample: dict) -> dict:
    """Fit the three weight forests on a captured calibration sample."""
    import numpy as np
    from repro.ml.random_forest import RandomForestRegressor

    X = np.asarray(sample["X"], dtype=np.float64)
    return {
        key: RandomForestRegressor(**fit["params"]).fit(X, np.asarray(fit["y"]))
        for key, fit in sample["fits"].items()
    }


def fixed_cost_model():
    """The cost model every benchmark process uses, fitted without timing."""
    from repro.core.cost_model import CostModel

    forests = fit_forests(load_json("calibration_sample.json"))
    return CostModel(wp_model=forests["wp"], wr_model=forests["wr"],
                     ws_model=forests["ws"])


def layout_to_dict(layout) -> dict:
    return {"order": [int(x) for x in layout.order],
            "cols": [int(x) for x in layout.cols],
            "flatten": bool(layout.flatten)}


def recorded_layout(workload: str):
    from repro.indexes.flood import Layout

    return Layout(**load_json("layouts.json")["workloads"][workload]["layout"])
