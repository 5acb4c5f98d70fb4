"""Capture the fixed cost model and the layouts it learns.

Run once, from the repository root, at the commit the benchmark is
defined on:

    python3 perfbench/capture.py           # write fixed_model/*.json
    python3 perfbench/capture.py --check   # verify them, exit 1 on mismatch

The calibration sample is captured only when it is missing (delete it
to capture a new one); otherwise only the layouts are relearned.
Capturing runs ``repro.harness.bench.default_cost_model()`` (the public
calibration path) while recording the ``(X, y)`` sample and forest
parameters of each of its three ``RandomForestRegressor.fit`` calls. It
then refits those forests from the sample, checks that they predict what
the calibrated forests predict, and learns each workload's layout with
``optimize_layout(seed=0)`` from its rows and training queries. The
scan overhead of each Flood workload's seed-0 test queries on its layout
is recorded too.

``--check`` refits the forests from the checked-in sample, relearns every
layout and recomputes every scan overhead, and compares them exactly with
the recorded values.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from common import (FIXED_DIR, ROOT, WORKLOADS, fit_forests, inputs, layout_to_dict,
                    load_json, use_repo_src)

FLOOD_WORKLOADS = ("tpch-scan", "sales-lookup")


def commit() -> str:
    got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return got.stdout.strip() or "unknown"


def capture_sample() -> dict:
    """Run the public calibration path, recording what each forest is fit on."""
    import numpy as np
    from repro.core import cost_model
    from repro.harness.bench import default_cost_model

    fits = []
    base = cost_model.RandomForestRegressor

    class Recording(base):
        def fit(self, X, y):
            fits.append((self, np.asarray(X, dtype=np.float64).copy(),
                         np.asarray(y, dtype=np.float64).copy()))
            return super().fit(X, y)

    cost_model.RandomForestRegressor = Recording
    try:
        calibrated = default_cost_model()
    finally:
        cost_model.RandomForestRegressor = base
    if len(fits) != 3 or any(not np.array_equal(f[1], fits[0][1]) for f in fits):
        raise RuntimeError("expected three forest fits on one feature matrix")
    sample = {
        "source": "repro.harness.bench.default_cost_model()",
        "captured_at": {
            "commit": commit(),
            "machine": (f"{len(os.sched_getaffinity(0))} cores, {platform.system()}, "
                        f"Python {platform.python_version()}, numpy {np.__version__}")},
        "X": fits[0][1].tolist(),
        "fits": {
            key: {"params": {p: getattr(forest, p) for p in (
                      "n_estimators", "max_depth", "min_samples_leaf",
                      "max_features", "seed")},
                  "y": y.tolist()}
            for key, (forest, _, y) in zip(("wp", "wr", "ws"), fits)
        },
    }
    # the refit forests must be the calibrated ones, tree for tree
    X = fits[0][1]
    refit = fit_forests(sample)
    for key, model in zip(("wp", "wr", "ws"), (calibrated.wp_model,
                                               calibrated.wr_model,
                                               calibrated.ws_model)):
        if not np.array_equal(refit[key].predict(X), model.predict(X)):
            raise RuntimeError(f"refit {key} forest differs from the calibrated one")
    return sample


def learn_layouts() -> dict:
    """Layouts the fixed model learns, and the seed-0 scan overhead of each
    Flood workload on its layout."""
    from repro.core.optimizer import optimize_layout
    from repro.indexes.flood import FloodIndex

    from common import fixed_cost_model
    from floodbench import answer_pass, oracle

    cm = fixed_cost_model()
    out = {}
    for workload in WORKLOADS:
        data, _, train, test = inputs(workload, seed=0)
        layout = optimize_layout(data, train, cm, seed=0).layout
        entry = {"layout": layout_to_dict(layout)}
        if workload in FLOOD_WORKLOADS:
            idx = FloodIndex(layout=layout).build(data, train)
            entry["scan_overhead_seed0"] = answer_pass(idx, test, oracle(data, test)).scan_overhead
        out[workload] = entry
        print(f"{workload}: {entry}", flush=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="verify the recorded files instead of writing them")
    args = ap.parse_args()
    use_repo_src()
    if args.check:
        want = load_json("layouts.json")["workloads"]
        got = learn_layouts()
        bad = [w for w in want if want[w] != got.get(w)]
        print("provenance check:", "MISMATCH " + ", ".join(bad) if bad else "ok")
        return 1 if bad else 0
    sample = FIXED_DIR / "calibration_sample.json"
    if not sample.exists():
        FIXED_DIR.mkdir(exist_ok=True)
        with open(sample, "w") as f:
            json.dump(capture_sample(), f)
    layouts = {"optimize_layout": {"seed": 0},
               "inputs": "common.inputs(workload, seed=0)",
               "workloads": learn_layouts()}
    with open(FIXED_DIR / "layouts.json", "w") as f:
        json.dump(layouts, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
